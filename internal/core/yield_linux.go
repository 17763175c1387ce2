package core

import "syscall"

// osYield gives the helper's thread's CPU to another runnable thread, if the
// kernel has one queued there (see poll).
func osYield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
