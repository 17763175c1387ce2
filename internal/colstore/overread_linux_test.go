package colstore

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardedWords returns a copy of words whose last byte is the last readable
// byte of its mapping: the page after it is PROT_NONE, so a load that runs
// past the slice faults.
func guardedWords(t *testing.T, words []uint64) []uint64 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (8*len(words) + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	dst := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[size-8*len(words)])), len(words))
	copy(dst, words)
	return dst
}

// TestCompareKernelStaysInsideWords puts a column's packed words right
// against an unreadable page and compares every block of every width. The
// vector routine's last load runs up to 16 bytes past its block, so the last
// full block must take another path when fewer than 16 bytes of words follow
// it: nothing (the column ends on a block boundary), one word (a two-value
// tail), and exactly two words, where the routine may read to the very end of
// the mapping and no further.
func TestCompareKernelStaysInsideWords(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(24))
	for w := uint(1); w <= 64; w++ {
		twoWords := BlockSize + max(2, 64/int(w)+1) // a tail just past one word
		for _, n := range []int{BlockSize, 2 * BlockSize, BlockSize + 2, twoWords, 2*BlockSize + 2} {
			vals, c := widthColumn(rng, w, n, blockMins(w)[3])
			c.words = guardedWords(t, c.words)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("w=%d n=%d: a compare read past the column's words: %v", w, n, r)
					}
				}()
				for b := 0; b < c.NumBlocks(); b++ {
					blk := vals[b*BlockSize : min(n, (b+1)*BlockSize)]
					for _, r := range compareRanges(rng, blk)[:6] {
						checkCompareBlock(t, c, vals, b, BlockBitmap{^uint64(0), randomSel(rng) | 1<<63}, r[0], r[1])
					}
				}
			}()
		}
	}
}
