// Command tool calls package user: a command counts as a caller.
package main

import "fixture/user"

func main() { user.Run() }
