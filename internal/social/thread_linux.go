package social

import "syscall"

// threadID names the OS thread the caller runs on. A Batched scope locks
// its goroutine to its thread for its run, and no other goroutine runs
// on a locked thread, so while a scope is open its thread names its
// goroutine.
func threadID() int64 { return int64(syscall.Gettid()) }
