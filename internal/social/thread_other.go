//go:build !linux

package social

import (
	"bytes"
	"runtime"
	"strconv"
)

// threadID names the calling goroutine by the ID in its stack header, on
// platforms without a cheap thread ID (see thread_linux.go). It costs a
// stack walk, paid only while a Batched scope is open.
func threadID() int64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseInt(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}
