package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The runtime's timers wake sub-millisecond
// sleeps up to a millisecond late on Linux (the poller waits in whole
// milliseconds), which would dominate open-loop latencies of cache
// hits; a nanosleep system call wakes within the kernel's timer slack.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}
