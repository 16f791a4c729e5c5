package main

import (
	"syscall"
	"time"
)

// sleepUntil puts the generator to sleep until t. It sleeps in the
// kernel (nanosleep), not on a Go timer: an idle Go runtime's poller
// waits in whole milliseconds, which would add up to a millisecond of
// the generator's own lateness to sub-millisecond latencies, while
// nanosleep wakes within about 0.1ms. (A timerfd read through the
// poller is no better: a goroutine the poller wakes can queue behind a
// busy runqueue for milliseconds.)
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
