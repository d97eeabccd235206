package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. nanosleep(2) wakes within about 0.1 ms on
// Linux, where time.Sleep's timer wakes up to a millisecond late; the
// open loop's lateness would otherwise dominate decide_p50_ms.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}
