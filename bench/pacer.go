package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is PR_SET_TIMERSLACK from <linux/prctl.h>.
const prSetTimerSlack = 29

// The open-loop pacer sleeps until each request is due without a timer
// floor. time.Sleep waits through the Go netpoller, which rounds its waits
// up to whole milliseconds: pacing 500 µs gaps with it runs late by about
// 525 µs at the median and 1 ms at p99. The pacer instead sleeps in
// nanosleep on an OS thread of its own whose timer slack is 1 ns. It
// never spins, so it does not take a core from the system under test.

// lockPacerThread locks the calling goroutine to its thread and sets the
// thread's timer slack. That goroutine must make every sleepUntil call and
// end without unlocking, so that the runtime discards the thread with its
// changed slack.
func lockPacerThread() error {
	runtime.LockOSThread()
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0); errno != 0 {
		return fmt.Errorf("prctl(PR_SET_TIMERSLACK): %w", errno)
	}
	return nil
}

// sleepUntil returns at or after t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		// An interrupted sleep (EINTR) just goes round the loop again.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
