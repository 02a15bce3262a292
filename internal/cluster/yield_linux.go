//go:build linux

package cluster

import (
	"sync/atomic"
	"syscall"
	"time"
)

// yieldEvery is the shortest time between two yields of the process. A
// running thread keeps its processor until its scheduler slice ends (3–4 ms:
// the kernel lets the current thread finish before a woken one runs), so a
// thread of this process queued behind it — the runtime's network poller
// woken while every processor is busy, or a worker the balancer has put on
// the same processor while another idles — waits that long, and with it every
// goroutine in its run queue: on two processors 1–1.5 % of requests took
// 4–5 ms against a median of 0.45 ms, which is where the 99th percentile sat
// or did not from one run to the next. Yielding bounds the wait by this
// interval instead. It is longer than the 0.5 ms for which the kernel takes a
// thread that just ran as cache-hot and will not move it to the idle
// processor: yielding at every batch (measured) keeps both threads hot,
// prolongs the sharing and costs 9 % of the requests per second. At 0.7 ms it
// costs 3–5 % and the 99th percentile is what it was on a quiet machine; at
// 1 ms and 2 ms the percentile follows the interval up.
const yieldEvery = 700 * time.Microsecond

var (
	yieldEpoch = time.Now()
	lastYield  atomic.Int64 // time of the latest yield, since yieldEpoch
)

// yieldThread offers the calling thread's processor to whatever the kernel
// has queued behind it, at most once per yieldEvery for the whole process,
// and reports whether it did. With nothing queued the call returns at once.
// The front-end calls it when a batch has been dispatched and a back-end
// when a batch's responses have been written: the points at which the
// goroutine is about to wait anyway.
//
// The call is a raw one: the runtime is not told, the processor's P stays
// with the thread, exactly as when the kernel preempts it.
func yieldThread() bool {
	now := int64(time.Since(yieldEpoch))
	last := lastYield.Load()
	if now-last < int64(yieldEvery) || !lastYield.CompareAndSwap(last, now) {
		return false
	}
	syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	return true
}
