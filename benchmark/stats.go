package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of vs (mean of the two middle values for
// an even count). vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// so --repeat prints the same spread the acceptance rule is stated in.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(math.Floor(pos))
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

// quantileNS returns the q-quantile of sorted latencies, in nanoseconds.
func quantileNS(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// usage is one reading of the process-wide counters every measured window
// is bracketed with.
type usage struct {
	wall    time.Time
	cpu     time.Duration // getrusage user+sys, whole process
	mallocs uint64        // runtime.MemStats.Mallocs
}

// mallocs returns the process's cumulative count of heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{wall: time.Now(), cpu: cpu, mallocs: mallocs()}
}

// window is the difference of two usage readings plus the work done between
// them.
type window struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	ops     int64 // requests (prototype) or simulated requests (simulator)
}

func (u usage) until(v usage, ops int64) window {
	return window{wall: v.wall.Sub(u.wall), cpu: v.cpu - u.cpu, mallocs: v.mallocs - u.mallocs, ops: ops}
}

func (w window) opsPerSec() float64 { return float64(w.ops) / w.wall.Seconds() }
func (w window) cpuUsPerOp() float64 {
	return float64(w.cpu.Nanoseconds()) / 1e3 / float64(w.ops)
}
func (w window) allocsPerOp() float64 { return float64(w.mallocs) / float64(w.ops) }

// medianOf applies f to every window and returns the median of the results.
func medianOf(ws []window, f func(window) float64) float64 {
	vs := make([]float64, len(ws))
	for i, w := range ws {
		vs[i] = f(w)
	}
	return median(vs)
}
