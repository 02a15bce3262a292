package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// workers runs tasks on reused goroutines. start hands a task to an idle
// worker over an unbuffered channel — one channel handoff, no timer — and
// starts a worker only when none is idle, so a steady stream of
// connections starts no goroutine, allocates nothing and finds its stack
// grown. A task has its worker to itself and may block as on a goroutine of
// its own. A body runs a worker's first task and then each that next
// returns, keeping its state in between; next reports false when the
// worker is to retire: done is closed, or reap found it idle throughout a
// workerIdle period (the fewest idle at any one time in it). Workers and
// reap are counted in wg.
type workers[T any] struct {
	body  func(first T, next func() (T, bool))
	tasks chan job[T] // a zero job retires its worker
	done  <-chan struct{}
	wg    *sync.WaitGroup

	idle, low, alive atomic.Int32 // low: fewest idle since the last trim
	started, retired atomic.Int64
}

type job[T any] struct {
	t  T
	ok bool
}

const workerIdle = time.Second

func newWorkers[T any](body func(T, func() (T, bool)), done <-chan struct{}, wg *sync.WaitGroup) *workers[T] {
	p := &workers[T]{body: body, tasks: make(chan job[T]), done: done, wg: wg}
	wg.Add(1)
	go p.reap()
	return p
}

//phttp:hotpath
func (p *workers[T]) start(t T) {
	select {
	case p.tasks <- job[T]{t, true}:
	default:
		p.spawn(t)
	}
}

// spawn is start's cold half, out of line so that t escapes only here.
//
//go:noinline
func (p *workers[T]) spawn(t T) {
	p.started.Add(1)
	p.alive.Add(1)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.alive.Add(-1)
		p.body(t, p.next)
	}()
}

func (p *workers[T]) next() (T, bool) {
	p.idle.Add(1)
	var j job[T]
	select {
	case j = <-p.tasks:
	case <-p.done:
	}
	n := p.idle.Add(-1)
	for l := p.low.Load(); n < l && !p.low.CompareAndSwap(l, n); l = p.low.Load() {
	}
	return j.t, j.ok
}

func (p *workers[T]) reap() {
	defer p.wg.Done()
	tick := time.NewTicker(workerIdle)
	defer tick.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-tick.C:
			p.trim()
		}
	}
}

// trim retires the workers idle since the last trim and starts a period.
func (p *workers[T]) trim() {
	for n := p.low.Swap(p.idle.Load()); n > 0; n-- {
		select {
		case p.tasks <- job[T]{}:
			p.retired.Add(1)
		default:
			return
		}
	}
}
