package core

import (
	"sync"
	"sync/atomic"
)

// A Promise is a single-assignment, thread-safe container for some value.
// A Future is a read-only handle on that value. Together they form a
// flexible point-to-point synchronization channel from one source task to
// many sink tasks: sinks block on the future (or predicate task execution on
// it via AsyncAwait) and are released when some task performs a Put on the
// associated promise.
type Promise struct {
	rt   *Runtime
	mu   sync.Mutex
	done atomic.Bool
	val  any
	err  error // non-nil iff settled by PutErr (a failed future)

	// waiters registered before satisfaction.
	taskWaiters []*Task                  // eligible once their dep counters drain
	chanWaiters []chan struct{}          // parked goroutines / substituted workers
	callbacks   []func(v any, err error) // module-internal completion hooks
	fut         Future
}

// Future is a read-only handle on a promise's value.
type Future struct {
	p *Promise
}

// NewPromise creates an unsatisfied promise bound to the given runtime.
// The runtime binding lets Put release dependent tasks into the scheduler.
func NewPromise(rt *Runtime) *Promise {
	p := &Promise{rt: rt}
	p.fut = Future{p: p}
	return p
}

// Future returns the read-only handle on p's value. Every call returns a
// handle on the same underlying promise.
func (p *Promise) Future() *Future { return &p.fut }

// Put satisfies the promise with v, releasing all registered waiters.
// A promise is single-assignment: a second Put panics.
//
// Put may be called from any goroutine. When called from inside a task,
// prefer Ctx.Put, which releases dependent tasks through the calling
// worker's own deques instead of the slower shared injector.
func (p *Promise) Put(v any) { p.put(nil, v) }

// PutErr settles the promise as failed: waiters are released exactly as
// by Put (with a nil value), and the error is retrievable via
// Future.Err. Like Put it is single-assignment.
func (p *Promise) PutErr(err error) { p.putResult(nil, nil, err) }

func (p *Promise) put(c *Ctx, v any) { p.putResult(c, v, nil) }

func (p *Promise) putResult(c *Ctx, v any, err error) {
	p.mu.Lock()
	if p.done.Load() {
		p.mu.Unlock()
		panic("core: promise satisfied twice")
	}
	p.val = v
	p.err = err
	p.done.Store(true)
	tasks := p.taskWaiters
	chans := p.chanWaiters
	cbs := p.callbacks
	p.taskWaiters, p.chanWaiters, p.callbacks = nil, nil, nil
	p.mu.Unlock()

	for _, cb := range cbs {
		cb(v, err)
	}
	for _, t := range tasks {
		if t.deps.dec() {
			p.rt.enqueue(workerOf(c), t)
		}
	}
	for _, ch := range chans {
		close(ch)
	}
}

func workerOf(c *Ctx) *worker {
	if c == nil {
		return nil
	}
	return c.w
}

// Done reports whether the promise has been satisfied.
func (f *Future) Done() bool { return f.p.done.Load() }

// Get blocks the calling goroutine until the future is satisfied and
// returns its value. Inside a task, prefer Ctx.Get, which keeps the worker
// busy with other work while waiting.
func (f *Future) Get() any {
	f.Wait()
	return f.p.val
}

// Wait blocks the calling goroutine until the future is satisfied. Inside a
// task, prefer Ctx.Wait.
func (f *Future) Wait() {
	if f.Done() {
		return
	}
	ch := make(chan struct{})
	if !f.addChanWaiter(ch) {
		return // satisfied in the meantime
	}
	<-ch
}

// Err blocks until the future settles and returns its error: nil for a
// future satisfied by Put, the failure for one settled by PutErr or by
// the execute barrier converting a task-body panic. Inside a task,
// prefer Ctx.GetErr, which keeps the worker busy while waiting.
func (f *Future) Err() error {
	f.Wait()
	return f.p.err
}

// Failed reports whether the future has settled with an error.
func (f *Future) Failed() bool { return f.p.done.Load() && f.p.err != nil }

// valueLocked returns the satisfied value; callers must ensure Done.
func (f *Future) valueLocked() any { return f.p.val }

// errSettled returns the settled error without blocking; callers must
// ensure Done.
func (f *Future) errSettled() error { return f.p.err }

// addChanWaiter registers ch to be closed on satisfaction. It returns false
// if the future is already satisfied (ch is not registered).
func (f *Future) addChanWaiter(ch chan struct{}) bool {
	p := f.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done.Load() {
		return false
	}
	p.chanWaiters = append(p.chanWaiters, ch)
	return true
}

// addTaskWaiter registers t so that when the future is satisfied, t's
// dependency count is decremented (and t enqueued when it drains). Returns
// false if already satisfied, in which case the caller decrements directly.
func (f *Future) addTaskWaiter(t *Task) bool {
	p := f.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done.Load() {
		return false
	}
	p.taskWaiters = append(p.taskWaiters, t)
	return true
}

// OnDone registers fn to run when the future is satisfied (immediately, in
// the caller's goroutine, if it already is). Modules use this to bridge
// completion events into their own bookkeeping; application code should
// prefer AsyncAwait. A failed future invokes fn with a nil value; use
// OnSettled when the error matters.
func (f *Future) OnDone(fn func(any)) {
	f.OnSettled(func(v any, _ error) { fn(v) })
}

// OnSettled registers fn to run when the future settles, receiving both
// the value and the error (nil for success). Like OnDone it runs
// immediately in the caller's goroutine if the future already settled.
func (f *Future) OnSettled(fn func(v any, err error)) {
	p := f.p
	p.mu.Lock()
	if p.done.Load() {
		v, err := p.val, p.err
		p.mu.Unlock()
		fn(v, err)
		return
	}
	p.callbacks = append(p.callbacks, fn)
	p.mu.Unlock()
}

// Satisfied returns a pre-satisfied future holding v; handy for uniform
// APIs where a result may be available immediately.
func Satisfied(rt *Runtime, v any) *Future {
	p := NewPromise(rt)
	p.Put(v)
	return p.Future()
}

// FailedFuture returns a pre-failed future carrying err: the uniform way
// for an asynchronous API to report a call-site validation error without
// introducing a second (synchronous) error path for its callers.
func FailedFuture(rt *Runtime, err error) *Future {
	p := NewPromise(rt)
	p.PutErr(err)
	return p.Future()
}

// WhenAll returns a future settled once all the given futures are. It
// fails with the first (by settlement order) input error, else is
// satisfied with nil. With no arguments the result is already satisfied.
func WhenAll(rt *Runtime, futures ...*Future) *Future {
	out := NewPromise(rt)
	if len(futures) == 0 {
		out.Put(nil)
		return out.Future()
	}
	var remaining atomic.Int64
	var firstErr atomic.Pointer[error]
	remaining.Store(int64(len(futures)))
	for _, f := range futures {
		f.OnSettled(func(_ any, err error) {
			if err != nil {
				firstErr.CompareAndSwap(nil, &err)
			}
			if remaining.Add(-1) == 0 {
				if ep := firstErr.Load(); ep != nil {
					out.PutErr(*ep)
				} else {
					out.Put(nil)
				}
			}
		})
	}
	return out.Future()
}

// depCounter tracks a task's outstanding dependencies. A task with zero
// dependencies is eligible immediately; otherwise the last dependency to
// drain enqueues it. 32 bits keep Task at 32 bytes (the size class the
// task pool and allocator are tuned around); no task awaits 2^31 futures.
type depCounter struct {
	n atomic.Int32
}

func (d *depCounter) set(n int) { d.n.Store(int32(n)) }

// dec decrements and reports whether the count reached zero (i.e. the
// caller must enqueue the task).
func (d *depCounter) dec() bool { return d.n.Add(-1) == 0 }
