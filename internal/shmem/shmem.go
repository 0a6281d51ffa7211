// Package shmem implements the subset of the OpenSHMEM 1.3 specification
// that the HiPER AsyncSHMEM module wraps, over an in-process symmetric
// heap whose remote accesses travel the pluggable transport layer in
// package fabric.
//
// OpenSHMEM is a PGAS library: every PE (processing element) allocates the
// same symmetric objects, and any PE may Put/Get/atomically-update the
// instance of an object on any other PE. v1.3 makes no thread-safety
// guarantees, which is precisely why the paper builds a HiPER module around
// it: the module funnels all SHMEM calls through tasks so multi-threaded
// programs stay specification-compliant.
//
// Completion semantics follow the specification: Put returns when the
// source buffer is reusable (remote delivery is asynchronous), Quiet blocks
// until all of the calling PE's outstanding puts are remotely visible,
// BarrierAll implies Quiet, and WaitUntil blocks until a local symmetric
// location satisfies a comparison — typically made true by a remote put.
// From OpenSHMEM 1.5 the package takes put-with-signal (PutSignal): one
// transfer that writes a payload and then a signal word at the target.
// Waiting is event-driven: each Int64Array keeps a per-PE watch list that
// every update checks, so the delivery that makes a condition true is
// what releases WaitUntil and the module's shmem_async_when.
//
// Every remote access is issued as a one-sided transfer on the World's
// transport, so a SHMEM world built with NewWorldOver on a shared fabric
// contends with MPI or UPC++ traffic from other worlds on the same
// endpoints — congestion windows and node locality apply across modules.
package shmem

import (
	"fmt"
	"sync"

	"repro/internal/fabric"
	"repro/internal/simnet"
	"repro/internal/watch"
)

// Cmp is a comparison operator for WaitUntil, mirroring SHMEM_CMP_*.
type Cmp int

// Comparison operators.
const (
	CmpEQ Cmp = iota
	CmpNE
	CmpGT
	CmpGE
	CmpLT
	CmpLE
)

// Eval applies the comparison.
func (c Cmp) Eval(a, b int64) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	}
	panic(fmt.Sprintf("shmem: unknown comparison %d", int(c)))
}

// World is an in-process SHMEM job: n PEs sharing a symmetric heap.
type World struct {
	// slots is the preallocation width for per-PE structures: the
	// transport's capacity (elastic fabrics keep spare endpoints), not
	// its current size. Symmetric arrays allocate one instance per slot
	// so live resize never reallocates — their mutexes and watch lists
	// are indexed by slot and must stay where a delivery in flight finds
	// them.
	slots int
	tr    fabric.Transport
	coll  *fabric.Coll
	pes   []*PE
}

// NewWorld creates an n-PE job over a simulated interconnect with the
// given remote-access cost model.
func NewWorld(n int, cost simnet.CostModel) *World {
	if n <= 0 {
		panic("shmem: world needs at least one PE")
	}
	return NewWorldOver(fabric.NewSim(n, cost))
}

// NewWorldOver creates a job over an existing transport, one PE per
// endpoint. Several library worlds may share one transport; their traffic
// then shares links, congestion windows, and locality domains.
func NewWorldOver(tr fabric.Transport) *World {
	w := &World{slots: fabric.CapacityOf(tr), tr: tr, coll: fabric.NewColl(tr)}
	w.pes = make([]*PE, w.slots)
	for i := range w.pes {
		w.pes[i] = &PE{w: w, rank: i}
	}
	return w
}

// Size returns the number of PEs (shmem_n_pes), resolved through the
// transport so it tracks live resize on an elastic fabric.
func (w *World) Size() int { return w.tr.Size() }

// Transport exposes the underlying transport (for diagnostics and for
// composing further library worlds over the same endpoints).
func (w *World) Transport() fabric.Transport { return w.tr }

// PE returns rank r's handle (each simulated process holds one).
func (w *World) PE(r int) *PE { return w.pes[r] }

// PE is one processing element's handle on the job.
type PE struct {
	w       *World
	rank    int
	pending sync.WaitGroup // outstanding one-sided updates issued by this PE
}

// Rank returns the calling PE's number (shmem_my_pe).
func (p *PE) Rank() int { return p.rank }

// Size returns the job size (shmem_n_pes).
func (p *PE) Size() int { return p.w.Size() }

// World returns the underlying job.
func (p *PE) World() *World { return p.w }

// put issues one asynchronous one-sided update toward dst: apply runs at
// the remote side when the transfer lands, and the PE's pending count
// covers it until then. A PE's stores to its own symmetric memory apply
// immediately without touching the transport, as on real PGAS hardware.
func (p *PE) put(dst, bytes int, apply func()) {
	if dst == p.rank {
		apply()
		return
	}
	p.pending.Add(1)
	p.w.tr.Put(p.rank, dst, bytes, apply, p.pending.Done)
}

// roundTrip issues one blocking one-sided access toward dst (a get or an
// atomic), returning after apply has run at the remote side and the
// modelled round trip has elapsed. Accesses to the calling PE's own
// memory apply immediately.
func (p *PE) roundTrip(dst, bytes int, apply func()) {
	if dst == p.rank {
		if apply != nil {
			apply()
		}
		return
	}
	done := make(chan struct{})
	p.w.tr.Get(p.rank, dst, bytes, apply, func() { close(done) })
	<-done
}

// Quiet blocks until all outstanding puts and atomic updates issued by
// this PE are complete and remotely visible (shmem_quiet).
func (p *PE) Quiet() { p.pending.Wait() }

// Fence orders this PE's puts; with our per-op delivery it is equivalent
// to Quiet, which the specification permits.
func (p *PE) Fence() { p.Quiet() }

// BarrierAll synchronizes all PEs and implies Quiet (shmem_barrier_all).
func (p *PE) BarrierAll() {
	p.Quiet()
	p.w.coll.Barrier()
}

// BarrierAllAsync arrives at the barrier once this PE's outstanding
// one-sided updates complete, and invokes onDone when all PEs have
// arrived. It never blocks the caller — the AsyncSHMEM module uses it so
// a barrier never stalls a worker its AsyncWhen handlers may need.
func (p *PE) BarrierAllAsync(onDone func()) {
	//hiperlint:ignore goroutine-leak arrival goroutine exits once this PE's pending puts drain; joining it would reintroduce the blocking barrier this API exists to avoid
	go func() {
		p.pending.Wait()
		p.w.coll.BarrierAsync(onDone)
	}()
}

// Int64Array is a symmetric array of int64: every PE owns one instance of
// length n, remotely accessible by all PEs. Allocation is logically
// collective; in-process, allocate once and share the handle.
type Int64Array struct {
	w    *World
	data [][]int64
	mus  []sync.Mutex
	// watch[r] holds the conditions armed on PE r's instance (guarded by
	// mus[r]). Every update sweeps it while it still holds the lock, so
	// waiting is event-driven: the delivery that makes a condition true
	// is what releases its waiter.
	watch []watch.List[watcher]
}

// watcher is one armed, one-shot condition on an element.
type watcher struct {
	off  int
	cmp  Cmp
	val  int64
	fire func(cur int64)
}

// AllocInt64 allocates a symmetric int64 array of length n per PE
// (shmem_malloc), zero-initialized. Instances are allocated for every
// slot (transport capacity), so PEs added by a live grow find their
// instance already in place.
func (w *World) AllocInt64(n int) *Int64Array {
	a := &Int64Array{w: w}
	a.data = make([][]int64, w.slots)
	a.mus = make([]sync.Mutex, w.slots)
	a.watch = make([]watch.List[watcher], w.slots)
	for r := 0; r < w.slots; r++ {
		a.data[r] = make([]int64, n)
	}
	return a
}

// update applies write to PE rank's instance and then fires the watchers
// the new contents satisfy (package watch has the protocol). The fire
// callbacks run after the lock is released, on the caller's goroutine —
// the transport's delivery goroutine for a remote update.
func (a *Int64Array) update(rank int, write func(loc []int64)) {
	a.mus[rank].Lock()
	loc := a.data[rank]
	write(loc)
	fired := a.watch[rank].Sweep(func(wt *watcher) bool {
		cur := loc[wt.off]
		if !wt.cmp.Eval(cur, wt.val) {
			return false
		}
		wt.val = cur // the callback receives the value that satisfied it
		return true
	})
	a.mus[rank].Unlock()
	for _, wt := range fired {
		wt.fire(wt.val)
	}
}

// When arms a one-shot watcher on PE rank's element at off: fire runs
// exactly once, with the element's value, as soon as that value satisfies
// cmp against val — at once on the caller's goroutine if it already
// does, otherwise on the goroutine delivering the update that makes it
// so. fire must not block. Only updates that travel the fabric (Put,
// PutSignal, PutValue, the atomics, the collectives) are seen; a store
// through Local is not. When is not a SHMEM API; it is what WaitUntil and
// the HiPER module's shmem_async_when are built on.
func (a *Int64Array) When(rank, off int, cmp Cmp, val int64, fire func(cur int64)) {
	a.mus[rank].Lock()
	cur := a.data[rank][off]
	if !cmp.Eval(cur, val) {
		a.watch[rank].Arm(watcher{off: off, cmp: cmp, val: val, fire: fire})
		a.mus[rank].Unlock()
		return
	}
	a.mus[rank].Unlock()
	fire(cur)
}

// Len returns the per-PE length.
func (a *Int64Array) Len() int { return len(a.data[0]) }

// Local returns PE rank's local instance for direct access. Direct access
// is only safe when properly synchronized (after a barrier, a WaitUntil,
// or within the owning PE before any remote updates), exactly as in SHMEM.
// A store through the slice bypasses the watch list: it releases no
// WaitUntil, When or shmem_async_when waiter, even if it makes the
// condition true. Write a watched element with PutValue or an atomic to
// the PE's own rank instead (those apply at once, without the transport).
func (a *Int64Array) Local(rank int) []int64 { return a.data[rank] }

// Put copies vals into dst's instance at offset off (shmem_put64). It
// returns once the source values are captured; remote visibility completes
// asynchronously after the modelled delay. Use Quiet or BarrierAll to wait.
func (p *PE) Put(a *Int64Array, dst, off int, vals []int64) {
	cp := make([]int64, len(vals))
	copy(cp, vals)
	p.put(dst, 8*len(cp), func() {
		a.update(dst, func(loc []int64) { copy(loc[off:], cp) })
	})
}

// SignalOp selects how PutSignal updates the signal word
// (SHMEM_SIGNAL_SET / SHMEM_SIGNAL_ADD).
type SignalOp int

// Signal operators.
const (
	SignalSet SignalOp = iota
	SignalAdd
)

// PutSignal copies vals into dst's instance of a at offset off and then
// updates dst's element sigOff of sig with sigVal (OpenSHMEM 1.5
// shmem_put_signal). It is ONE transfer whose arrival writes the payload
// before the signal word, so a PE that observes the signal — through
// WaitUntil, Test or a watcher — sees the payload, with no fence and no
// second message. Successive PutSignals toward one PE are seen in issue
// order on transports that deliver each pair FIFO (Sim, Reliable).
func (p *PE) PutSignal(a *Int64Array, dst, off int, vals []int64, sig *Int64Array, sigOff int, sigVal int64, op SignalOp) {
	cp := make([]int64, len(vals))
	copy(cp, vals)
	p.put(dst, 8*len(cp)+8, func() {
		a.update(dst, func(loc []int64) { copy(loc[off:], cp) })
		sig.update(dst, func(loc []int64) {
			if op == SignalAdd {
				loc[sigOff] += sigVal
			} else {
				loc[sigOff] = sigVal
			}
		})
	})
}

// PutValue is Put of a single element (shmem_int64_p).
func (p *PE) PutValue(a *Int64Array, dst, off int, val int64) {
	p.put(dst, 8, func() {
		a.update(dst, func(loc []int64) { loc[off] = val })
	})
}

// Get copies n elements from src's instance at offset off into a fresh
// slice (shmem_get64). Get blocks for the full round trip.
func (p *PE) Get(a *Int64Array, src, off, n int) []int64 {
	out := make([]int64, n)
	p.roundTrip(src, 8*n, func() {
		a.mus[src].Lock()
		copy(out, a.data[src][off:off+n])
		a.mus[src].Unlock()
	})
	return out
}

// GetValue is Get of a single element (shmem_int64_g).
func (p *PE) GetValue(a *Int64Array, src, off int) int64 {
	var v int64
	p.roundTrip(src, 8, func() {
		a.mus[src].Lock()
		v = a.data[src][off]
		a.mus[src].Unlock()
	})
	return v
}

// Peek reads a single element with no modelled delay. It is not a SHMEM
// API; consumers of counter-and-buffer protocols use it to read a local
// counter under the lock its remote writers hold.
func (a *Int64Array) Peek(rank, off int) int64 {
	a.mus[rank].Lock()
	v := a.data[rank][off]
	a.mus[rank].Unlock()
	return v
}

// FetchAdd atomically adds delta to dst's element and returns the prior
// value (shmem_int64_atomic_fetch_add). Blocks for the round trip.
func (p *PE) FetchAdd(a *Int64Array, dst, off int, delta int64) int64 {
	var old int64
	p.roundTrip(dst, 8, func() {
		a.update(dst, func(loc []int64) {
			old = loc[off]
			loc[off] = old + delta
		})
	})
	return old
}

// Add atomically adds delta without fetching (shmem_int64_atomic_add);
// returns immediately, completing asynchronously.
func (p *PE) Add(a *Int64Array, dst, off int, delta int64) {
	p.put(dst, 8, func() {
		a.update(dst, func(loc []int64) { loc[off] += delta })
	})
}

// CompareSwap atomically replaces dst's element with val if it equals
// cond, returning the prior value (shmem_int64_atomic_compare_swap).
func (p *PE) CompareSwap(a *Int64Array, dst, off int, cond, val int64) int64 {
	var old int64
	p.roundTrip(dst, 8, func() {
		a.update(dst, func(loc []int64) {
			old = loc[off]
			if old == cond {
				loc[off] = val
			}
		})
	})
	return old
}

// Swap atomically replaces dst's element, returning the prior value
// (shmem_int64_atomic_swap).
func (p *PE) Swap(a *Int64Array, dst, off int, val int64) int64 {
	var old int64
	p.roundTrip(dst, 8, func() {
		a.update(dst, func(loc []int64) {
			old = loc[off]
			loc[off] = val
		})
	})
	return old
}

// WaitUntil blocks the calling PE until its own element at off satisfies
// cmp against val (shmem_int64_wait_until). The blocking nature of this
// API is what motivated the paper's shmem_async_when extension.
func (p *PE) WaitUntil(a *Int64Array, off int, cmp Cmp, val int64) {
	done := make(chan struct{})
	a.When(p.rank, off, cmp, val, func(int64) { close(done) })
	<-done
}

// Test reports whether the calling PE's element at off satisfies cmp
// against val, without blocking (shmem_int64_test).
func (p *PE) Test(a *Int64Array, off int, cmp Cmp, val int64) bool {
	me := p.rank
	a.mus[me].Lock()
	ok := cmp.Eval(a.data[me][off], val)
	a.mus[me].Unlock()
	return ok
}
