// Package upcxx implements the subset of UPC++ v1.0 that the HiPER UPC++
// module wraps: a PGAS shared heap with asynchronous one-sided rput/rget,
// remote procedure calls drained by an explicit progress function, and
// completion callbacks (UPC++ futures map onto HiPER futures in the
// module layer).
//
// HPGMG-FV's ghost-zone exchange is the paper's consumer: boxes rput face
// data into neighbours' shared arrays and chain dependent work on the
// completions. The remote completion it needs is RPutSignal: one transfer
// that writes the face and then a signal word whose per-rank watch list
// releases the neighbour's wait on arrival.
//
// All remote operations — rput, rget, RPC control messages and their
// acknowledgements — are one-sided transfers on the World's transport
// (package fabric), so a UPC++ world composed over a shared fabric
// contends with MPI and SHMEM traffic for the same congestion windows.
package upcxx

import (
	"sync"

	"repro/internal/fabric"
	"repro/internal/simnet"
	"repro/internal/watch"
)

// World is an in-process UPC++ job of n ranks.
type World struct {
	n     int
	tr    fabric.Transport
	coll  *fabric.Coll
	ranks []*Rank
}

// NewWorld creates an n-rank job over a simulated interconnect with the
// given remote-access cost model.
func NewWorld(n int, cost simnet.CostModel) *World {
	if n <= 0 {
		panic("upcxx: world needs at least one rank")
	}
	return NewWorldOver(fabric.NewSim(n, cost))
}

// NewWorldOver creates a job over an existing transport, one rank per
// endpoint. Several library worlds may share one transport; their traffic
// then shares links, congestion windows, and locality domains.
func NewWorldOver(tr fabric.Transport) *World {
	w := &World{n: tr.Size(), tr: tr, coll: fabric.NewColl(tr)}
	w.ranks = make([]*Rank, w.n)
	for i := range w.ranks {
		w.ranks[i] = &Rank{w: w, id: i}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// Transport exposes the underlying transport (for diagnostics and for
// composing further library worlds over the same endpoints).
func (w *World) Transport() fabric.Transport { return w.tr }

// Rank returns rank r's handle.
func (w *World) Rank(r int) *Rank { return w.ranks[r] }

// Rank is one process's handle on the job.
type Rank struct {
	w  *World
	id int

	rpcMu     sync.Mutex
	rpcQ      []func()
	rpcNotify func()
	pending   sync.WaitGroup // outstanding one-sided ops issued by this rank
}

// OnRPCEnqueued registers fn to be invoked (on the delivering goroutine)
// whenever an inbound RPC is enqueued at this rank. Progress-driving
// layers — like the HiPER UPC++ module's poller — use it to wake up
// without busy-watching the queue.
func (r *Rank) OnRPCEnqueued(fn func()) {
	r.rpcMu.Lock()
	r.rpcNotify = fn
	r.rpcMu.Unlock()
}

// ID returns the calling rank (upcxx::rank_me).
func (r *Rank) ID() int { return r.id }

// Size returns the job size (upcxx::rank_n).
func (r *Rank) Size() int { return r.w.n }

// Barrier synchronizes all ranks and flushes this rank's outstanding
// one-sided operations (upcxx::barrier).
func (r *Rank) Barrier() {
	r.pending.Wait()
	r.w.coll.Barrier()
}

// BarrierAsync arrives at the barrier once this rank's outstanding
// one-sided operations complete, and invokes onDone when all ranks have
// arrived. It never blocks the caller, so a scheduler can keep its workers
// busy (e.g. executing inbound RPCs other ranks' arrivals depend on).
func (r *Rank) BarrierAsync(onDone func()) {
	go func() {
		r.pending.Wait()
		r.w.coll.BarrierAsync(onDone)
	}()
}

// Quiet waits for this rank's outstanding one-sided operations.
func (r *Rank) Quiet() { r.pending.Wait() }

// SharedArray is a float64 array allocated in every rank's shared segment
// (one block per rank, like upcxx::new_array on each rank).
type SharedArray struct {
	w    *World
	data [][]float64
	mus  []sync.Mutex
	// watch[r] holds the signal waits armed on rank r's block (guarded by
	// mus[r]); every write sweeps it, so the delivery that raises a
	// signal word is what releases its waiter.
	watch []watch.List[watcher]
}

// watcher is one armed, one-shot wait for element i to reach want.
type watcher struct {
	i    int
	want float64
	fire func()
}

// AllocShared allocates a shared array of length n per rank.
func (w *World) AllocShared(n int) *SharedArray {
	a := &SharedArray{w: w}
	a.data = make([][]float64, w.n)
	a.mus = make([]sync.Mutex, w.n)
	a.watch = make([]watch.List[watcher], w.n)
	for i := range a.data {
		a.data[i] = make([]float64, n)
	}
	return a
}

// update applies write to rank r's block and then fires the watchers the
// new contents satisfy (package watch has the protocol). The callbacks
// run after the lock is released, on the caller's (the transport's
// delivery) goroutine.
func (a *SharedArray) update(r int, write func(loc []float64)) {
	a.mus[r].Lock()
	loc := a.data[r]
	write(loc)
	fired := a.watch[r].Sweep(func(wt *watcher) bool { return loc[wt.i] >= wt.want })
	a.mus[r].Unlock()
	for _, wt := range fired {
		wt.fire()
	}
}

// WhenAtLeast arms a one-shot watcher on rank r's element i: fire runs
// exactly once, as soon as the element is >= want — at once on the
// caller's goroutine if it already is, otherwise on the goroutine
// delivering the write that makes it so. fire must not block. Only RPut
// and RPutSignal deliveries are seen; a store through Local is not. This
// is the target side of RPutSignal: the wait is satisfied by the
// delivery, not discovered by polling.
func (a *SharedArray) WhenAtLeast(r, i int, want float64, fire func()) {
	a.mus[r].Lock()
	if a.data[r][i] < want {
		a.watch[r].Arm(watcher{i: i, want: want, fire: fire})
		a.mus[r].Unlock()
		return
	}
	a.mus[r].Unlock()
	fire()
}

// Len returns the per-rank length.
func (a *SharedArray) Len() int { return len(a.data[0]) }

// Local returns rank r's block for direct access; the caller is
// responsible for synchronization (after barrier / completion), as with
// upcxx::local_team access. A store through the slice bypasses the watch
// list and releases no WhenAtLeast waiter.
func (a *SharedArray) Local(r int) []float64 { return a.data[r] }

// Peek reads one element of rank r's block under the write lock, with no
// modelled delay.
func (a *SharedArray) Peek(r, i int) float64 {
	a.mus[r].Lock()
	v := a.data[r][i]
	a.mus[r].Unlock()
	return v
}

// RPut asynchronously copies vals into dst's block at off. onRemote (may
// be nil) runs when the data is remotely visible — UPC++'s remote
// completion. The source is captured eagerly (source completion is
// immediate).
func (r *Rank) RPut(a *SharedArray, dst, off int, vals []float64, onRemote func()) {
	cp := make([]float64, len(vals))
	copy(cp, vals)
	r.rput(dst, 8*len(cp), func() {
		a.update(dst, func(loc []float64) { copy(loc[off:], cp) })
	}, onRemote)
}

// RPutSignal is RPut with a signal: the same single transfer, on arrival,
// writes vals into dst's block of a at off and then stores sigVal into
// dst's element sigOff of sig (UPC++'s rput with remote_cx::as_rpc,
// OpenSHMEM's put-with-signal). A rank that sees the signal word — via
// WhenAtLeast or Peek — sees the payload, with no second, chained rput.
// As in UPC++ when only remote completion is requested, the initiator
// gets no completion of its own; Quiet and Barrier still cover it.
func (r *Rank) RPutSignal(a *SharedArray, dst, off int, vals []float64, sig *SharedArray, sigOff int, sigVal float64) {
	cp := make([]float64, len(vals))
	copy(cp, vals)
	r.rput(dst, 8*len(cp)+8, func() {
		a.update(dst, func(loc []float64) { copy(loc[off:], cp) })
		sig.update(dst, func(loc []float64) { loc[sigOff] = sigVal })
	}, nil)
}

// rput issues one one-sided transfer toward dst; onRemote (may be nil)
// runs after apply, and the rank's pending count covers both.
func (r *Rank) rput(dst, bytes int, apply, onRemote func()) {
	r.pending.Add(1)
	r.w.tr.Put(r.id, dst, bytes, apply, func() {
		if onRemote != nil {
			onRemote()
		}
		r.pending.Done()
	})
}

// RGet asynchronously copies n elements from src's block at off and
// delivers them to cb — UPC++'s operation completion.
func (r *Rank) RGet(a *SharedArray, src, off, n int, cb func([]float64)) {
	out := make([]float64, n)
	r.pending.Add(1)
	r.w.tr.Get(r.id, src, 8*n, func() {
		a.mus[src].Lock()
		copy(out, a.data[src][off:off+n])
		a.mus[src].Unlock()
	}, func() {
		cb(out)
		r.pending.Done()
	})
}

// RPC enqueues fn to execute on rank dst the next time dst calls Progress
// (upcxx::rpc with the master persona). onDone (may be nil) runs — on an
// arbitrary goroutine — after fn returns, modelling the round-trip
// acknowledgement future.
func (r *Rank) RPC(dst int, fn func(target *Rank), onDone func()) {
	target := r.w.ranks[dst]
	r.pending.Add(1)
	// The request travels as a 64-byte control message; the acknowledgement
	// (when requested) as an 8-byte return transfer issued after fn runs.
	r.w.tr.Put(r.id, dst, 64, func() {
		target.rpcMu.Lock()
		target.rpcQ = append(target.rpcQ, func() {
			fn(target)
			if onDone != nil {
				r.w.tr.Put(dst, r.id, 8, nil, onDone)
			}
		})
		notify := target.rpcNotify
		target.rpcMu.Unlock()
		if notify != nil {
			notify()
		}
	}, r.pending.Done)
}

// Progress drains and executes this rank's pending RPCs, returning how
// many ran (upcxx::progress). Somebody on the rank must call Progress for
// inbound RPCs to execute — exactly the obligation the HiPER module
// discharges with a poller task.
func (r *Rank) Progress() int {
	r.rpcMu.Lock()
	q := r.rpcQ
	r.rpcQ = nil
	r.rpcMu.Unlock()
	for _, fn := range q {
		fn()
	}
	return len(q)
}

// PendingRPCs reports whether RPCs await Progress.
func (r *Rank) PendingRPCs() bool {
	r.rpcMu.Lock()
	defer r.rpcMu.Unlock()
	return len(r.rpcQ) > 0
}
