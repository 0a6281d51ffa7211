// Package hipershmem is the HiPER OpenSHMEM module ("AsyncSHMEM").
//
// OpenSHMEM v1.3 makes no guarantees about thread safety; scheduling all
// SHMEM calls as tasks on the HiPER runtime makes multi-threaded use safe
// and standard-compliant. Round-trip APIs (Get, atomics) are taskified at
// the Interconnect place; one-sided puts complete locally and are issued
// inline.
//
// The module also adds the paper's novel API, AsyncWhen (shmem_async_when):
// where the specification's wait APIs block a thread until a remote put
// changes local memory, AsyncWhen predicates a task's execution on the
// condition instead — the exact mechanism the paper's Graph500
// implementation uses to eliminate application-level polling loops. The
// condition is a watcher on the symmetric array: the delivery of the put
// that makes it true releases the task, so nothing polls.
package hipershmem

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/shmem"
	"repro/internal/stats"
)

// ModuleName is the name this module registers under.
const ModuleName = "shmem"

// Options tunes module behaviour. It has no fields: it remains so that
// New keeps its signature for existing callers.
type Options struct{}

// Module is the AsyncSHMEM module bound to one PE.
type Module struct {
	pe *shmem.PE

	rt  *core.Runtime
	nic *platform.Place
}

// New creates the module for one PE.
func New(pe *shmem.PE, _ *Options) *Module {
	return &Module{pe: pe}
}

// Name implements modules.Module.
func (m *Module) Name() string { return ModuleName }

// Init asserts that an Interconnect place exists and is covered.
func (m *Module) Init(rt *core.Runtime) error {
	nic := rt.Model().FirstByKind(platform.KindInterconnect)
	if nic == nil {
		return fmt.Errorf("hipershmem: platform model has no %q place", platform.KindInterconnect)
	}
	if !rt.Model().CoveredPlaces()[nic.ID] {
		return fmt.Errorf("hipershmem: interconnect place %v is on no worker's pop or steal path", nic)
	}
	m.rt = rt
	m.nic = nic
	return nil
}

// Finalize implements modules.Module.
func (m *Module) Finalize() {}

// PE returns the wrapped processing element.
func (m *Module) PE() *shmem.PE { return m.pe }

// Rank returns the caller's PE number.
func (m *Module) Rank() int { return m.pe.Rank() }

// Size returns the job size.
func (m *Module) Size() int { return m.pe.Size() }

// taskify runs fn at the Interconnect place, descheduling the caller. The
// underlying call may block (a contended lock, a wait-until), so the NIC
// task shunts it onto a proxy goroutine and waits on its future; worker
// substitution keeps the Interconnect place serviced meanwhile (see the
// MPI module's taskify for the full rationale).
func (m *Module) taskify(c *core.Ctx, api string, fn func()) {
	defer stats.Track(ModuleName, api)()
	f := c.AsyncFutureAt(m.nic, func(cc *core.Ctx) any {
		done := core.NewPromise(m.rt)
		go func() {
			fn()
			done.Put(nil)
		}()
		cc.Wait(done.Future())
		return nil
	})
	c.Wait(f)
}

// Put issues shmem_put64 inline (it completes locally; remote delivery is
// asynchronous, to be fenced with Quiet or BarrierAll).
func (m *Module) Put(c *core.Ctx, a *shmem.Int64Array, dst, off int, vals []int64) {
	defer stats.Track(ModuleName, "shmem_put")()
	m.pe.Put(a, dst, off, vals)
}

// PutValue issues shmem_int64_p inline.
func (m *Module) PutValue(c *core.Ctx, a *shmem.Int64Array, dst, off int, val int64) {
	defer stats.Track(ModuleName, "shmem_p")()
	m.pe.PutValue(a, dst, off, val)
}

// PutBytes issues a bulk byte put inline.
func (m *Module) PutBytes(c *core.Ctx, a *shmem.ByteArray, dst, off int, vals []byte) {
	defer stats.Track(ModuleName, "shmem_putmem")()
	m.pe.PutBytes(a, dst, off, vals)
}

// Add issues a non-fetching atomic add inline.
func (m *Module) Add(c *core.Ctx, a *shmem.Int64Array, dst, off int, delta int64) {
	defer stats.Track(ModuleName, "shmem_atomic_add")()
	m.pe.Add(a, dst, off, delta)
}

// Get is taskified shmem_get64 (a blocking round trip). The transfer is
// reported to the scheduling policy as in-flight link work for its
// duration.
func (m *Module) Get(c *core.Ctx, a *shmem.Int64Array, src, off, n int) []int64 {
	var out []int64
	cost := float64(8*n) / 1024
	m.rt.HintInFlight(m.nic, cost)
	m.taskify(c, "shmem_get", func() { out = m.pe.Get(a, src, off, n) })
	m.rt.HintInFlight(m.nic, -cost)
	return out
}

// GetBytes is taskified bulk byte get.
func (m *Module) GetBytes(c *core.Ctx, a *shmem.ByteArray, src, off, n int) []byte {
	var out []byte
	cost := float64(n) / 1024
	m.rt.HintInFlight(m.nic, cost)
	m.taskify(c, "shmem_getmem", func() { out = m.pe.GetBytes(a, src, off, n) })
	m.rt.HintInFlight(m.nic, -cost)
	return out
}

// FetchAdd is taskified shmem_int64_atomic_fetch_add.
func (m *Module) FetchAdd(c *core.Ctx, a *shmem.Int64Array, dst, off int, delta int64) int64 {
	var out int64
	m.taskify(c, "shmem_atomic_fetch_add", func() { out = m.pe.FetchAdd(a, dst, off, delta) })
	return out
}

// CompareSwap is taskified shmem_int64_atomic_compare_swap.
func (m *Module) CompareSwap(c *core.Ctx, a *shmem.Int64Array, dst, off int, cond, val int64) int64 {
	var out int64
	m.taskify(c, "shmem_atomic_compare_swap", func() { out = m.pe.CompareSwap(a, dst, off, cond, val) })
	return out
}

// GetFuture is an asynchronous get: it returns immediately with a future
// satisfied with the fetched []int64.
func (m *Module) GetFuture(c *core.Ctx, a *shmem.Int64Array, src, off, n int) *core.Future {
	return c.AsyncFutureAt(m.nic, func(*core.Ctx) any {
		//hiperlint:ignore blocking-in-task round trip runs at the dedicated NIC place, whose worker is the communication proxy and may block by design
		return m.pe.Get(a, src, off, n)
	})
}

// FetchAddFuture is an asynchronous fetch-add returning a future of int64.
func (m *Module) FetchAddFuture(c *core.Ctx, a *shmem.Int64Array, dst, off int, delta int64) *core.Future {
	return c.AsyncFutureAt(m.nic, func(*core.Ctx) any {
		//hiperlint:ignore blocking-in-task round trip runs at the dedicated NIC place, whose worker is the communication proxy and may block by design
		return m.pe.FetchAdd(a, dst, off, delta)
	})
}

// SetLock is taskified shmem_set_lock: the calling task is descheduled —
// not a worker blocked — while the (possibly contended) distributed lock
// is acquired.
func (m *Module) SetLock(c *core.Ctx, l *shmem.Lock) {
	m.taskify(c, "shmem_set_lock", func() { m.pe.SetLock(l) })
}

// ClearLock is taskified shmem_clear_lock.
func (m *Module) ClearLock(c *core.Ctx, l *shmem.Lock) {
	m.taskify(c, "shmem_clear_lock", func() { m.pe.ClearLock(l) })
}

// Quiet is taskified shmem_quiet.
func (m *Module) Quiet(c *core.Ctx) {
	m.taskify(c, "shmem_quiet", func() { m.pe.Quiet() })
}

// BarrierAll is shmem_barrier_all: the calling task is descheduled until
// every PE arrives. Arrival is asynchronous so the barrier never stalls a
// worker — other PEs' arrivals may depend on AsyncWhen handlers this
// PE's workers must run.
func (m *Module) BarrierAll(c *core.Ctx) {
	defer stats.Track(ModuleName, "shmem_barrier_all")()
	c.Wait(m.BarrierAllFuture(c))
}

// BarrierAllFuture is the nonblocking barrier: the returned future is
// satisfied when all PEs arrive (with this PE's outstanding puts quieted).
func (m *Module) BarrierAllFuture(c *core.Ctx) *core.Future {
	prom := core.NewPromise(m.rt)
	m.pe.BarrierAllAsync(func() { prom.Put(nil) })
	return prom.Future()
}

// Broadcast is taskified shmem_broadcast64.
func (m *Module) Broadcast(c *core.Ctx, dst, src *shmem.Int64Array, nelems, root int) {
	m.taskify(c, "shmem_broadcast", func() { m.pe.Broadcast(dst, src, nelems, root) })
}

// ToAll is taskified shmem reduction-to-all.
func (m *Module) ToAll(c *core.Ctx, dst, src *shmem.Int64Array, nelems int, kind shmem.ReduceKind) {
	m.taskify(c, "shmem_to_all", func() { m.pe.ToAll(dst, src, nelems, kind) })
}

// WaitUntil is the specification's blocking wait, taskified so the calling
// task is descheduled rather than a thread spun. Prefer AsyncWhen.
func (m *Module) WaitUntil(c *core.Ctx, a *shmem.Int64Array, off int, cmp shmem.Cmp, val int64) {
	c.Wait(m.WhenFuture(c, a, off, cmp, val))
}

// AsyncWhen is the paper's shmem_async_when: it makes body's execution
// predicated on the calling PE's local element at off satisfying cmp
// against val (typically made true by a remote put); the delivery of
// that put makes body eligible.
func (m *Module) AsyncWhen(c *core.Ctx, a *shmem.Int64Array, off int, cmp shmem.Cmp, val int64, body func(*core.Ctx)) {
	defer stats.Track(ModuleName, "shmem_async_when")()
	f := m.WhenFuture(c, a, off, cmp, val)
	c.AsyncAwait(body, f)
}

// WhenFuture returns a future satisfied — with the element's value — when
// the calling PE's local element at off satisfies cmp against val. The
// update that makes the condition true satisfies the future from the
// transport's delivery path.
func (m *Module) WhenFuture(c *core.Ctx, a *shmem.Int64Array, off int, cmp shmem.Cmp, val int64) *core.Future {
	prom := core.NewPromise(m.rt)
	a.When(m.pe.Rank(), off, cmp, val, func(cur int64) { prom.Put(cur) })
	return prom.Future()
}
