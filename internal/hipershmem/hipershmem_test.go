package hipershmem

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/hiper"
	"repro/internal/core"
	"repro/internal/modules"
	"repro/internal/platform"
	"repro/internal/shmem"
	"repro/internal/simnet"
)

// job boots one runtime + AsyncSHMEM module per PE and runs fn per PE.
func job(t testing.TB, pes, workers int, cost simnet.CostModel,
	fn func(c *core.Ctx, m *Module, w *shmem.World)) {
	t.Helper()
	world := shmem.NewWorld(pes, cost)
	var wg sync.WaitGroup
	for r := 0; r < pes; r++ {
		rt, err := core.New(platform.Default(workers), nil)
		if err != nil {
			t.Fatal(err)
		}
		m := New(world.PE(r), nil)
		modules.MustInstall(rt, m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Launch(func(c *core.Ctx) { fn(c, m, world) })
			rt.Shutdown()
		}()
	}
	wg.Wait()
}

// newRT builds an n-worker runtime through the public facade, the only
// default-model constructor since the deprecated shims were removed.
func newRT(t testing.TB, n int) *core.Runtime {
	t.Helper()
	rt, err := hiper.New(hiper.WithWorkers(n))
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestInitRequiresInterconnect(t *testing.T) {
	mdl := platform.NewModel()
	mem := mdl.AddPlace("sysmem0", platform.KindSysMem)
	mdl.AddWorker([]int{mem.ID}, []int{mem.ID})
	rt, err := core.New(mdl, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	w := shmem.NewWorld(1, simnet.CostModel{})
	if err := modules.Install(rt, New(w.PE(0), nil)); err == nil {
		t.Fatal("Init must fail without an interconnect place")
	}
}

func TestPutBarrierVisibility(t *testing.T) {
	const n = 4
	world := shmem.NewWorld(n, simnet.CostModel{Alpha: time.Millisecond})
	arr := world.AllocInt64(n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		rt := newRT(t, 2)
		m := New(world.PE(r), nil)
		modules.MustInstall(rt, m)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rt.Launch(func(c *core.Ctx) {
				for dst := 0; dst < n; dst++ {
					m.PutValue(c, arr, dst, r, int64(r+1))
				}
				m.BarrierAll(c)
				loc := arr.Local(r)
				for s := 0; s < n; s++ {
					if loc[s] != int64(s+1) {
						t.Errorf("PE %d slot %d = %d", r, s, loc[s])
					}
				}
			})
			rt.Shutdown()
		}(r)
	}
	wg.Wait()
}

func TestTaskifiedGetAndAtomics(t *testing.T) {
	const n = 3
	var arr *shmem.Int64Array
	var once sync.Once
	var counter atomic.Int64
	job(t, n, 2, simnet.CostModel{}, func(c *core.Ctx, m *Module, w *shmem.World) {
		once.Do(func() {
			arr = w.AllocInt64(8)
			copy(arr.Local(0), []int64{5, 6, 7, 8})
		})
		m.BarrierAll(c) // everyone sees the allocation
		got := m.Get(c, arr, 0, 1, 2)
		if got[0] != 6 || got[1] != 7 {
			t.Errorf("PE %d Get = %v", m.Rank(), got)
		}
		old := m.FetchAdd(c, arr, 0, 7, 1)
		counter.Add(1)
		_ = old
		m.BarrierAll(c)
		if m.Rank() == 0 && arr.Local(0)[7] != n {
			t.Errorf("fetchadd total = %d", arr.Local(0)[7])
		}
	})
	if counter.Load() != n {
		t.Fatal("not all PEs ran")
	}
}

func TestCompareSwapThroughModule(t *testing.T) {
	job(t, 2, 2, simnet.CostModel{}, func(c *core.Ctx, m *Module, w *shmem.World) {
		if m.Rank() != 0 {
			return
		}
		arr := w.AllocInt64(1)
		if old := m.CompareSwap(c, arr, 1, 0, 0, 9); old != 0 {
			t.Errorf("CAS old = %d", old)
		}
		if arr.Local(1)[0] != 9 {
			t.Error("CAS did not write")
		}
	})
}

func TestAsyncWhenFiresOnRemotePut(t *testing.T) {
	const n = 2
	world := shmem.NewWorld(n, simnet.CostModel{Alpha: time.Millisecond})
	arr := world.AllocInt64(1)
	var fired atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		rt := newRT(t, 2)
		m := New(world.PE(r), nil)
		modules.MustInstall(rt, m)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rt.Launch(func(c *core.Ctx) {
				if r == 1 {
					done := core.NewPromise(c.Runtime())
					// Predicate a task on the remote put: the paper's
					// shmem_async_when(mem_addr, wait_for_val, body).
					m.AsyncWhen(c, arr, 0, shmem.CmpEQ, 42, func(cc *core.Ctx) {
						if arr.Peek(1, 0) != 42 {
							t.Error("body ran before condition held")
						}
						fired.Store(true)
						cc.Put(done, nil)
					})
					c.Wait(done.Future())
				} else {
					time.Sleep(3 * time.Millisecond)
					m.PutValue(c, arr, 1, 0, 42)
				}
			})
			rt.Shutdown()
		}(r)
	}
	wg.Wait()
	if !fired.Load() {
		t.Fatal("AsyncWhen body never ran")
	}
}

func TestAsyncWhenAlreadySatisfied(t *testing.T) {
	job(t, 1, 2, simnet.CostModel{}, func(c *core.Ctx, m *Module, w *shmem.World) {
		arr := w.AllocInt64(1)
		arr.Local(0)[0] = 5
		var ran atomic.Bool
		done := core.NewPromise(c.Runtime())
		m.AsyncWhen(c, arr, 0, shmem.CmpGE, 5, func(cc *core.Ctx) {
			ran.Store(true)
			cc.Put(done, nil)
		})
		c.Wait(done.Future())
		if !ran.Load() {
			t.Error("pre-satisfied AsyncWhen never fired")
		}
	})
}

func TestWaitUntilDeschedulesNotBlocks(t *testing.T) {
	// With a single worker, a truly blocking wait would deadlock: the same
	// worker must also run other tasks to satisfy the condition.
	world := shmem.NewWorld(1, simnet.CostModel{})
	arr := world.AllocInt64(1)
	rt := newRT(t, 1)
	m := New(world.PE(0), nil)
	modules.MustInstall(rt, m)
	done := make(chan struct{})
	go func() {
		rt.Launch(func(c *core.Ctx) {
			c.Finish(func(c *core.Ctx) {
				c.Async(func(cc *core.Ctx) {
					m.WaitUntil(cc, arr, 0, shmem.CmpEQ, 1)
				})
				c.Async(func(cc *core.Ctx) {
					time.Sleep(2 * time.Millisecond)
					m.PE().PutValue(arr, 0, 0, 1)
				})
			})
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("WaitUntil blocked the only worker (no descheduling)")
	}
	rt.Shutdown()
}

// TestManyWhenConditionsOneWatchList arms many conditions on one PE's
// watch list at once; each future is satisfied by the delivery of its own
// remote put, with the value that satisfied it.
func TestManyWhenConditionsOneWatchList(t *testing.T) {
	const conds = 32
	job(t, 2, 2, simnet.CostModel{Alpha: time.Millisecond}, func(c *core.Ctx, m *Module, w *shmem.World) {
		arrOnce.Do(func() { sharedArr = w.AllocInt64(conds) })
		m.BarrierAll(c)
		if m.Rank() == 1 {
			futs := make([]*core.Future, conds)
			for i := 0; i < conds; i++ {
				futs[i] = m.WhenFuture(c, sharedArr, i, shmem.CmpEQ, int64(i+1))
			}
			c.Wait(core.WhenAll(c.Runtime(), futs...))
			for i := 0; i < conds; i++ {
				if got := c.Get(futs[i]); got != int64(i+1) {
					t.Errorf("cond %d satisfied with %v, want %d", i, got, i+1)
				}
				if sharedArr.Peek(1, i) != int64(i+1) {
					t.Errorf("cond %d fired early", i)
				}
			}
		} else {
			for i := 0; i < conds; i++ {
				m.PutValue(c, sharedArr, 1, i, int64(i+1))
			}
		}
		m.BarrierAll(c)
	})
}

var (
	arrOnce   sync.Once
	sharedArr *shmem.Int64Array
)

func TestBroadcastToAllThroughModule(t *testing.T) {
	const n = 4
	var setup sync.Once
	var src, dst, red *shmem.Int64Array
	job(t, n, 2, simnet.CostModel{}, func(c *core.Ctx, m *Module, w *shmem.World) {
		setup.Do(func() {
			src = w.AllocInt64(1)
			dst = w.AllocInt64(1)
			red = w.AllocInt64(1)
			src.Local(2)[0] = 31
		})
		m.BarrierAll(c)
		m.Broadcast(c, dst, src, 1, 2)
		if m.Rank() != 2 && dst.Local(m.Rank())[0] != 31 {
			t.Errorf("PE %d broadcast = %d", m.Rank(), dst.Local(m.Rank())[0])
		}
		src.Local(m.Rank())[0] = int64(m.Rank() + 1)
		m.BarrierAll(c)
		m.ToAll(c, red, src, 1, shmem.ReduceSum)
		if red.Local(m.Rank())[0] != n*(n+1)/2 {
			t.Errorf("PE %d sum = %d", m.Rank(), red.Local(m.Rank())[0])
		}
	})
}
