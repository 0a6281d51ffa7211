package hiperupcxx

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/modules"
	"repro/internal/platform"
	"repro/internal/simnet"
	"repro/internal/upcxx"
)

// job boots one runtime + module per rank and runs fn per rank.
func job(t testing.TB, ranks, workers int, cost simnet.CostModel,
	fn func(c *core.Ctx, m *Module, w *upcxx.World)) {
	t.Helper()
	world := upcxx.NewWorld(ranks, cost)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		rt, err := core.New(platform.Default(workers), nil)
		if err != nil {
			t.Fatal(err)
		}
		m := New(world.Rank(r), nil)
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

func TestInitRequiresInterconnect(t *testing.T) {
	mdl := platform.NewModel()
	mem := mdl.AddPlace("sysmem0", platform.KindSysMem)
	mdl.AddWorker([]int{mem.ID}, []int{mem.ID})
	rt, err := core.New(mdl, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	w := upcxx.NewWorld(1, simnet.CostModel{})
	if err := modules.Install(rt, New(w.Rank(0), nil)); err == nil {
		t.Fatal("Init must fail without an interconnect place")
	}
}

func TestRPutFuture(t *testing.T) {
	var arr *upcxx.SharedArray
	var once sync.Once
	job(t, 2, 2, simnet.CostModel{Alpha: time.Millisecond}, func(c *core.Ctx, m *Module, w *upcxx.World) {
		once.Do(func() { arr = w.AllocShared(4) })
		m.Barrier(c)
		if m.ID() == 0 {
			f := m.RPut(c, arr, 1, 1, []float64{3.5, 4.5})
			c.Wait(f)
			if arr.Local(1)[1] != 3.5 {
				t.Error("rput future satisfied before remote completion")
			}
		}
		m.Barrier(c)
		if m.ID() == 1 && (arr.Local(1)[1] != 3.5 || arr.Local(1)[2] != 4.5) {
			t.Errorf("target block = %v", arr.Local(1)[:4])
		}
	})
}

func TestRGetFutureValue(t *testing.T) {
	var arr *upcxx.SharedArray
	var once sync.Once
	job(t, 2, 2, simnet.CostModel{}, func(c *core.Ctx, m *Module, w *upcxx.World) {
		once.Do(func() {
			arr = w.AllocShared(4)
			copy(arr.Local(0), []float64{1, 2, 3, 4})
		})
		m.Barrier(c)
		if m.ID() == 1 {
			got := c.Get(m.RGet(c, arr, 0, 1, 2)).([]float64)
			if got[0] != 2 || got[1] != 3 {
				t.Errorf("rget = %v", got)
			}
		}
		m.Barrier(c)
	})
}

func TestRPCExecutedByProgressPoller(t *testing.T) {
	// The key property: the target rank never calls Progress explicitly —
	// the module's poller discharges the progress obligation.
	var hit atomic.Int64
	job(t, 2, 2, simnet.CostModel{Alpha: time.Millisecond}, func(c *core.Ctx, m *Module, w *upcxx.World) {
		m.Barrier(c)
		if m.ID() == 0 {
			f := m.RPC(c, 1, func(target *upcxx.Rank) {
				if target.ID() != 1 {
					t.Error("rpc on wrong rank")
				}
				hit.Add(1)
			})
			c.Wait(f)
			if hit.Load() != 1 {
				t.Error("rpc future satisfied before execution")
			}
		}
		m.Barrier(c)
	})
	if hit.Load() != 1 {
		t.Fatalf("rpc executed %d times", hit.Load())
	}
}

func TestRPutAwaitChain(t *testing.T) {
	var arr *upcxx.SharedArray
	var once sync.Once
	job(t, 2, 2, simnet.CostModel{Alpha: time.Millisecond}, func(c *core.Ctx, m *Module, w *upcxx.World) {
		once.Do(func() { arr = w.AllocShared(2) })
		m.Barrier(c)
		if m.ID() == 0 {
			data := []float64{0}
			compute := c.AsyncFuture(func(*core.Ctx) any {
				time.Sleep(2 * time.Millisecond)
				data[0] = 77
				return nil
			})
			c.Wait(m.RPutAwait(c, arr, 1, 0, data, compute))
		}
		m.Barrier(c)
		if m.ID() == 1 && arr.Local(1)[0] != 77 {
			t.Errorf("RPutAwait wrote %v before dependency", arr.Local(1)[0])
		}
	})
}

func TestManyRPCsBothDirections(t *testing.T) {
	var count atomic.Int64
	job(t, 4, 2, simnet.CostModel{Alpha: 500 * time.Microsecond}, func(c *core.Ctx, m *Module, w *upcxx.World) {
		m.Barrier(c)
		futs := make([]*core.Future, 0, 12)
		for dst := 0; dst < 4; dst++ {
			if dst == m.ID() {
				continue
			}
			futs = append(futs, m.RPC(c, dst, func(*upcxx.Rank) { count.Add(1) }))
		}
		c.Wait(core.WhenAll(c.Runtime(), futs...))
		m.Barrier(c)
	})
	if count.Load() != 12 {
		t.Fatalf("rpcs executed = %d, want 12", count.Load())
	}
}

// TestRPutSignalHaloProtocol runs HPGMG's exchange shape between two
// single-worker ranks: each round a rank RPutSignals a plane with the
// round's sequence number at its peer and Waits on the SignalFuture for
// the peer's. The wait is satisfied by the delivery — there is one worker
// and no poller — and when it returns the plane must be in place (read
// through Local with no lock, so -race checks the ordering too).
func TestRPutSignalHaloProtocol(t *testing.T) {
	const rounds, width = 300, 64
	var planes, sigs *upcxx.SharedArray
	var once sync.Once
	job(t, 2, 1, simnet.CostModel{Alpha: 20 * time.Microsecond}, func(c *core.Ctx, m *Module, w *upcxx.World) {
		once.Do(func() {
			planes = w.AllocShared(2 * width) // two parities
			sigs = w.AllocShared(2)
		})
		m.Barrier(c)
		me, peer := m.ID(), 1-m.ID()
		vals := make([]float64, width)
		for k := 0; k < rounds; k++ {
			par := k % 2
			for i := range vals {
				vals[i] = float64(1000*k + me)
			}
			m.RPutSignal(c, planes, peer, par*width, vals, sigs, par, float64(k+1))
			c.Wait(m.SignalFuture(sigs, par, float64(k+1)))
			for i, v := range planes.Local(me)[par*width : (par+1)*width] {
				if v != float64(1000*k+peer) {
					t.Errorf("rank %d round %d: plane[%d] = %v when the signal future was satisfied", me, k, i, v)
					return
				}
			}
		}
		m.Barrier(c)
	})
}
