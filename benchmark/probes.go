package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/deque"
	"repro/internal/fabric"
	"repro/internal/hiperckpt"
	"repro/internal/hipermpi"
	"repro/internal/hipershmem"
	"repro/internal/hiperupcxx"
	"repro/internal/job"
	"repro/internal/modules"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/shmem"
	"repro/internal/trace"
	"repro/internal/upcxx"
)

// Layer probes: each times calls into one layer's public functions, from
// outside, at a fixed operation count. They do not depend on the
// workload; every traced run makes all of them, and README.md says which
// workload's end-to-end metrics each is expected to move.

// probeReps is how often a timing probe repeats; it reports the median.
const probeReps = 5

// prober collects probe results and the first error a probe hit.
type prober struct {
	out map[string]float64
	err error
}

func (p *prober) fail(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// launch runs fn as the root task of rt.
func (p *prober) launch(rt *core.Runtime, fn func(*core.Ctx)) { p.fail(rt.Launch(fn)) }

// newRuntime builds a default 2-worker runtime with the given options.
func (p *prober) newRuntime(opts *core.Options) *core.Runtime {
	rt, err := core.New(platform.Default(workers), opts)
	if err != nil {
		p.fail(err)
		return core.NewDefault(workers)
	}
	return rt
}

// repeat returns the median of probeReps calls of fn.
func repeat(fn func() float64) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

// perOp is d spread over ops operations, in nanoseconds.
func perOp(d time.Duration, ops int) float64 { return float64(d) / float64(ops) }

// mallocsDuring counts the heap allocations made while fn runs.
func mallocsDuring(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

func runProbes() (map[string]float64, error) {
	p := &prober{out: make(map[string]float64)}
	for _, probe := range []func(){
		p.deque, p.core, p.fabricLadder, p.fabricLossy, p.fabricBulk,
		p.shmem, p.asyncWhen, p.upcxx, p.mpi, p.ckpt, p.jobBoot,
	} {
		runtime.GC() // keep one probe's garbage out of the next one's window
		probe()
	}
	return p.out, p.err
}

// ---- deque ----

func (p *prober) deque() {
	const ops = 1 << 16
	d := deque.New[int]()
	v := new(int)
	p.out["deque.push_pop_ns"] = repeat(func() float64 {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			d.PushBottom(v)
			d.PopBottom()
		}
		return perOp(time.Since(t0), ops)
	})
	p.out["deque.steal_ns"] = repeat(func() float64 {
		for i := 0; i < ops; i++ {
			d.PushBottom(v)
		}
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			d.Steal()
		}
		return perOp(time.Since(t0), ops)
	})
}

// ---- core ----

// spawnNs is the per-task cost of the steady-state spawn→run→retire
// cycle: Finish{64 × Async(noop)} batches, the shape of a fine-grained
// taskified library call.
func (p *prober) spawnNs(rt *core.Runtime) float64 {
	const batch = 64
	var elapsed time.Duration
	p.launch(rt, func(c *core.Ctx) {
		t0 := time.Now()
		for done := 0; done < spawnOps; done += batch {
			c.Finish(func(c *core.Ctx) {
				for i := 0; i < batch; i++ {
					c.Async(func(*core.Ctx) {})
				}
			})
		}
		elapsed = time.Since(t0)
	})
	return perOp(elapsed, spawnOps)
}

// spawnOps is how many tasks one spawnNs call spawns.
const spawnOps = 1 << 15

func (p *prober) core() {
	const ops = 1 << 14
	rt := p.newRuntime(nil)
	defer rt.Shutdown()
	before := rt.Stats()

	p.out["core.spawn_ns"] = repeat(func() float64 { return p.spawnNs(rt) })
	p.out["core.spawn_allocs"] = mallocsDuring(func() { p.spawnNs(rt) }) / spawnOps

	// timed runs body ops times inside one root task.
	timed := func(ops int, body func(c *core.Ctx)) float64 {
		return repeat(func() float64 {
			var elapsed time.Duration
			p.launch(rt, func(c *core.Ctx) {
				t0 := time.Now()
				for i := 0; i < ops; i++ {
					body(c)
				}
				elapsed = time.Since(t0)
			})
			return perOp(elapsed, ops)
		})
	}
	p.out["core.future_roundtrip_ns"] = timed(ops, func(c *core.Ctx) {
		c.Get(c.AsyncFuture(func(*core.Ctx) any { return nil }))
	})
	// The ForasyncSync of two chunks UTS issues per batch.
	p.out["core.forasync_ns"] = timed(ops, func(c *core.Ctx) {
		c.ForasyncSync(core.Range{Lo: 0, Hi: workers, Grain: 1}, func(*core.Ctx, int) {})
	})

	// A Get on a future that something outside the pool satisfies later:
	// the suspend / substitute / wake path every taskified blocking
	// library call takes.
	const blockedOps = 1 << 11
	subsBefore := rt.Stats().Substitutions
	p.out["core.blocked_get_ns"] = timed(blockedOps, func(c *core.Ctx) {
		done := core.NewPromise(rt)
		go done.Put(nil)
		c.Wait(done.Future())
	})
	after := rt.Stats()
	ktasks := float64(after.TasksExecuted-before.TasksExecuted) / 1000
	p.out["core.steals_per_ktask"] = float64(after.Steals-before.Steals) / ktasks
	p.out["core.parks_per_ktask"] = float64(after.Parks-before.Parks) / ktasks
	p.out["core.substitutions_per_kwait"] = float64(after.Substitutions-subsBefore) / (probeReps * blockedOps / 1000.0)

	// The same spawn loop through the policy seam and with tracing armed.
	seam := p.newRuntime(&core.Options{Policy: policy.RandomSteal})
	p.out["policy.seam_ratio"] = repeat(func() float64 { return p.spawnNs(seam) }) / p.out["core.spawn_ns"]
	seam.Shutdown()
	traced := p.newRuntime(&core.Options{Trace: &trace.Config{}})
	p.out["trace.spawn_on_ratio"] = repeat(func() float64 { return p.spawnNs(traced) }) / p.out["core.spawn_ns"]
	traced.Shutdown()
}

// ---- fabric ----

// pingPong makes ops round trips of a 64-byte payload between endpoints
// 0 and 1 of tr and returns the elapsed time.
func pingPong(tr fabric.Transport, ops int) time.Duration {
	payload := make([]byte, 64)
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for i := 0; i < ops; i++ {
			m := tr.Recv(1, 0, 1)
			tr.Send(1, 0, 2, m.Data)
		}
	}()
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		tr.Send(0, 1, 1, payload)
		tr.Recv(0, 1, 2)
	}
	<-echoed
	return time.Since(t0)
}

// fabricLadder measures the same ping-pong up the transport wrapper
// stack, so each wrapper's marginal cost is the difference of two rows.
func (p *prober) fabricLadder() {
	const ops = 2000
	sim0 := func() fabric.Transport { return fabric.NewSim(2, fabric.CostModel{}) }
	chaos0 := func() fabric.Transport { return fabric.NewChaos(sim0(), fabric.FaultPlan{}) }
	reliable := func() fabric.Transport { return fabric.NewReliable(chaos0(), supervisedRel()) }
	for _, rung := range []struct {
		name string
		tr   fabric.Transport
	}{
		{"inline", fabric.NewInline(2)},
		{"sim0", sim0()},
		{"chaos0", chaos0()},
		{"reliable", reliable()},
		{"virtual", fabric.NewVirtual(reliable(), fabric.NewEpochTable(2, 2))},
	} {
		tr := rung.tr
		p.out["fabric."+rung.name+".pingpong_ns"] = repeat(func() float64 { return perOp(pingPong(tr, ops), ops) })
		p.out["fabric."+rung.name+".pingpong_allocs"] = mallocsDuring(func() { pingPong(tr, ops) }) / ops
	}
}

// fabricLossy repeats the Reliable rung at the supervised workload's 5 %
// drop + 5 % duplication.
func (p *prober) fabricLossy() {
	const ops = 2000
	chaos := fabric.NewChaos(fabric.NewSim(2, fabric.CostModel{}), fabric.FaultPlan{Seed: 42, Drop: 0.05, Dup: 0.05})
	rel := fabric.NewReliable(chaos, supervisedRel())
	msgs := float64(2 * ops)
	p.out["fabric.reliable.lossy_ns_per_msg"] = float64(pingPong(rel, ops)) / msgs
	p.out["fabric.reliable.retransmits_per_kmsg"] = float64(rel.Retries()) / msgs * 1000
	p.out["fabric.chaos.drops_per_kmsg"] = float64(chaos.Drops()) / msgs * 1000
}

// fabricBulk times 1 MiB puts in a 4-rank all-to-all on the modelled
// network, the transfer ISx's exchange is made of, against what the cost
// model alone says a transfer takes.
func (p *prober) fabricBulk() {
	const bytes, rounds = 1 << 20, 20
	tr := fabric.NewSim(ranks, network())
	var mu sync.Mutex
	var us []float64
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for src := 0; src < ranks; src++ {
			for dst := 0; dst < ranks; dst++ {
				if src == dst {
					continue
				}
				wg.Add(1)
				start := time.Now()
				tr.Put(src, dst, bytes, nil, func() {
					d := time.Since(start)
					mu.Lock()
					us = append(us, float64(d)/float64(time.Microsecond))
					mu.Unlock()
					wg.Done()
				})
			}
		}
		wg.Wait()
	}
	model := float64(network().DelayBetween(0, 1, bytes)) / float64(time.Microsecond)
	p.out["fabric.sim.bulk_put_us"] = median(us)
	p.out["fabric.sim.bulk_model_ratio"] = median(us) / model
}

// ---- shmem / hipershmem ----

func (p *prober) shmem() {
	// Bulk byte puts on a free network: the layer's own copy and
	// bookkeeping cost, with no modelled delay in it.
	const kb, bulkOps = 64, 2000
	w := shmem.NewWorld(2, fabric.CostModel{})
	pe := w.PE(0)
	bytes := w.AllocBytes(kb << 10)
	buf := make([]byte, kb<<10)
	p.out["shmem.putmem_ns_per_kb"] = repeat(func() float64 {
		t0 := time.Now()
		for i := 0; i < bulkOps; i++ {
			pe.PutBytes(bytes, 1, 0, buf)
		}
		pe.Quiet()
		return perOp(time.Since(t0), bulkOps*kb)
	})

	const putOps = 1 << 16
	arr := w.AllocInt64(1)
	p.out["shmem.put_ns"] = repeat(func() float64 {
		t0 := time.Now()
		for i := 0; i < putOps; i++ {
			pe.PutValue(arr, 1, 0, int64(i))
		}
		pe.Quiet()
		return perOp(time.Since(t0), putOps)
	})
	rt := p.newRuntime(nil)
	m := hipershmem.New(pe, nil)
	p.fail(modules.Install(rt, m))
	p.out["hipershmem.put_taskify_ns"] = repeat(func() float64 {
		var elapsed time.Duration
		p.launch(rt, func(c *core.Ctx) {
			t0 := time.Now()
			for i := 0; i < putOps; i++ {
				m.PutValue(c, arr, 1, 0, int64(i))
			}
			elapsed = time.Since(t0)
		})
		pe.Quiet()
		return perOp(elapsed, putOps)
	})
	rt.Shutdown()

	// Barrier latency on the modelled network, all four PEs arriving.
	const barriers = 200
	net := shmem.NewWorld(ranks, network())
	p.out["shmem.barrier_us"] = repeat(func() float64 {
		var wg sync.WaitGroup
		t0 := time.Now()
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(pe *shmem.PE) {
				defer wg.Done()
				for i := 0; i < barriers; i++ {
					pe.BarrierAll()
				}
			}(net.PE(r))
		}
		wg.Wait()
		return perOp(time.Since(t0), barriers) / 1000
	})
}

// asyncWhen measures shmem_async_when's reaction time: from a remote
// PutValue that makes the condition true to the start of the handler
// body. On a free network the put lands at once, so what is left is the
// pending-list poller's latency.
func (p *prober) asyncWhen() {
	const ops = 300
	w := shmem.NewWorld(2, fabric.CostModel{})
	flag, ack := w.AllocInt64(1), w.AllocInt64(1)
	mods := make([]*hipershmem.Module, 2)
	base := time.Now()
	var sentNs atomic.Int64
	us := make([]float64, 0, ops)
	err := job.Run(job.Spec{Ranks: 2, WorkersPerRank: workers},
		func(pr *job.Proc) error {
			mods[pr.Rank] = hipershmem.New(w.PE(pr.Rank), nil)
			return modules.Install(pr.RT, mods[pr.Rank])
		},
		func(pr *job.Proc, c *core.Ctx) {
			m := mods[pr.Rank]
			if pr.Rank == 0 {
				// Put round i once round i-1 is acknowledged: by then the
				// handler has re-armed itself for round i.
				for i := int64(1); i <= ops; i++ {
					m.WaitUntil(c, ack, 0, shmem.CmpGE, i-1)
					sentNs.Store(int64(time.Since(base)))
					m.PutValue(c, flag, 1, 0, i)
				}
				m.WaitUntil(c, ack, 0, shmem.CmpGE, ops)
				return
			}
			var arm func(c *core.Ctx, round int64)
			arm = func(c *core.Ctx, round int64) {
				m.AsyncWhen(c, flag, 0, shmem.CmpGE, round, func(hc *core.Ctx) {
					us = append(us, float64(int64(time.Since(base))-sentNs.Load())/1000)
					if round < ops {
						arm(hc, round+1)
					}
					m.PutValue(hc, ack, 0, 0, round)
				})
			}
			arm(c, 1)
		})
	p.fail(err)
	// Round 1 can be put before the handler is armed; it then measures
	// rank 1's start-up, not the poller.
	if len(us) > 1 {
		us = us[1:]
	}
	p.out["hipershmem.async_when_us"] = median(us)
}

// ---- upcxx / mpi and their HiPER modules: direct call vs taskified ----

func (p *prober) upcxx() {
	const ops, floats = 1 << 14, 1024 // one fine-level HPGMG halo plane
	w := upcxx.NewWorld(2, fabric.CostModel{})
	arr := w.AllocShared(floats)
	vals := make([]float64, floats)
	rank := w.Rank(0)
	p.out["upcxx.rput_ns"] = repeat(func() float64 {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			rank.RPut(arr, 1, 0, vals, nil)
		}
		rank.Quiet()
		return perOp(time.Since(t0), ops)
	})
	rt := p.newRuntime(nil)
	defer rt.Shutdown()
	m := hiperupcxx.New(rank, nil)
	p.fail(modules.Install(rt, m))
	p.out["hiperupcxx.rput_taskify_ns"] = repeat(func() float64 {
		var elapsed time.Duration
		p.launch(rt, func(c *core.Ctx) {
			t0 := time.Now()
			for i := 0; i < ops; i++ {
				c.Wait(m.RPut(c, arr, 1, 0, vals))
			}
			elapsed = time.Since(t0)
		})
		return perOp(elapsed, ops)
	})
}

func (p *prober) mpi() {
	// A 64-byte message to self on a free network, so neither side needs
	// a partner goroutine: the direct blocking pair, then the module's
	// Isend/Irecv futures completed by its pending-list poller.
	const ops, tag = 1 << 13, 7
	comm := mpi.NewWorld(1, fabric.CostModel{}).Comm(0)
	sbuf, rbuf := make([]byte, 64), make([]byte, 64)
	p.out["mpi.sendrecv_ns"] = repeat(func() float64 {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			comm.Send(sbuf, 0, tag)
			comm.Recv(rbuf, 0, tag)
		}
		return perOp(time.Since(t0), ops)
	})
	rt := p.newRuntime(nil)
	m := hipermpi.New(comm, nil)
	p.fail(modules.Install(rt, m))
	p.out["hipermpi.isend_irecv_taskify_ns"] = repeat(func() float64 {
		var elapsed time.Duration
		p.launch(rt, func(c *core.Ctx) {
			t0 := time.Now()
			for i := 0; i < ops; i++ {
				recv := m.Irecv(c, rbuf, 0, tag)
				send := m.Isend(c, sbuf, 0, tag)
				c.Wait(send)
				c.Wait(recv)
			}
			elapsed = time.Since(t0)
		})
		return perOp(elapsed, ops)
	})
	rt.Shutdown()

	// HPGMG's per-cycle reduction: 8 bytes over 4 ranks on the modelled
	// network, inside a 4 × 2 job.
	const reductions = 100
	world := mpi.NewWorld(ranks, network())
	mods := make([]*hipermpi.Module, ranks)
	p.out["hipermpi.allreduce_us"] = repeat(func() float64 {
		start := time.Now()
		err := job.Run(job.Spec{Ranks: ranks, WorkersPerRank: workers, OnStart: func() { start = time.Now() }},
			func(pr *job.Proc) error {
				mods[pr.Rank] = hipermpi.New(world.Comm(pr.Rank), nil)
				return modules.Install(pr.RT, mods[pr.Rank])
			},
			func(pr *job.Proc, c *core.Ctx) {
				recv := make([]byte, 8)
				contrib := mpi.EncodeFloat64s([]float64{float64(pr.Rank)})
				for i := 0; i < reductions; i++ {
					mods[pr.Rank].Allreduce(c, recv, contrib, mpi.SumFloat64)
				}
			})
		elapsed := time.Since(start)
		p.fail(err)
		return perOp(elapsed, reductions) / 1000
	})
}

// ---- hiperckpt / job ----

func (p *prober) ckpt() {
	const ops, floats = 500, 8192 // 64 KiB blobs
	model, err := platform.Generate(platform.MachineSpec{Sockets: 1, CoresPerSocket: workers, NVM: true, Interconnect: true})
	if err != nil {
		p.fail(err)
		return
	}
	rt, err := core.New(model, nil)
	if err != nil {
		p.fail(err)
		return
	}
	defer rt.Shutdown()
	m := hiperckpt.New(hiperckpt.NewStore(hiperckpt.StoreConfig{}))
	p.fail(modules.Install(rt, m))
	data := make([]float64, floats)
	var write, read time.Duration
	p.launch(rt, func(c *core.Ctx) {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			c.Wait(m.CheckpointAsync(c, "probe", data))
		}
		write = time.Since(t0)
		t0 = time.Now()
		for i := 0; i < ops; i++ {
			if _, ok := m.Restore(c, "probe"); !ok {
				c.Fail(fmt.Errorf("hiperckpt probe: checkpoint missing"))
				return
			}
		}
		read = time.Since(t0)
	})
	p.out["hiperckpt.checkpoint_us"] = perOp(write, ops) / 1000
	p.out["hiperckpt.restore_us"] = perOp(read, ops) / 1000
}

// jobBoot is what a solve pays before its timed region starts and after
// it ends: booting and shutting down a 4 × 2 job around an empty body.
func (p *prober) jobBoot() {
	p.out["job.boot_ms"] = repeat(func() float64 {
		t0 := time.Now()
		p.fail(job.Run(job.Spec{Ranks: ranks, WorkersPerRank: workers}, nil, func(*job.Proc, *core.Ctx) {}))
		return ms(time.Since(t0))
	})
}
