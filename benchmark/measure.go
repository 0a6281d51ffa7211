package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// warmupSolves run at the end of set-up, before anything is timed, so
// that heap growth and lazy initialisation are not charged to a solve.
const warmupSolves = 3

// minSolves is the fewest solves a timed pass makes however short its
// budget: solve_p80_ms needs 50 solves to have ten samples beyond it,
// which run_seconds is sized to give on every workload.
const minSolves = 5

// setUp generates the workload's inputs from seed, computes its oracle
// and warms up, returning the instance and how long all of that took.
func setUp(w *workload, seed int64) (*instance, time.Duration, error) {
	start := time.Now()
	inst, err := w.setup(seed, false)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	for i := 0; i < warmupSolves; i++ {
		if _, err := inst.solve(nil, 0); err != nil {
			return nil, 0, fmt.Errorf("%s: warm-up solve: %w", w.name, err)
		}
	}
	return inst, time.Since(start), nil
}

// pass is the raw record of one timed pass.
type pass struct {
	solveMs    []float64 // per attempted solve: its timed region
	cpuMs      []float64 // per attempted solve: process user+sys CPU over the whole call
	failed     int       // solves that erred or missed their oracle
	firstErr   error
	mallocs    uint64
	allocBytes uint64
	retained   int64 // live heap after the pass minus before, both after forced GCs
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces two collections (the second frees what the first's
// finalizers released) and returns the bytes of reachable heap objects.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// timedPass solves repeatedly, tracing off, until budget has elapsed
// (and at least solves times if solves > 0, exactly solves times if
// budget is 0). The load is closed-loop: one solve at a time.
func timedPass(inst *instance, budget time.Duration, solves int) pass {
	var p pass
	heapBefore := liveHeap()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for n := 0; n < solves || time.Since(start) < budget; n++ {
		cpu0 := cpuTime()
		out, err := inst.solve(nil, 0)
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = err
			}
		}
		p.solveMs = append(p.solveMs, ms(out.elapsed))
		p.cpuMs = append(p.cpuMs, ms(cpuTime()-cpu0))
	}
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.retained = int64(liveHeap()) - int64(heapBefore)
	return p
}

const mb = 1 << 20

// endToEndValues turns a timed pass and the set-up time into the
// end-to-end metrics, keyed by name.
func endToEndValues(inst *instance, p pass, setup time.Duration) map[string]float64 {
	n := float64(len(p.solveMs))
	return map[string]float64{
		"work_per_s":                 inst.work / (median(p.solveMs) / 1000),
		"solve_p80_ms":               percentile(p.solveMs, 80),
		"cpu_ms_per_solve":           median(p.cpuMs),
		"allocs_per_solve":           float64(p.mallocs) / n,
		"alloc_mb_per_solve":         float64(p.allocBytes) / mb / n,
		"heap_retained_mb_per_solve": float64(p.retained) / mb / n,
		"setup_s":                    setup.Seconds(),
	}
}
