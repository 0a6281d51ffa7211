package main

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/fabric"
	"repro/internal/job"
	"repro/internal/workloads/graph500"
	"repro/internal/workloads/hpgmg"
	"repro/internal/workloads/isx"
	"repro/internal/workloads/uts"
)

// network is the cost model every workload runs under: a copy of the
// constants internal/bench.Network() uses (a Cray-Aries-like fabric), so
// the benchmark does not import internal/bench.
func network() fabric.CostModel {
	return fabric.CostModel{
		Alpha:          15 * time.Microsecond,
		BytesPerSec:    2e9,
		CongestWindow:  8,
		CongestPenalty: 150 * time.Microsecond,
	}
}

// Ranks × workers of every HiPER solve (the supervised run uses its own
// 3 × 1, as BENCH_supervise does).
const (
	ranks   = 4
	workers = 2
)

// outcome is what one solve reports back to the measuring loop.
type outcome struct {
	elapsed time.Duration        // the solve's timed region
	sup     *isx.SuperviseResult // supervised run only
}

// instance is one workload set up for one seed: inputs generated, oracle
// computed, ready to solve repeatedly.
type instance struct {
	work float64 // work units per solve
	info string  // what the seed produced, for the log
	// solve runs the HiPER variant once and checks it against the
	// oracle. With a recorder it also records the fabric spans it can
	// observe under root.
	solve func(rec *recorder, root int) (outcome, error)
	// ref runs the paper's plain baseline once; nil when there is none.
	ref func() (time.Duration, error)
}

type workload struct {
	name  string
	why   string
	unit  string // the work unit of work_per_s
	setup func(seed int64, tiny bool) (*instance, error)
}

var workloads = []workload{
	{
		name: "uts", unit: "tree nodes",
		why:   "irregular spawn/forasync/steal/termination traffic: core and deque do the work, the fabric carries sparse steals",
		setup: setupUTS,
	},
	{
		name: "isx", unit: "keys",
		why:   "one bulk all-to-all of large puts plus a local sort: shmem and the Sim bandwidth path; a core optimisation should not show",
		setup: setupISx,
	},
	{
		name: "hpgmg", unit: "fine-grid cell updates",
		why:   "many small halo RPut futures and an allreduce per cycle: latency-bound, taskify, pollers and suspend/wake dominate",
		setup: setupHPGMG,
	},
	{
		name: "graph500", unit: "input edges (TEPS)",
		why:   "fine-grained one-sided puts driving shmem_async_when handlers: the pending-list poller and small-message fabric path",
		setup: setupGraph500,
	},
	{
		name: "isx-supervised", unit: "committed keys",
		why:   "the same sort through Virtual(Reliable(Chaos(Sim))) with checkpoints, detector and Supervise under drops and kills",
		setup: setupSupervised,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// utsTarget is the tree size the uts workload aims for, and utsCandidates
// how many trees it tries per seed. A UTS tree's size is set by a few
// early coin flips (quartiles of 200 seeds: 495k / 519k / 546k nodes),
// and every per-solve metric scales with it, so each seed takes the
// candidate closest to the target: the cost is the same for every seed
// and the chosen tree lands within about 1 % of the target.
const (
	utsTarget     = 512 << 10
	utsCandidates = 12
)

func setupUTS(seed int64, tiny bool) (*instance, error) {
	tree := uts.TreeConfig{B0: 4, GenMax: 17}
	target, candidates := int64(utsTarget), utsCandidates
	if tiny {
		tree.GenMax, target, candidates = 8, 1200, 2
	}
	var nodes int64
	for i := 0; i < candidates; i++ {
		cand := tree
		cand.Seed = seed*int64(utsCandidates) + int64(i)
		n := uts.CountSequential(cand)
		if i == 0 || abs64(n-target) < abs64(nodes-target) {
			tree, nodes = cand, n
		}
	}
	cfg := uts.RunConfig{Tree: tree, Ranks: ranks, Threads: workers, Cost: network()}
	return &instance{
		work: float64(nodes),
		info: fmt.Sprintf("tree seed %d, %d nodes", tree.Seed, nodes),
		solve: func(*recorder, int) (outcome, error) {
			res, err := uts.RunHiPER(cfg)
			if err == nil && res.Nodes != nodes {
				err = fmt.Errorf("uts: counted %d nodes, oracle %d", res.Nodes, nodes)
			}
			return outcome{elapsed: res.Elapsed}, err
		},
		ref: func() (time.Duration, error) {
			res, err := uts.RunSHMEMOMP(cfg)
			return res.Elapsed, err
		},
	}, nil
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func setupISx(seed int64, tiny bool) (*instance, error) {
	cfg := isx.Config{PEs: ranks * workers, Threads: workers, KeysPerPE: 1 << 20, Cost: network(), Seed: seed}
	if tiny {
		cfg.KeysPerPE = 1 << 10
	}
	total := int64(cfg.PEs) * int64(cfg.KeysPerPE)
	return &instance{
		work: float64(total),
		info: fmt.Sprintf("%d keys", total),
		solve: func(*recorder, int) (outcome, error) {
			res, err := isx.RunHiPER(cfg)
			if err == nil && res.TotalKeys != total {
				err = fmt.Errorf("isx: sorted %d keys, want %d", res.TotalKeys, total)
			}
			return outcome{elapsed: res.Elapsed}, err
		},
		ref: func() (time.Duration, error) {
			res, err := isx.RunHybridOMP(cfg)
			return res.Elapsed, err
		},
	}, nil
}

// setupHPGMG takes no input from the seed: the solver's right-hand side
// is fixed by the grid, so every seed solves the same problem.
func setupHPGMG(_ int64, tiny bool) (*instance, error) {
	cfg := hpgmg.Config{N: 32, NZ: 16, Ranks: ranks, Workers: workers, Cycles: 12, Cost: network()}
	if tiny {
		cfg.N, cfg.NZ, cfg.Cycles = 8, 4, 2
	}
	oracle, err := hpgmg.RunReference(cfg)
	if err != nil {
		return nil, err
	}
	return &instance{
		work: float64(cfg.N * cfg.N * cfg.NZ * cfg.Ranks * cfg.Cycles),
		info: fmt.Sprintf("%d^2 x %d cells/rank, %d V-cycles", cfg.N, cfg.NZ, cfg.Cycles),
		solve: func(*recorder, int) (outcome, error) {
			res, err := hpgmg.RunHiPER(cfg)
			if err == nil {
				err = sameResiduals(res.Residuals, oracle.Residuals)
			}
			return outcome{elapsed: res.Elapsed}, err
		},
		ref: func() (time.Duration, error) {
			res, err := hpgmg.RunReference(cfg)
			return res.Elapsed, err
		},
	}, nil
}

// sameResiduals demands bit-identical residual histories.
func sameResiduals(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("hpgmg: %d residuals, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("hpgmg: residual %d is %v, oracle %v", i, got[i], want[i])
		}
	}
	return nil
}

// graph500Root picks the BFS root: the lowest vertex that reaches at
// least half the graph and whose neighbours all live on its own rank
// (vertices are block-partitioned), and returns it with the oracle's
// visited count and level count; root == n means there is none.
//
// The second condition sidesteps a race in graph500.RunHiPER, which arms
// its shmem_async_when handlers before it swaps the initial frontier in:
// a remote claim from a fast root owner can land in the level-0 frontier
// of a slow rank, which then expands it one level early and fails
// ValidateTree ("vertex 13 depth 1, oracle 2" — about 1 solve in 800 with
// root 1). With a root whose neighbours are local, no claim crosses ranks
// before the first barrier. Hubs have few one-bits in a Kronecker graph
// and neighbours everywhere, so only sparse vertices are tried.
func graph500Root(g graph500.GraphConfig, n int64) (root, visited int64, levels int) {
	perRank := n / ranks
	for root = 1; root < n; root++ {
		if bits.OnesCount64(uint64(root)) < (g.Scale+1)/2 {
			continue
		}
		_, depth := graph500.SequentialBFS(g, root)
		visited, levels = 0, 0
		local := true
		for v, d := range depth {
			if d >= 0 {
				visited++
				levels = max(levels, int(d)+1)
			}
			if d == 1 && int64(v)/perRank != root/perRank {
				local = false
			}
		}
		if local && visited >= n/2 {
			break
		}
	}
	return root, visited, levels
}

func setupGraph500(seed int64, tiny bool) (*instance, error) {
	g := graph500.GraphConfig{Scale: 13, EdgeFactor: 16, Seed: seed}
	if tiny {
		g.Scale, g.EdgeFactor = 7, 8
	}
	n := int64(1) << g.Scale
	root, visited, levels := graph500Root(g, n)
	if root == n {
		return nil, fmt.Errorf("graph500: seed %d has no root that reaches half the graph through same-rank neighbours", seed)
	}
	cfg := graph500.RunConfig{Graph: g, Root: root, Ranks: ranks, Workers: workers, Cost: network()}
	check := func(res graph500.Result, err error) (time.Duration, error) {
		if err == nil && (res.Visited != visited || res.Levels != levels) {
			err = fmt.Errorf("graph500: visited %d in %d levels, oracle %d in %d", res.Visited, res.Levels, visited, levels)
		}
		return res.Elapsed, err
	}
	return &instance{
		work: float64(int64(g.EdgeFactor) * n),
		info: fmt.Sprintf("root %d reaches %d of %d vertices in %d levels", root, visited, n, levels),
		solve: func(rec *recorder, rootSpan int) (outcome, error) {
			run := cfg
			if rec != nil {
				run.Transport = newTracedTransport(fabric.NewSim(cfg.Ranks, cfg.Cost), rec, rootSpan)
			}
			elapsed, err := check(graph500.RunHiPER(run))
			return outcome{elapsed: elapsed}, err
		},
		ref: func() (time.Duration, error) { return check(graph500.RunReference(cfg)) },
	}, nil
}

// supervisedRel is the retry schedule BENCH_supervise runs Reliable
// under; the isx-supervised workload and the fabric ladder probes share
// it.
func supervisedRel() fabric.RelConfig {
	return fabric.RelConfig{
		RetryBase: 50 * time.Microsecond, RetryCap: 200 * time.Microsecond,
		MaxAttempts: 12, DeathSilence: 100 * time.Millisecond,
	}
}

func setupSupervised(seed int64, tiny bool) (*instance, error) {
	cfg := isx.SuperviseConfig{
		Streams: 16, KeysPerStream: 1 << 13, Ranks: 3, Capacity: 8, Phases: 16,
		Seed: seed, Cost: network(), Workers: 1,
		Plan:  fabric.FaultPlan{Seed: uint64(seed), Drop: 0.05, Dup: 0.05},
		Rel:   supervisedRel(),
		Kills: job.KillPlan{Seed: uint64(seed) + 1000, Prob: 0.9, Max: 2},
	}
	if tiny {
		cfg.Streams, cfg.KeysPerStream, cfg.Phases = 8, 256, 3
	}
	committed := int64(cfg.Streams) * int64(cfg.KeysPerStream) * int64(cfg.Phases)
	return &instance{
		work: float64(committed),
		info: fmt.Sprintf("%d keys x %d phases, 5%% drop+dup, up to 2 kills", cfg.Streams*cfg.KeysPerStream, cfg.Phases),
		solve: func(*recorder, int) (outcome, error) {
			// RunSupervised has no Elapsed: the solve is the whole call,
			// detector baseline and recovery included.
			start := time.Now()
			res, err := isx.RunSupervised(cfg)
			elapsed := time.Since(start)
			if err == nil && res.Report.Phases != cfg.Phases {
				err = fmt.Errorf("isx-supervised: committed %d phases, want %d", res.Report.Phases, cfg.Phases)
			}
			return outcome{elapsed: elapsed, sup: &res}, err
		},
	}, nil
}
