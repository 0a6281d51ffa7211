package graph500

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/simnet"
)

// tinyGraph keeps unit tests fast: 512 vertices, ~8k edges.
var tinyGraph = GraphConfig{Scale: 9, EdgeFactor: 16, Seed: 5}

var testCost = simnet.CostModel{Alpha: 20 * time.Microsecond}

func TestEdgeGeneratorDeterministic(t *testing.T) {
	for e := int64(0); e < 100; e++ {
		u1, v1 := tinyGraph.edge(e)
		u2, v2 := tinyGraph.edge(e)
		if u1 != u2 || v1 != v2 {
			t.Fatal("edge generation not deterministic")
		}
		n := tinyGraph.numVertices()
		if u1 < 0 || u1 >= n || v1 < 0 || v1 >= n {
			t.Fatalf("edge (%d,%d) out of range", u1, v1)
		}
	}
}

func TestEdgeSkew(t *testing.T) {
	// R-MAT with A=0.57 concentrates edges at low vertex ids.
	var lowHalf, total int64
	half := tinyGraph.numVertices() / 2
	for e := int64(0); e < tinyGraph.numEdges(); e++ {
		u, _ := tinyGraph.edge(e)
		if u < half {
			lowHalf++
		}
		total++
	}
	if float64(lowHalf)/float64(total) < 0.6 {
		t.Fatalf("R-MAT skew missing: %d/%d in low half", lowHalf, total)
	}
}

func TestPartitionCoversAllVertices(t *testing.T) {
	n := int64(1000)
	for _, ranks := range []int{1, 3, 7, 16} {
		var covered int64
		for r := 0; r < ranks; r++ {
			lo, hi := partition(n, ranks, r)
			covered += hi - lo
			for v := lo; v < hi; v++ {
				if owner(n, ranks, v) != r {
					t.Fatalf("owner(%d) != %d with %d ranks", v, r, ranks)
				}
			}
		}
		if covered != n {
			t.Fatalf("partition covered %d of %d with %d ranks", covered, n, ranks)
		}
	}
}

func TestLocalCSRMatchesFullGraph(t *testing.T) {
	full := buildLocalCSR(tinyGraph, 1, 0)
	const ranks = 4
	var distTotal int64
	for r := 0; r < ranks; r++ {
		c := buildLocalCSR(tinyGraph, ranks, r)
		for v := c.vLo; v < c.vHi; v++ {
			local := c.neighbors(v)
			ref := full.neighbors(v)
			if len(local) != len(ref) {
				t.Fatalf("vertex %d degree %d vs %d", v, len(local), len(ref))
			}
			distTotal += int64(len(local))
		}
	}
	var fullTotal int64
	for v := full.vLo; v < full.vHi; v++ {
		fullTotal += int64(len(full.neighbors(v)))
	}
	if distTotal != fullTotal {
		t.Fatalf("adjacency totals differ: %d vs %d", distTotal, fullTotal)
	}
}

func TestSequentialBFSSelfConsistent(t *testing.T) {
	parent, depth := SequentialBFS(tinyGraph, 1)
	if err := ValidateTree(tinyGraph, 1, parent, depth); err != nil {
		t.Fatal(err)
	}
	if depth[1] != 0 || parent[1] != 1 {
		t.Fatal("root entry wrong")
	}
}

func TestRunReference(t *testing.T) {
	res, err := RunReference(RunConfig{Graph: tinyGraph, Root: 1, Ranks: 4, Cost: testCost})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited == 0 || res.Levels == 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestRunHiPER(t *testing.T) {
	res, err := RunHiPER(RunConfig{Graph: tinyGraph, Root: 1, Ranks: 4, Workers: 2, Cost: testCost})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited == 0 {
		t.Fatalf("result = %+v", res)
	}
}

// TestRunHiPERRootClaimPrecedesArming is the regression test for the
// arming race: with root 1, the root's owner sends depth-1 claims to
// other ranks at once, and a handler armed before its rank had swapped
// the level-0 frontier in let such a claim ride into level 0 and be
// expanded one level early ("vertex 15 depth 1, oracle 2"). Handlers now
// fire straight from the delivery, so the window is hit within a few runs
// if the order regresses; ValidateTree inside RunHiPER is the oracle.
func TestRunHiPERRootClaimPrecedesArming(t *testing.T) {
	runs := 200
	if testing.Short() {
		runs = 50
	}
	cfg := RunConfig{Graph: tinyGraph, Root: 1, Ranks: 4, Workers: 2, Cost: testCost}
	_, want := SequentialBFS(tinyGraph, cfg.Root)
	var reached int64
	for _, d := range want {
		if d >= 0 {
			reached++
		}
	}
	for i := 0; i < runs; i++ {
		res, err := RunHiPER(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Visited != reached {
			t.Fatalf("run %d: visited %d vertices, sequential BFS reaches %d", i, res.Visited, reached)
		}
	}
}

func TestVariantsVisitSameSet(t *testing.T) {
	cfg := RunConfig{Graph: tinyGraph, Root: 1, Ranks: 3, Workers: 2, Cost: testCost}
	a, err := RunReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHiPER(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Visited != b.Visited || a.Levels != b.Levels {
		t.Fatalf("variants disagree: %+v vs %+v", a, b)
	}
}

// TestRunsUnderCongestedCost drives both variants with the benchmark
// network's congestion model active. Congestion spreads deliveries out
// enough that one rank's quiesce sentinels routinely land while its peers
// are still looping — the schedule that once left a re-armed when-handler
// waiting on a sealed channel and hung the job (the handlers must disarm
// on the sender's sentinel, not on local completion).
func TestRunsUnderCongestedCost(t *testing.T) {
	cost := simnet.CostModel{
		Alpha: 15 * time.Microsecond, BytesPerSec: 2e9,
		CongestWindow: 2, CongestPenalty: 150 * time.Microsecond,
	}
	cfg := RunConfig{Graph: tinyGraph, Root: 1, Ranks: 4, Workers: 2, Cost: cost}
	a, err := RunReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHiPER(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Visited != b.Visited || a.Levels != b.Levels {
		t.Fatalf("variants disagree: %+v vs %+v", a, b)
	}
}

func TestSingleRankDegenerate(t *testing.T) {
	if _, err := RunReference(RunConfig{Graph: tinyGraph, Root: 1, Ranks: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunHiPER(RunConfig{Graph: tinyGraph, Root: 1, Ranks: 1, Workers: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestIsolatedRootVisitsOnlyItself(t *testing.T) {
	// Vertex ids near the top of the range are often isolated in R-MAT;
	// find one and BFS from it.
	full := buildLocalCSR(tinyGraph, 1, 0)
	var iso int64 = -1
	for v := tinyGraph.numVertices() - 1; v >= 0; v-- {
		if len(full.neighbors(v)) == 0 {
			iso = v
			break
		}
	}
	if iso < 0 {
		t.Skip("no isolated vertex at this scale/seed")
	}
	res, err := RunHiPER(RunConfig{Graph: tinyGraph, Root: iso, Ranks: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 1 {
		t.Fatalf("isolated root visited %d vertices", res.Visited)
	}
}

// TestChaosGraph500 runs BOTH variants over a Reliable layer on a
// fabric injecting 10% drop + 10% dup. Correctness is ValidateTree
// (inside Run*); the drop/retry counters prove the fabric actually
// misbehaved and the protocol actually recovered — a clean pass with
// zero drops would prove nothing.
func TestChaosGraph500(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy-fabric BFS is a second-long soak")
	}
	run := func(t *testing.T, name string, f func(RunConfig) (Result, error)) {
		chaos := fabric.NewChaos(fabric.NewSim(4, simnet.CostModel{Alpha: time.Microsecond}),
			fabric.FaultPlan{Seed: 42, Drop: 0.10, Dup: 0.10})
		rel := fabric.NewReliable(chaos, fabric.RelConfig{})
		res, err := f(RunConfig{Graph: tinyGraph, Root: 1, Ranks: 4, Workers: 2, Transport: rel})
		if err != nil {
			t.Fatalf("%s over lossy fabric: %v", name, err)
		}
		if res.Visited < 2 {
			t.Fatalf("%s visited only %d vertices", name, res.Visited)
		}
		if chaos.Drops() == 0 || chaos.Dups() == 0 {
			t.Fatalf("%s: chaos injected nothing (drops=%d dups=%d)", name, chaos.Drops(), chaos.Dups())
		}
		if rel.Retries() == 0 {
			t.Fatalf("%s: survived loss with zero retransmits?", name)
		}
	}
	t.Run("reference", func(t *testing.T) { run(t, "reference", RunReference) })
	t.Run("hiper", func(t *testing.T) { run(t, "hiper", RunHiPER) })
}
