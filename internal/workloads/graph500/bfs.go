package graph500

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/shmem"
	"repro/internal/simnet"
)

// RunConfig parameterizes a distributed BFS (strong scaling: the graph is
// fixed, ranks vary).
type RunConfig struct {
	Graph   GraphConfig
	Root    int64
	Ranks   int
	Workers int // HiPER workers per rank (reference ignores)
	Cost    simnet.CostModel
	// ChanCap is the per-(src,dst) channel capacity in claims (default
	// enough for the whole graph: 2*EdgeFactor*N/Ranks, generously).
	ChanCap int
	// Transport, when non-nil, carries all symmetric-heap traffic instead
	// of a fresh Sim — e.g. a Reliable over a Chaos for fault-injection
	// runs. Its Size must equal Ranks.
	Transport fabric.Transport
}

// world builds the SHMEM world both variants run over: the supplied
// transport when one is given, else a fresh simulated fabric.
func (c RunConfig) world() *shmem.World {
	if c.Transport != nil {
		return shmem.NewWorldOver(c.Transport)
	}
	return shmem.NewWorld(c.Ranks, c.Cost)
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.ChanCap <= 0 {
		c.ChanCap = int(2*c.Graph.numEdges())/c.Ranks + 1024
	}
	return c
}

// Result reports one run.
type Result struct {
	Variant string
	Ranks   int
	Elapsed time.Duration
	Visited int64
	Levels  int
}

// comms is the symmetric communication state: one claim channel per
// (src, dst) pair. A claim is a (vertex, parent, depth) triple; the
// channel is a region of dst's symmetric buffer written only by src, with
// a counter the receiver watches — the reference variant's polling
// target, and the HiPER variant's shmem_async_when trigger. Carrying the
// depth in the message keeps asynchronous handlers correct regardless of
// when they drain relative to the receiver's own level progress.
type comms struct {
	world *shmem.World
	ranks int
	cap   int
	// data[dst] layout: ranks regions of 3*cap int64s (v, parent, depth).
	data *shmem.Int64Array
	// counters[dst] layout: ranks slots; counters[dst][src] counts claims
	// written on channel src->dst.
	counters *shmem.Int64Array
	// levelSum: one accumulation slot per BFS level on PE 0 for the
	// level-end termination reduction.
	levelSum *shmem.Int64Array
}

func newComms(world *shmem.World, capacity int) *comms {
	r := world.Size()
	return &comms{
		world:    world,
		ranks:    r,
		cap:      capacity,
		data:     world.AllocInt64(r * 3 * capacity),
		counters: world.AllocInt64(r),
		levelSum: world.AllocInt64(levelSlots),
	}
}

// sender tracks one rank's outbound batches.
type sender struct {
	cs      *comms
	pe      *shmem.PE
	pending [][]int64 // per destination: flat (v, parent, depth) triples
	sent    []int64   // claims already written per destination
}

func newSender(cs *comms, pe *shmem.PE) *sender {
	return &sender{cs: cs, pe: pe, pending: make([][]int64, cs.ranks), sent: make([]int64, cs.ranks)}
}

// claim queues a remote claim (v's owner will decide whether the parent
// sticks).
func (s *sender) claim(dst int, v, parent, depth int64) {
	s.pending[dst] = append(s.pending[dst], v, parent, depth)
}

// flush writes queued claims and advances the channel counters: one
// put-with-signal per destination, whose arrival writes the claims and
// then adds their count to the channel counter — so a receiver that
// observes the counter sees the claims, with no fence and no second
// message. A channel's batches fill consecutive regions, so this leans on
// the transport delivering each (src, dst) pair in issue order, which Sim
// and Reliable both guarantee.
func (s *sender) flush() {
	me := s.pe.Rank()
	for dst := 0; dst < s.cs.ranks; dst++ {
		batch := s.pending[dst]
		if len(batch) == 0 {
			continue
		}
		claims := int64(len(batch) / 3)
		if s.sent[dst]+claims > int64(s.cs.cap) {
			panic(fmt.Sprintf("graph500: channel %d->%d overflow", me, dst))
		}
		off := me*3*s.cs.cap + int(3*s.sent[dst])
		s.pe.PutSignal(s.cs.data, dst, off, batch, s.cs.counters, me, claims, shmem.SignalAdd)
		s.sent[dst] += claims
		s.pending[dst] = s.pending[dst][:0]
	}
}

// receiver tracks one rank's inbound drain positions.
type receiver struct {
	cs     *comms
	me     int
	mu     sync.Mutex
	read   []int64 // claims consumed per source channel
	sealed []bool  // per source: end-of-stream sentinel consumed
}

func newReceiver(cs *comms, me int) *receiver {
	return &receiver{cs: cs, me: me,
		read: make([]int64, cs.ranks), sealed: make([]bool, cs.ranks)}
}

// drain processes all currently visible claims on every channel, invoking
// handle(v, parent, depth) for each. A negative vertex is the sender's
// end-of-stream sentinel and seals that channel. Safe for concurrent
// callers (the HiPER variant's when-handlers and level-end flush).
func (r *receiver) drain(handle func(v, parent, depth int64)) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	loc := r.cs.data.Local(r.me)
	for src := 0; src < r.cs.ranks; src++ {
		avail := r.cs.counters.Peek(r.me, src)
		for r.read[src] < avail {
			off := src*3*r.cs.cap + int(3*r.read[src])
			if loc[off] < 0 {
				r.sealed[src] = true
			}
			handle(loc[off], loc[off+1], loc[off+2])
			r.read[src]++
			total++
		}
	}
	return total
}

// totalRead reports claims consumed so far across channels.
func (r *receiver) totalRead() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t int64
	for _, v := range r.read {
		t += v
	}
	return t
}

// bfsState is one rank's BFS bookkeeping.
type bfsState struct {
	g        GraphConfig
	ranks    int
	csr      *csr
	parent   []int64 // indexed by local vertex
	depth    []int64
	frontier []int64 // global vertex ids, owned by this rank
	nextMu   sync.Mutex
	next     []int64
	level    int64
}

func newBFSState(g GraphConfig, ranks, r int) *bfsState {
	c := buildLocalCSR(g, ranks, r)
	local := c.vHi - c.vLo
	st := &bfsState{g: g, ranks: ranks, csr: c,
		parent: make([]int64, local), depth: make([]int64, local)}
	for i := range st.parent {
		st.parent[i] = -1
		st.depth[i] = -1
	}
	return st
}

// tryClaim marks v (owned) with the given parent at the given depth;
// returns true if v was unvisited. Callers serialize via nextMu.
func (st *bfsState) tryClaim(v, parent, depth int64) bool {
	i := v - st.csr.vLo
	if st.parent[i] != -1 {
		return false
	}
	st.parent[i] = parent
	st.depth[i] = depth
	st.next = append(st.next, v)
	return true
}

// claimLocked is tryClaim under the mutex (for concurrent handlers).
func (st *bfsState) claimLocked(v, parent, depth int64) {
	st.nextMu.Lock()
	st.tryClaim(v, parent, depth)
	st.nextMu.Unlock()
}
