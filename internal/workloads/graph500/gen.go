// Package graph500 implements the Graph500 benchmark kernel — parallel,
// distributed breadth-first search over a Kronecker graph — the paper's
// Section III-C2 study.
//
// Two variants reproduce the paper's comparison:
//
//   - Reference: the rank's main loop must constantly poll its inbound
//     channels for vertex-claim messages from remote processes, which adds
//     overhead and significantly complicates the implementation.
//   - HiPER: the waiting is handed to the runtime with the novel
//     shmem_async_when API — a task is predicated on the channel counter
//     advancing (the claim batch's own arrival releases it), drains the
//     new claims, and re-arms itself.
//
// Both variants must visit exactly the vertex set a sequential BFS visits,
// with a valid parent tree (every parent is a genuine neighbour one level
// closer to the root).
package graph500

import "fmt"

// GraphConfig parameterizes the Kronecker generator (Graph500 R-MAT
// parameters A=0.57, B=0.19, C=0.19).
type GraphConfig struct {
	Scale      int // N = 2^Scale vertices
	EdgeFactor int // M = EdgeFactor * N edges
	Seed       int64
}

// DefaultGraph is a laptop-scale stand-in for the paper's scale-31 runs.
var DefaultGraph = GraphConfig{Scale: 12, EdgeFactor: 16, Seed: 5}

func (g GraphConfig) numVertices() int64 { return int64(1) << g.Scale }
func (g GraphConfig) numEdges() int64    { return int64(g.EdgeFactor) * g.numVertices() }

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// edge deterministically generates edge index e by R-MAT recursive
// quadrant selection: each of Scale bits picks a quadrant from a hash of
// (seed, e, level).
func (g GraphConfig) edge(e int64) (int64, int64) {
	var u, v int64
	base := splitmix(uint64(g.Seed))*0x100000001B3 + uint64(e)
	for bit := 0; bit < g.Scale; bit++ {
		r := splitmix(base + uint64(bit)*0x9E3779B97F4A7C15)
		p := float64(r>>11) / float64(1<<53) // uniform [0,1)
		u <<= 1
		v <<= 1
		// Quadrant probabilities: A=0.57 (0,0), B=0.19 (0,1), C=0.19 (1,0), D=0.05 (1,1).
		switch {
		case p < 0.57:
		case p < 0.76:
			v |= 1
		case p < 0.95:
			u |= 1
		default:
			u |= 1
			v |= 1
		}
	}
	return u, v
}

// csr is one rank's compressed adjacency over its owned vertices.
type csr struct {
	vLo, vHi int64 // owned vertex range [vLo, vHi)
	offs     []int64
	adj      []int64
}

// partition computes rank r's owned range under block partitioning.
func partition(n int64, ranks, r int) (lo, hi int64) {
	per := n / int64(ranks)
	rem := n % int64(ranks)
	lo = int64(r)*per + min64(int64(r), rem)
	hi = lo + per
	if int64(r) < rem {
		hi++
	}
	return lo, hi
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// owner returns the rank owning vertex v.
func owner(n int64, ranks int, v int64) int {
	per := n / int64(ranks)
	rem := n % int64(ranks)
	cut := rem * (per + 1)
	if v < cut {
		return int(v / (per + 1))
	}
	return int(rem + (v-cut)/per)
}

// buildLocalCSR generates the full edge list and keeps both directions of
// every edge whose endpoint this rank owns (self-loops dropped).
func buildLocalCSR(g GraphConfig, ranks, r int) *csr {
	n := g.numVertices()
	lo, hi := partition(n, ranks, r)
	local := hi - lo
	deg := make([]int64, local)
	m := g.numEdges()
	for e := int64(0); e < m; e++ {
		u, v := g.edge(e)
		if u == v {
			continue
		}
		if u >= lo && u < hi {
			deg[u-lo]++
		}
		if v >= lo && v < hi {
			deg[v-lo]++
		}
	}
	offs := make([]int64, local+1)
	for i := int64(0); i < local; i++ {
		offs[i+1] = offs[i] + deg[i]
	}
	adj := make([]int64, offs[local])
	fill := make([]int64, local)
	for e := int64(0); e < m; e++ {
		u, v := g.edge(e)
		if u == v {
			continue
		}
		if u >= lo && u < hi {
			i := u - lo
			adj[offs[i]+fill[i]] = v
			fill[i]++
		}
		if v >= lo && v < hi {
			i := v - lo
			adj[offs[i]+fill[i]] = u
			fill[i]++
		}
	}
	return &csr{vLo: lo, vHi: hi, offs: offs, adj: adj}
}

// neighbors returns vertex v's adjacency (v must be owned).
func (c *csr) neighbors(v int64) []int64 {
	i := v - c.vLo
	return c.adj[c.offs[i]:c.offs[i+1]]
}

// SequentialBFS runs the oracle BFS, returning parent (-1 unvisited) and
// depth (-1 unvisited) for every vertex.
func SequentialBFS(g GraphConfig, root int64) (parent, depth []int64) {
	full := buildLocalCSR(g, 1, 0)
	n := g.numVertices()
	parent = make([]int64, n)
	depth = make([]int64, n)
	for i := range parent {
		parent[i] = -1
		depth[i] = -1
	}
	parent[root] = root
	depth[root] = 0
	frontier := []int64{root}
	for d := int64(1); len(frontier) > 0; d++ {
		var next []int64
		for _, u := range frontier {
			for _, v := range full.neighbors(u) {
				if parent[v] == -1 {
					parent[v] = u
					depth[v] = d
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return parent, depth
}

// ValidateTree checks a BFS parent/depth assignment against the graph:
// root self-parented at depth 0; every visited vertex's parent is visited
// one level shallower; the visited set matches the sequential oracle.
func ValidateTree(g GraphConfig, root int64, parent, depth []int64) error {
	oraPar, oraDep := SequentialBFS(g, root)
	full := buildLocalCSR(g, 1, 0)
	n := g.numVertices()
	var visited, oraVisited int64
	for v := int64(0); v < n; v++ {
		if (parent[v] == -1) != (oraPar[v] == -1) {
			return fmt.Errorf("graph500: vertex %d visited=%v, oracle says %v", v, parent[v] != -1, oraPar[v] != -1)
		}
		if parent[v] == -1 {
			continue
		}
		visited++
		oraVisited++
		if depth[v] != oraDep[v] {
			return fmt.Errorf("graph500: vertex %d depth %d, oracle %d", v, depth[v], oraDep[v])
		}
		if v == root {
			if parent[v] != root || depth[v] != 0 {
				return fmt.Errorf("graph500: bad root entry")
			}
			continue
		}
		if depth[parent[v]] != depth[v]-1 {
			return fmt.Errorf("graph500: vertex %d parent %d not one level shallower", v, parent[v])
		}
		isNeighbor := false
		for _, nb := range full.neighbors(v) {
			if nb == parent[v] {
				isNeighbor = true
				break
			}
		}
		if !isNeighbor {
			return fmt.Errorf("graph500: vertex %d parent %d is not a neighbour", v, parent[v])
		}
	}
	if visited == 0 {
		return fmt.Errorf("graph500: nothing visited")
	}
	return nil
}
