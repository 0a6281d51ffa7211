package shmem

import (
	"encoding/binary"
	"sync"

	"repro/internal/fabric"
)

// Collectives. All PEs must call each collective; entry and exit barriers
// give them the usual SHMEM sync-array semantics. The data movement runs
// through the shared collectives layer (fabric.Coll) — the same
// binomial-tree and ring algorithms MPI's collectives use, as real
// messages on the World's transport — so collective cost emerges from the
// fabric's latency, bandwidth, and congestion model rather than a
// separate formula.

// encodeInt64s writes vals little-endian into dst (len(dst) >= 8*len(vals)).
func encodeInt64s(dst []byte, vals []int64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
	}
}

// decodeInt64s reads len(vals) little-endian int64s from src into vals.
func decodeInt64s(vals []int64, src []byte) {
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// Broadcast copies nelems from root's src instance into every other PE's
// dst instance (shmem_broadcast64). Root's dst is untouched, per the spec.
func (p *PE) Broadcast(dst, src *Int64Array, nelems, root int) {
	p.Quiet()
	p.w.coll.Barrier()
	buf := make([]byte, 8*nelems)
	if p.rank == root {
		src.mus[root].Lock()
		encodeInt64s(buf, src.data[root][:nelems])
		src.mus[root].Unlock()
	}
	p.w.coll.Bcast(p.rank, buf, root)
	if p.rank != root {
		dst.update(p.rank, func(loc []int64) { decodeInt64s(loc[:nelems], buf) })
	}
	p.w.coll.Barrier()
}

// FCollect concatenates nelems from every PE's src into every PE's dst,
// ordered by PE (shmem_fcollect64). dst must have length >= n*nelems.
func (p *PE) FCollect(dst, src *Int64Array, nelems int) {
	p.Quiet()
	p.w.coll.Barrier()
	me := p.rank
	contrib := make([]byte, 8*nelems)
	src.mus[me].Lock()
	encodeInt64s(contrib, src.data[me][:nelems])
	src.mus[me].Unlock()
	chunks := p.w.coll.Allgather(me, contrib)
	dst.update(me, func(loc []int64) {
		for r, chunk := range chunks {
			decodeInt64s(loc[r*nelems:(r+1)*nelems], chunk)
		}
	})
	p.w.coll.Barrier()
}

// ReduceKind selects the reduction operator.
type ReduceKind int

// Reduction operators (shmem_int64_{sum,max,min}_to_all).
const (
	ReduceSum ReduceKind = iota
	ReduceMax
	ReduceMin
)

func (k ReduceKind) apply(a, b int64) int64 {
	switch k {
	case ReduceSum:
		return a + b
	case ReduceMax:
		if b > a {
			return b
		}
		return a
	case ReduceMin:
		if b < a {
			return b
		}
		return a
	}
	panic("shmem: unknown reduction")
}

// byteOp lifts the int64 operator to the byte-buffer form the shared
// collectives layer reduces with.
func (k ReduceKind) byteOp() fabric.ReduceOp {
	return func(acc, in []byte) {
		for i := 0; i+8 <= len(in); i += 8 {
			a := int64(binary.LittleEndian.Uint64(acc[i:]))
			b := int64(binary.LittleEndian.Uint64(in[i:]))
			binary.LittleEndian.PutUint64(acc[i:], uint64(k.apply(a, b)))
		}
	}
}

// ToAll reduces nelems elements of src element-wise across all PEs with
// the given operator and stores the result in every PE's dst.
func (p *PE) ToAll(dst, src *Int64Array, nelems int, kind ReduceKind) {
	p.Quiet()
	p.w.coll.Barrier()
	me := p.rank
	contrib := make([]byte, 8*nelems)
	src.mus[me].Lock()
	encodeInt64s(contrib, src.data[me][:nelems])
	src.mus[me].Unlock()
	recv := make([]byte, 8*nelems)
	p.w.coll.Allreduce(me, recv, contrib, kind.byteOp())
	dst.update(me, func(loc []int64) { decodeInt64s(loc[:nelems], recv) })
	p.w.coll.Barrier()
}

// Lock provides shmem_set_lock / shmem_clear_lock semantics over a
// symmetric lock variable, identified by an opaque handle allocated with
// AllocLock. The in-process implementation serializes through one mutex,
// which preserves the contention behaviour distributed locks exhibit.
// The lock variable lives in PE 0's symmetric memory (the spec hosts
// locks at a fixed PE), so acquiring it costs one round trip to PE 0.
type Lock struct {
	mu sync.Mutex
}

// AllocLock allocates a symmetric lock.
func (w *World) AllocLock() *Lock { return &Lock{} }

// SetLock acquires the lock, blocking (shmem_set_lock).
func (p *PE) SetLock(l *Lock) {
	p.roundTrip(0, 8, nil)
	l.mu.Lock()
}

// ClearLock releases the lock.
func (p *PE) ClearLock(l *Lock) {
	l.mu.Unlock()
}
