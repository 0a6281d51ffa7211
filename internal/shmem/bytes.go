package shmem

import "sync"

// ByteArray is a symmetric byte array — the workhorse for bulk payloads
// (sorted key blocks in ISx, serialized tree nodes in UTS).
type ByteArray struct {
	w    *World
	data [][]byte
	mus  []sync.Mutex
}

// AllocBytes allocates a symmetric byte array of length n per PE.
func (w *World) AllocBytes(n int) *ByteArray {
	a := &ByteArray{w: w}
	a.data = make([][]byte, w.slots)
	a.mus = make([]sync.Mutex, w.slots)
	for r := 0; r < w.slots; r++ {
		a.data[r] = make([]byte, n)
	}
	return a
}

// Len returns the per-PE length.
func (a *ByteArray) Len() int { return len(a.data[0]) }

// Local returns PE rank's local instance; the SHMEM synchronization rules
// from Int64Array.Local apply.
func (a *ByteArray) Local(rank int) []byte { return a.data[rank] }

// PutBytes copies vals into dst's instance at offset off; source reusable
// immediately, remote visibility after the modelled delay.
func (p *PE) PutBytes(a *ByteArray, dst, off int, vals []byte) {
	cp := make([]byte, len(vals))
	copy(cp, vals)
	p.put(dst, len(cp), func() {
		a.mus[dst].Lock()
		copy(a.data[dst][off:], cp)
		a.mus[dst].Unlock()
	})
}

// GetBytes copies n bytes from src's instance at offset off. Blocks for
// the round trip.
func (p *PE) GetBytes(a *ByteArray, src, off, n int) []byte {
	out := make([]byte, n)
	p.roundTrip(src, n, func() {
		a.mus[src].Lock()
		copy(out, a.data[src][off:off+n])
		a.mus[src].Unlock()
	})
	return out
}

// Float64Array is a symmetric array of float64 (ghost-zone payloads in
// stencil codes).
type Float64Array struct {
	w    *World
	data [][]float64
	mus  []sync.Mutex
}

// AllocFloat64 allocates a symmetric float64 array of length n per PE.
func (w *World) AllocFloat64(n int) *Float64Array {
	a := &Float64Array{w: w}
	a.data = make([][]float64, w.slots)
	a.mus = make([]sync.Mutex, w.slots)
	for r := 0; r < w.slots; r++ {
		a.data[r] = make([]float64, n)
	}
	return a
}

// Len returns the per-PE length.
func (a *Float64Array) Len() int { return len(a.data[0]) }

// Local returns PE rank's local instance.
func (a *Float64Array) Local(rank int) []float64 { return a.data[rank] }

// PutFloat64 copies vals into dst's instance at offset off.
func (p *PE) PutFloat64(a *Float64Array, dst, off int, vals []float64) {
	cp := make([]float64, len(vals))
	copy(cp, vals)
	p.put(dst, 8*len(cp), func() {
		a.mus[dst].Lock()
		copy(a.data[dst][off:], cp)
		a.mus[dst].Unlock()
	})
}

// GetFloat64 copies n elements from src's instance at offset off.
func (p *PE) GetFloat64(a *Float64Array, src, off, n int) []float64 {
	out := make([]float64, n)
	p.roundTrip(src, 8*n, func() {
		a.mus[src].Lock()
		copy(out, a.data[src][off:off+n])
		a.mus[src].Unlock()
	})
	return out
}
