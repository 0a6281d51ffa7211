package upcxx

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
)

func TestRPutVisibleAfterQuiet(t *testing.T) {
	w := NewWorld(2, simnet.CostModel{Alpha: time.Millisecond})
	a := w.AllocShared(4)
	r0 := w.Rank(0)
	r0.RPut(a, 1, 1, []float64{2.5, 3.5}, nil)
	r0.Quiet()
	if a.Local(1)[1] != 2.5 || a.Local(1)[2] != 3.5 {
		t.Fatalf("remote block = %v", a.Local(1))
	}
}

func TestRPutRemoteCompletion(t *testing.T) {
	w := NewWorld(2, simnet.CostModel{Alpha: time.Millisecond})
	a := w.AllocShared(1)
	done := make(chan struct{})
	w.Rank(0).RPut(a, 1, 0, []float64{1}, func() {
		if a.Local(1)[0] != 1 {
			t.Error("remote completion fired before data visible")
		}
		close(done)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("remote completion never fired")
	}
}

func TestRPutCapturesSource(t *testing.T) {
	w := NewWorld(2, simnet.CostModel{Alpha: 5 * time.Millisecond})
	a := w.AllocShared(1)
	src := []float64{7}
	w.Rank(0).RPut(a, 1, 0, src, nil)
	src[0] = 0
	w.Rank(0).Quiet()
	if a.Local(1)[0] != 7 {
		t.Fatal("RPut did not capture source eagerly")
	}
}

func TestRGet(t *testing.T) {
	w := NewWorld(3, simnet.CostModel{})
	a := w.AllocShared(4)
	copy(a.Local(2), []float64{1, 2, 3, 4})
	got := make(chan []float64, 1)
	w.Rank(0).RGet(a, 2, 1, 2, func(v []float64) { got <- v })
	select {
	case v := <-got:
		if len(v) != 2 || v[0] != 2 || v[1] != 3 {
			t.Fatalf("rget = %v", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rget never completed")
	}
}

func TestRPCRequiresProgress(t *testing.T) {
	w := NewWorld(2, simnet.CostModel{})
	var ran atomic.Bool
	acked := make(chan struct{})
	w.Rank(0).RPC(1, func(target *Rank) {
		if target.ID() != 1 {
			t.Errorf("rpc ran on rank %d", target.ID())
		}
		ran.Store(true)
	}, func() { close(acked) })
	w.Rank(0).Quiet() // rpc enqueued at target
	if ran.Load() {
		t.Fatal("rpc executed without Progress")
	}
	if !w.Rank(1).PendingRPCs() {
		t.Fatal("rpc not pending at target")
	}
	if n := w.Rank(1).Progress(); n != 1 {
		t.Fatalf("Progress ran %d rpcs", n)
	}
	if !ran.Load() {
		t.Fatal("rpc did not run during Progress")
	}
	select {
	case <-acked:
	case <-time.After(5 * time.Second):
		t.Fatal("rpc ack never fired")
	}
}

func TestBarrierSynchronizesRPuts(t *testing.T) {
	const n = 4
	w := NewWorld(n, simnet.CostModel{Alpha: time.Millisecond})
	a := w.AllocShared(n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rank := w.Rank(r)
			for dst := 0; dst < n; dst++ {
				rank.RPut(a, dst, r, []float64{float64(r + 1)}, nil)
			}
			rank.Barrier()
			loc := a.Local(r)
			for s := 0; s < n; s++ {
				if loc[s] != float64(s+1) {
					t.Errorf("rank %d slot %d = %v after barrier", r, s, loc[s])
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestWorldAccessors(t *testing.T) {
	w := NewWorld(3, simnet.CostModel{})
	if w.Size() != 3 || w.Rank(1).Size() != 3 || w.Rank(2).ID() != 2 {
		t.Fatal("accessors wrong")
	}
	a := w.AllocShared(5)
	if a.Len() != 5 {
		t.Fatal("len")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) must panic")
		}
	}()
	NewWorld(0, simnet.CostModel{})
}

func TestBarrierAsync(t *testing.T) {
	const n = 3
	w := NewWorld(n, simnet.CostModel{Alpha: time.Millisecond})
	a := w.AllocShared(n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rank := w.Rank(r)
			for dst := 0; dst < n; dst++ {
				rank.RPut(a, dst, r, []float64{float64(r + 1)}, nil)
			}
			done := make(chan struct{})
			rank.BarrierAsync(func() { close(done) })
			<-done
			loc := a.Local(r)
			for s := 0; s < n; s++ {
				if loc[s] != float64(s+1) {
					t.Errorf("rank %d slot %d = %v after async barrier", r, s, loc[s])
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestPeekLocksConsistently(t *testing.T) {
	w := NewWorld(2, simnet.CostModel{})
	a := w.AllocShared(1)
	w.Rank(0).RPut(a, 1, 0, []float64{3.5}, nil)
	w.Rank(0).Quiet()
	if got := a.Peek(1, 0); got != 3.5 {
		t.Fatalf("Peek = %v", got)
	}
}

// watchers reports how many signal waits are still armed on rank r.
func (a *SharedArray) watchers(r int) int {
	a.mus[r].Lock()
	defer a.mus[r].Unlock()
	return a.watch[r].Len()
}

// TestRPutSignalPayloadBeforeSignal: several ranks RPutSignal at one
// reader concurrently; each time the watch list wakes the reader for a
// writer's sequence number, that writer's payload must already be in
// place. The reader reads through Local with no lock, so under -race a
// signal observable before its payload is a reported data race.
func TestRPutSignalPayloadBeforeSignal(t *testing.T) {
	const writers, rounds, width = 5, 200, 32
	w := NewWorld(writers+1, simnet.CostModel{Alpha: 5 * time.Microsecond})
	data := w.AllocShared(2 * writers * width) // two parities per writer
	sig := w.AllocShared(2 * writers)
	ack := w.AllocShared(1)
	const reader = writers

	var wg sync.WaitGroup
	for s := 0; s < writers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rk := w.Rank(s)
			vals := make([]float64, width)
			for r := 1; r <= rounds; r++ {
				// Round r may overwrite parity r%2 only once the reader
				// is done with round r-2.
				acked := make(chan struct{})
				ack.WhenAtLeast(s, 0, float64(r-2), func() { close(acked) })
				<-acked
				for i := range vals {
					vals[i] = float64(r*1000 + s)
				}
				par := r % 2
				rk.RPutSignal(data, reader, (2*s+par)*width, vals, sig, 2*s+par, float64(r))
			}
			rk.Quiet()
		}(s)
	}

	rd := w.Rank(reader)
	for r := 1; r <= rounds; r++ {
		par := r % 2
		var seen sync.WaitGroup
		seen.Add(writers)
		for s := 0; s < writers; s++ {
			sig.WhenAtLeast(reader, 2*s+par, float64(r), seen.Done)
		}
		seen.Wait()
		for s := 0; s < writers; s++ {
			for i, v := range data.Local(reader)[(2*s+par)*width : (2*s+par+1)*width] {
				if v != float64(r*1000+s) {
					t.Fatalf("writer %d round %d: payload[%d] = %v after its signal fired", s, r, i, v)
				}
			}
			rd.RPut(ack, s, 0, []float64{float64(r)}, nil)
		}
	}
	wg.Wait()
	rd.Quiet()
	if n := sig.watchers(reader); n != 0 {
		t.Fatalf("%d watchers left armed after every round fired", n)
	}
}

// TestWhenAtLeastFiresExactlyOnce covers a watcher armed before the write
// that satisfies it, after it, and racing it; in each case it fires once
// and leaves the list.
func TestWhenAtLeastFiresExactlyOnce(t *testing.T) {
	w := NewWorld(2, simnet.CostModel{})
	r0 := w.Rank(0)

	t.Run("registered-before", func(t *testing.T) {
		a := w.AllocShared(1)
		var fired atomic.Int64
		a.WhenAtLeast(1, 0, 3, func() { fired.Add(1) })
		r0.RPut(a, 1, 0, []float64{2}, nil)
		if fired.Load() != 0 || a.watchers(1) != 1 {
			t.Fatalf("fired %d, %d armed after a write that does not satisfy", fired.Load(), a.watchers(1))
		}
		r0.RPut(a, 1, 0, []float64{3}, nil)
		r0.RPut(a, 1, 0, []float64{4}, nil)
		if fired.Load() != 1 || a.watchers(1) != 0 {
			t.Fatalf("fired %d times, %d still armed; want 1 and 0", fired.Load(), a.watchers(1))
		}
	})

	t.Run("registered-after", func(t *testing.T) {
		a := w.AllocShared(1)
		r0.RPut(a, 1, 0, []float64{5}, nil)
		var fired atomic.Int64
		a.WhenAtLeast(1, 0, 5, func() { fired.Add(1) })
		r0.RPut(a, 1, 0, []float64{6}, nil)
		if fired.Load() != 1 || a.watchers(1) != 0 {
			t.Fatalf("fired %d times, %d still armed; want 1 and 0", fired.Load(), a.watchers(1))
		}
	})

	t.Run("racing", func(t *testing.T) {
		for i := 0; i < 2000; i++ {
			a, s := w.AllocShared(1), w.AllocShared(1)
			var fired atomic.Int64
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				s.WhenAtLeast(1, 0, 1, func() { fired.Add(1) })
			}()
			go func() {
				defer wg.Done()
				r0.RPutSignal(a, 1, 0, []float64{9}, s, 0, 1)
			}()
			wg.Wait()
			r0.RPutSignal(a, 1, 0, []float64{9}, s, 0, 2)
			if fired.Load() != 1 || s.watchers(1) != 0 {
				t.Fatalf("trial %d: fired %d times, %d still armed; want 1 and 0", i, fired.Load(), s.watchers(1))
			}
		}
	})
}
