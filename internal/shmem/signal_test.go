package shmem

import (
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/simnet"
)

// watchers reports how many conditions are still armed on PE rank.
func (a *Int64Array) watchers(rank int) int {
	a.mus[rank].Lock()
	defer a.mus[rank].Unlock()
	return a.watch[rank].Len()
}

// TestPutSignalPayloadBeforeSignal: many PEs PutSignal at one reader
// concurrently; the reader, woken by the watch list each time a writer's
// signal word advances, must find that writer's payload already there.
// The payload is read through Local with no lock, so under -race a signal
// that could be observed before its payload is a reported data race, not
// only a wrong value.
func TestPutSignalPayloadBeforeSignal(t *testing.T) {
	const writers, rounds, width = 6, 200, 16
	w := NewWorld(writers+1, simnet.CostModel{Alpha: 5 * time.Microsecond})
	data := w.AllocInt64(writers * width)
	sig := w.AllocInt64(writers)
	ack := w.AllocInt64(1)
	const reader = writers

	var wg sync.WaitGroup
	for s := 0; s < writers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			pe := w.PE(s)
			vals := make([]int64, width)
			for r := int64(1); r <= rounds; r++ {
				// The reader acknowledges round r-1 before the region is
				// rewritten, as any signalled-buffer protocol must.
				pe.WaitUntil(ack, 0, CmpGE, r-1)
				for i := range vals {
					vals[i] = r*1000 + int64(s)
				}
				pe.PutSignal(data, reader, s*width, vals, sig, s, r, SignalSet)
			}
		}(s)
	}

	rp := w.PE(reader)
	for r := int64(1); r <= rounds; r++ {
		var seen sync.WaitGroup
		seen.Add(writers)
		for s := 0; s < writers; s++ {
			s := s
			sig.When(reader, s, CmpGE, r, func(cur int64) {
				if cur != r {
					t.Errorf("writer %d round %d: watcher saw signal %d", s, r, cur)
				}
				seen.Done()
			})
		}
		seen.Wait()
		for s := 0; s < writers; s++ {
			for i, v := range data.Local(reader)[s*width : (s+1)*width] {
				if v != r*1000+int64(s) {
					t.Fatalf("writer %d round %d: payload[%d] = %d after its signal fired", s, r, i, v)
				}
			}
			rp.PutValue(ack, s, 0, r)
		}
	}
	wg.Wait()
	if n := sig.watchers(reader); n != 0 {
		t.Fatalf("%d watchers left armed after every round fired", n)
	}
}

// TestWatcherFiresExactlyOnce covers the three orders of registration and
// the satisfying update — armed before it, armed after it, and racing
// it — and that later updates do not fire a watcher again.
func TestWatcherFiresExactlyOnce(t *testing.T) {
	w := NewWorld(2, simnet.CostModel{})
	p0 := w.PE(0)

	t.Run("registered-before", func(t *testing.T) {
		a := w.AllocInt64(1)
		var fired atomic.Int64
		a.When(1, 0, CmpGE, 3, func(cur int64) { fired.Add(1) })
		p0.PutValue(a, 1, 0, 2) // not yet
		if fired.Load() != 0 || a.watchers(1) != 1 {
			t.Fatalf("fired %d, %d armed after an update that does not satisfy", fired.Load(), a.watchers(1))
		}
		p0.PutValue(a, 1, 0, 3)
		p0.PutValue(a, 1, 0, 4)
		if fired.Load() != 1 || a.watchers(1) != 0 {
			t.Fatalf("fired %d times, %d still armed; want 1 and 0", fired.Load(), a.watchers(1))
		}
	})

	t.Run("registered-after", func(t *testing.T) {
		a := w.AllocInt64(1)
		p0.PutValue(a, 1, 0, 7)
		var got []int64
		a.When(1, 0, CmpEQ, 7, func(cur int64) { got = append(got, cur) })
		p0.PutValue(a, 1, 0, 7)
		if len(got) != 1 || got[0] != 7 || a.watchers(1) != 0 {
			t.Fatalf("fired with %v, %d armed; want [7] and 0", got, a.watchers(1))
		}
	})

	t.Run("racing", func(t *testing.T) {
		const trials = 2000
		for i := 0; i < trials; i++ {
			a := w.AllocInt64(1)
			var fired atomic.Int64
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				a.When(1, 0, CmpNE, 0, func(int64) { fired.Add(1) })
			}()
			go func() {
				defer wg.Done()
				p0.Add(a, 1, 0, 1)
			}()
			wg.Wait()
			p0.Add(a, 1, 0, 1)
			if fired.Load() != 1 || a.watchers(1) != 0 {
				t.Fatalf("trial %d: fired %d times, %d still armed; want 1 and 0", i, fired.Load(), a.watchers(1))
			}
		}
	})
}

// TestManyWatchersOneList: many conditions armed on one PE's list, each
// satisfied by its own remote put, each fires once with the value that
// satisfied it, and the list ends empty.
func TestManyWatchersOneList(t *testing.T) {
	const conds = 64
	w := NewWorld(2, simnet.CostModel{Alpha: 20 * time.Microsecond})
	a := w.AllocInt64(conds)
	fired := make([]atomic.Int64, conds)
	var all sync.WaitGroup
	all.Add(conds)
	for i := 0; i < conds; i++ {
		i := i
		a.When(1, i, CmpEQ, int64(i+1), func(cur int64) {
			if cur != int64(i+1) {
				t.Errorf("cond %d fired with %d", i, cur)
			}
			fired[i].Add(1)
			all.Done()
		})
	}
	for i := conds - 1; i >= 0; i-- {
		w.PE(0).PutValue(a, 1, i, int64(i+1))
	}
	all.Wait()
	w.PE(0).Quiet()
	for i := range fired {
		if n := fired[i].Load(); n != 1 {
			t.Errorf("cond %d fired %d times", i, n)
		}
	}
	if n := a.watchers(1); n != 0 {
		t.Fatalf("%d watchers left armed", n)
	}
}

// chaosSeed is the fault seed, overridable by `make chaos`'s seed matrix.
func chaosSeed(t *testing.T) uint64 {
	s := os.Getenv("HIPER_CHAOS_SEED")
	if s == "" {
		return 42
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("HIPER_CHAOS_SEED=%q: %v", s, err)
	}
	return v
}

// TestPutSignalAddReliableChaos: over Reliable(Chaos) at 5 % drop + 5 %
// dup, every PutSignal(SignalAdd) must apply exactly once — a dropped
// frame retransmitted, a duplicated one discarded — so the signal word
// ends at the exact sum of the deltas and every batch is in its region.
func TestPutSignalAddReliableChaos(t *testing.T) {
	const pes, rounds, width = 4, 150, 8
	chaos := fabric.NewChaos(fabric.NewSim(pes, simnet.CostModel{Alpha: time.Microsecond}),
		fabric.FaultPlan{Seed: chaosSeed(t), Drop: 0.05, Dup: 0.05})
	w := NewWorldOver(fabric.NewReliable(chaos, fabric.RelConfig{}))
	data := w.AllocInt64(pes * rounds * width)
	sig := w.AllocInt64(pes)

	var wg sync.WaitGroup
	for s := 1; s < pes; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			pe := w.PE(s)
			vals := make([]int64, width)
			for r := 0; r < rounds; r++ {
				for i := range vals {
					vals[i] = int64(s*1_000_000 + r*width + i)
				}
				pe.PutSignal(data, 0, (s*rounds+r)*width, vals, sig, s, int64(r+1), SignalAdd)
			}
			pe.Quiet()
		}(s)
	}
	// The watch list wakes PE 0 once each channel's counter reaches its
	// total; a lost add would hang here, a doubled one shows below.
	const total = rounds * (rounds + 1) / 2
	for s := 1; s < pes; s++ {
		w.PE(0).WaitUntil(sig, s, CmpGE, total)
	}
	wg.Wait()
	for s := 1; s < pes; s++ {
		if got := sig.Peek(0, s); got != total {
			t.Errorf("channel %d: signal %d after Quiet, want %d (a delta applied twice or never)", s, got, total)
		}
		for r := 0; r < rounds; r++ {
			for i := 0; i < width; i++ {
				if got, want := data.Local(0)[(s*rounds+r)*width+i], int64(s*1_000_000+r*width+i); got != want {
					t.Fatalf("channel %d round %d: payload[%d] = %d, want %d", s, r, i, got, want)
				}
			}
		}
	}
}
