package watch

import (
	"slices"
	"testing"
)

func TestSweepRemovesExactlyTheSatisfied(t *testing.T) {
	var l List[int]
	if got := l.Sweep(func(*int) bool { t.Fatal("predicate called on an empty list"); return true }); got != nil {
		t.Fatalf("empty list fired %v", got)
	}
	for i := 1; i <= 6; i++ {
		l.Arm(i)
	}
	backing := l.armed
	fired := l.Sweep(func(w *int) bool {
		if *w%2 != 0 {
			return false
		}
		*w *= 10 // a predicate may record what satisfied it
		return true
	})
	if !slices.Equal(fired, []int{20, 40, 60}) || !slices.Equal(l.armed, []int{1, 3, 5}) {
		t.Fatalf("fired %v, kept %v; want [20 40 60] and [1 3 5]", fired, l.armed)
	}
	if !slices.Equal(backing[3:6], []int{0, 0, 0}) {
		t.Fatalf("vacated slots %v still hold watchers", backing[3:6])
	}
	if again := l.Sweep(func(w *int) bool { return *w%2 == 0 }); again != nil || l.Len() != 3 {
		t.Fatalf("second sweep fired %v, %d armed; a fired watcher must not fire again", again, l.Len())
	}
}
