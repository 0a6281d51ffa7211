// Package watch is the one-shot watch list that shmem.Int64Array and
// upcxx.SharedArray keep on each PE's instance, so event-driven waiting —
// the delivery that makes a condition true releases its waiter — has one
// implementation of its no-lost-wake-up protocol.
//
// The protocol, for a list guarding data under mutex mu:
//
//	arm:    mu.Lock; if the condition already holds { mu.Unlock; fire }
//	        else { list.Arm(w); mu.Unlock }
//	write:  mu.Lock; store; fired := list.Sweep(holds); mu.Unlock;
//	        fire each of fired
//
// Arming happens in the critical section that found the condition false
// and sweeping in the critical section of every write, so a watcher can
// neither miss the write that satisfies it nor fire twice. Callbacks run
// after the lock is released, on the writer's goroutine.
package watch

// List is the set of watchers armed on one instance. It has no lock of
// its own: every method must be called with the mutex that guards the
// watched data held. W is the owner's watcher type (what to test, what to
// call). The zero List is empty.
type List[W any] struct{ armed []W }

// Len returns the number of armed watchers.
func (l *List[W]) Len() int { return len(l.armed) }

// Arm adds w. The caller has just found, under the lock, that w's
// condition does not hold.
func (l *List[W]) Arm(w W) { l.armed = append(l.armed, w) }

// Sweep removes and returns the watchers that holds reports satisfied;
// holds may record the satisfying value in *w. The caller runs the
// returned watchers' callbacks after it unlocks. An empty list costs one
// length check.
func (l *List[W]) Sweep(holds func(w *W) bool) (fired []W) {
	if len(l.armed) == 0 {
		return nil
	}
	keep := l.armed[:0]
	for i := range l.armed {
		if w := &l.armed[i]; holds(w) {
			fired = append(fired, *w)
		} else {
			keep = append(keep, *w)
		}
	}
	clear(l.armed[len(keep):]) // drop the fired callbacks' captures
	l.armed = keep
	return fired
}
