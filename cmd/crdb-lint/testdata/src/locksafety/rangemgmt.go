// Range split/merge critical sections: both sides' latches are held for the
// duration, every exit path must release both, and nothing order-observable
// may happen under the latch.
package locksafety

import "sync"

type rangeLatch struct {
	mu   sync.Mutex
	span string
}

// mergeLeaksRightLatch locks both sides but only defers the left unlock; the
// early ineligible return leaks the right latch.
func mergeLeaksRightLatch(left, right *rangeLatch, eligible bool) bool {
	left.mu.Lock()
	defer left.mu.Unlock()
	right.mu.Lock() // want locksafety
	if !eligible {
		return false
	}
	right.span = left.span + right.span
	return true
}

// splitNotifiesUnderLatch publishes the range event on a shared channel while
// the latch is held: a slow subscriber stalls every batch on the range.
func splitNotifiesUnderLatch(r *rangeLatch, events chan string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	events <- r.span // want locksafety
}

// mergeBothSidesHeld is the safe shape: ordered acquisition, both deferred.
func mergeBothSidesHeld(left, right *rangeLatch) {
	left.mu.Lock()
	defer left.mu.Unlock()
	right.mu.Lock()
	defer right.mu.Unlock()
	right.span = left.span + right.span
}

// splitNotifiesAfterRelease snapshots under the latch and publishes after.
func splitNotifiesAfterRelease(r *rangeLatch, events chan string) {
	r.mu.Lock()
	span := r.span
	r.mu.Unlock()
	events <- span
}
