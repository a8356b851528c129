package monitord

import (
	"sync"
	"time"
)

// virtualClock is a virtual tenant's monotone clock, moved only by
// POST …/advance. The tenant's watch loop waits on it for interval
// boundaries, so a virtual tenant's stream emits at exactly the instants
// start+k·interval, however fast or slow the machine, as a deterministic
// function of the advance sequence.
type virtualClock struct {
	mu  sync.Mutex
	now time.Duration
	// advanced is closed and replaced on every move, waking every waiter.
	advanced chan struct{}
}

func newVirtualClock() *virtualClock {
	return &virtualClock{advanced: make(chan struct{})}
}

// Now returns the current virtual instant.
func (v *virtualClock) Now() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Advance moves the clock forward by d (a negative d is ignored) and
// returns the new instant.
func (v *virtualClock) Advance(d time.Duration) time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	if d > 0 {
		v.moveLocked(v.now + d)
	}
	return v.now
}

// AdvanceTo moves the clock forward to t; moving backwards is a no-op.
// It returns the resulting instant.
func (v *virtualClock) AdvanceTo(t time.Duration) time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t > v.now {
		v.moveLocked(t)
	}
	return v.now
}

func (v *virtualClock) moveLocked(t time.Duration) {
	v.now = t
	close(v.advanced)
	v.advanced = make(chan struct{})
}

// waitUntil blocks until the clock reaches target or stop closes; it
// reports whether the target was reached with stop still open. A stopped
// loop therefore returns at once even when the clock has run far ahead of
// it.
func (v *virtualClock) waitUntil(target time.Duration, stop <-chan struct{}) bool {
	for {
		v.mu.Lock()
		now, advanced := v.now, v.advanced
		v.mu.Unlock()
		if now >= target {
			select {
			case <-stop:
				return false
			default:
				return true
			}
		}
		select {
		case <-stop:
			return false
		case <-advanced:
		}
	}
}
