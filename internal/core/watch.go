package core

import (
	"context"
)

// Watch streams assessments continuously: one immediately, then one per
// watch interval (WithWatchInterval), each taken at an instant reported by
// the monitor's time source. The channel is closed when ctx is cancelled
// or an assessment fails, so a for-range over the stream terminates
// cleanly.
//
// Pacing follows the configured time source. The default is wall time: a
// time.Ticker fires per interval and each tick is stamped with the
// monitor's clock. With WithVirtualTime the wall ticker disappears
// entirely — emissions happen at the exact virtual boundaries
// start+interval, start+2·interval, ... as the driver advances the clock,
// so the emission instants are deterministic and replayable. (WithClock
// alone injects only an instant *reader*; a bare func cannot signal
// advancement, so pacing stays on the wall ticker — prefer WithVirtualTime
// for virtual deployments.)
//
// Ticks on an unchanged registry are near-free: the diversity report and
// the vulnerability exposure index come from the monitor's per-snapshot
// cache (see Monitor), and the fault picture itself is re-evaluated only by
// the first tick past a disclosure or window close — every other tick is
// the memoised assessment with a new At.
//
// Registry churn during a live stream is supported: mutation and snapshot
// reads are synchronized inside the registry, so every assessment sees
// either the pre- or the post-mutation membership, never a torn one. For
// bit-exact replayable churn timelines use the scenario engine
// (internal/scenario), which serializes mutation and assessment on one
// scheduler instead of racing them.
//
// Usage:
//
//	ctx, cancel := context.WithCancel(context.Background())
//	defer cancel()
//	for a := range mon.Watch(ctx) {
//		if !a.Safe { ... }
//	}
func (m *Monitor) Watch(ctx context.Context) <-chan Assessment {
	out := make(chan Assessment, 1)
	go func() {
		defer close(out)
		// The tick source runs its own goroutine; cancel it when this
		// stream ends for any reason (assessment failure included), not
		// only when the caller's ctx does — otherwise a dead stream would
		// leak the source and its wall ticker.
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		start := m.clock()
		a, err := m.Assess(start)
		if err != nil {
			return
		}
		select {
		case out <- a:
		case <-ctx.Done():
			return
		}
		ticks := m.ticks
		if ticks == nil {
			ticks = wallTicks(m.clock)
		}
		for t := range ticks(ctx, start, m.interval) {
			a, err := m.Assess(t)
			if err != nil {
				return
			}
			select {
			case out <- a:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}
