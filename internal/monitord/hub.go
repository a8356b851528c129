package monitord

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core"
)

// errHubClosed is returned by subscribe after the hub's tenant was deleted
// or the server shut down.
var errHubClosed = errors.New("monitord: hub closed")

// subscriberBuffer bounds each subscriber's channel. A subscriber that
// falls further behind than this misses new assessments until it drains
// (drops are counted): one slow SSE client must not stall the shared
// broadcast and with it every other watcher on the tenant.
const subscriberBuffer = 16

// hub paces a tenant's watch and fans it out to any number of
// subscribers. One loop goroutine runs while the tenant has subscribers and
// none otherwise, so a thousand idle tenants cost nothing. Each instant is
// assessed once however many watchers are attached — the monitor's
// per-snapshot cache then makes that one assessment itself near-free on an
// unchanged registry (see core.CacheStats).
type hub struct {
	t *Tenant

	mu     sync.Mutex
	subs   map[int]chan core.Assessment
	nextID int
	// epoch guards against a stopped loop that has not yet seen stop
	// closed delivering into a restarted subscriber set.
	epoch uint64
	stop  chan struct{} // closed to end the running loop; nil when none runs
	// done is closed by the last loop started when it returns: whoever
	// ends a loop waits on it, outside h.mu, which the loop takes to
	// broadcast.
	done    chan struct{}
	closed  bool
	events  uint64 // assessments broadcast
	dropped uint64 // per-subscriber deliveries lost to a full buffer
}

func newHub(t *Tenant) *hub {
	return &hub{t: t, subs: make(map[int]chan core.Assessment)}
}

// subscribe attaches a new subscriber and returns its id and channel. The
// channel is closed when the subscriber is removed, an assessment fails,
// or the hub closes.
func (h *hub) subscribe() (int, <-chan core.Assessment, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, nil, errHubClosed
	}
	id := h.nextID
	h.nextID++
	ch := make(chan core.Assessment, subscriberBuffer)
	h.subs[id] = ch
	if h.stop == nil {
		h.stop, h.done = make(chan struct{}), make(chan struct{})
		go h.run(h.epoch, h.stop, h.done)
	}
	return id, ch, nil
}

// run is the watch loop. It assesses at the tenant's current instant, then
// once per interval: on a virtual tenant exactly at each boundary
// start+k·interval as the clock crosses it (one advance across several
// boundaries emits each, up to the last subscriberBuffer of them; see
// skip), on a wall tenant at each tick of a time.Ticker, stamped with the
// tenant's clock. It returns when stop closes or an assessment fails, and
// closes done when it has; a failure closes every subscriber, so their SSE
// handlers end instead of waiting on a stream that will never emit again.
// Assessment runs outside h.mu.
func (h *hub) run(epoch uint64, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := h.t
	var tick <-chan time.Time
	if t.vt == nil {
		ticker := time.NewTicker(t.interval)
		defer ticker.Stop()
		tick = ticker.C
	}
	at := t.Now()
	for next := at + t.interval; ; next += t.interval {
		a, err := t.Monitor.Assess(at)
		if err != nil {
			h.mu.Lock()
			if h.epoch == epoch {
				h.stopLocked()
			}
			h.mu.Unlock()
			return
		}
		h.broadcast(epoch, a)
		if t.vt != nil {
			if !t.vt.waitUntil(next, stop) {
				return
			}
			if n := (t.vt.Now()-next)/t.interval + 1; n > subscriberBuffer {
				skipped := n - subscriberBuffer
				next += skipped * t.interval
				h.skip(epoch, uint64(skipped))
			}
			at = next
			continue
		}
		select {
		case <-stop:
			return
		case <-tick:
			at = t.Now()
		}
	}
}

// skip accounts for boundaries a loop of epoch passes over without
// assessing them — those of one advance beyond its last subscriberBuffer,
// which no subscriber's buffer could have held — as one drop per boundary
// for every subscriber.
func (h *hub) skip(epoch, boundaries uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || h.epoch != epoch {
		return
	}
	h.dropped += boundaries * uint64(len(h.subs))
}

// stopLocked ends the running loop and closes every subscriber, and
// returns what endLoopLocked does. h.mu must be held.
func (h *hub) stopLocked() <-chan struct{} {
	done := h.endLoopLocked()
	for id, ch := range h.subs {
		delete(h.subs, id)
		close(ch)
	}
	return done
}

// endLoopLocked signals the running loop, if any, to return, and moves
// the epoch on so nothing it still assesses is delivered. It returns the
// channel the last loop started closes when it returns (closed already if
// it has; nil if none ever ran), for the caller to wait on once it has
// released h.mu. h.mu must be held.
func (h *hub) endLoopLocked() <-chan struct{} {
	if h.stop != nil {
		close(h.stop)
		h.stop = nil
	}
	h.epoch++
	return h.done
}

// wait blocks until done, if any, is closed.
func wait(done <-chan struct{}) {
	if done != nil {
		<-done
	}
}

// broadcast delivers one assessment to every current subscriber,
// non-blocking: a full subscriber buffer counts a drop rather than
// stalling the stream for everyone else.
func (h *hub) broadcast(epoch uint64, a core.Assessment) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || h.epoch != epoch {
		return
	}
	h.events++
	for _, ch := range h.subs {
		select {
		case ch <- a:
		default:
			h.dropped++
		}
	}
}

// unsubscribe detaches a subscriber; the last one out ends the loop and
// returns only once it has.
func (h *hub) unsubscribe(id int) {
	h.mu.Lock()
	ch, ok := h.subs[id]
	if !ok {
		h.mu.Unlock()
		return
	}
	delete(h.subs, id)
	close(ch)
	var done <-chan struct{}
	if len(h.subs) == 0 {
		done = h.endLoopLocked()
	}
	h.mu.Unlock()
	wait(done)
}

// close tears the hub down: the loop ends and every subscriber channel
// closes. Further subscribes fail. It returns once the loop has, also when
// the loop had ended itself on a failed assessment.
func (h *hub) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	done := h.stopLocked()
	h.mu.Unlock()
	wait(done)
}

// subscribers reports the current subscriber count.
func (h *hub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// stats reports lifetime broadcast and drop counts.
func (h *hub) stats() (events, dropped uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.events, h.dropped
}
