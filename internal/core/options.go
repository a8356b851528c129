package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/registry"
	"repro/internal/vuln"
)

// Option configures a Monitor at construction time. Options compose; the
// last writer of a knob wins. Invalid options surface as a NewMonitor
// error rather than a misconfigured monitor.
type Option func(*Monitor) error

// WithCatalog sets the vulnerability catalog assessed against the
// registry. The default is an empty catalog (no known faults).
func WithCatalog(catalog *vuln.Catalog) Option {
	return func(m *Monitor) error {
		if catalog == nil {
			return errors.New("core: nil catalog")
		}
		m.catalog = catalog
		return nil
	}
}

// WithWeighting sets how attested and declared replicas are weighted when
// computing effective voting power. Default: registry.DefaultWeighting.
func WithWeighting(w registry.Weighting) Option {
	return func(m *Monitor) error {
		if err := w.Validate(); err != nil {
			return err
		}
		m.weighting = w
		return nil
	}
}

// WithSubstrate selects the consensus family whose tolerance the monitor
// applies; f must lie in (0,1), which the zero Substrate does not.
// Default: BFT.
func WithSubstrate(s Substrate) Option {
	return func(m *Monitor) error {
		if math.IsNaN(s.Tolerance) || s.Tolerance <= 0 || s.Tolerance >= 1 {
			return fmt.Errorf("core: substrate %q tolerance %v out of (0,1)", s.Name, s.Tolerance)
		}
		m.substrate = s
		return nil
	}
}

// WithSummaryFaults makes assessments report summary faults: each Fault
// carries its power and fraction but no compromised-name list. At very
// large populations materialising per-vulnerability name lists is the only
// O(population) step left in an assessment; summary mode keeps the whole
// pipeline on the bucketed aggregates. Safety verdicts, fractions and the
// worst-window sweep are unaffected.
func WithSummaryFaults() Option {
	return func(m *Monitor) error {
		m.summaryFaults = true
		return nil
	}
}

// Clock reports the current virtual time of the deployment; Watch calls
// it at every tick to decide the assessment instant.
type Clock func() time.Duration

// WithClock sets the instant reader used to stamp Watch emissions. The
// default clock is wall time elapsed since the monitor was constructed.
//
// A bare func can only be read, not waited on, so Watch pacing stays on
// the wall ticker; use WithVirtualTime to pace ticks on virtual time too.
func WithClock(c Clock) Option {
	return func(m *Monitor) error {
		if c == nil {
			return errors.New("core: nil clock")
		}
		m.clock = c
		return nil
	}
}

// WithVirtualTime runs Watch entirely on virtual time: vt both stamps and
// paces the stream. One assessment is emitted per watch interval of
// *virtual* time, at the exact boundary instants, with no wall ticker —
// whoever calls vt.Advance controls the cadence, which makes the stream
// deterministic and replayable.
func WithVirtualTime(vt *VirtualTime) Option {
	return func(m *Monitor) error {
		if vt == nil {
			return errors.New("core: nil virtual time")
		}
		m.clock = vt.Now
		m.ticks = vt.ticks
		return nil
	}
}

// WithWatchInterval sets the cadence of Watch emissions. Default: 1s.
func WithWatchInterval(d time.Duration) Option {
	return func(m *Monitor) error {
		if d <= 0 {
			return fmt.Errorf("core: non-positive watch interval %v", d)
		}
		m.interval = d
		return nil
	}
}
