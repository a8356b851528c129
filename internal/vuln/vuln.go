// Package vuln models the paper's adversary substrate (Sec. II-B): diverse
// vulnerabilities, each targeting a specific component (or every version of
// a product), with an exploitability window running from disclosure until a
// replica applies the patch. A single vulnerability compromises every
// replica whose configuration contains the affected component during its
// window — the "single fault affecting multiple machines" scenario the
// paper argues is unexamined in permissionless blockchains.
//
// The window model follows Sec. I and Remark 1: vulnerabilities can be
// patched, but attacks happen during the vulnerability window; each replica
// has its own patch latency (patch adoption is never instantaneous,
// cf. CVE-2017-18350's multi-year disclosure delay cited in the paper).
package vuln

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/config"
)

// ID identifies a vulnerability, e.g. "CVE-2025-0001".
type ID string

// Vulnerability describes one exploitable flaw.
type Vulnerability struct {
	ID        ID
	Class     config.Class  // component class the flaw lives in
	Product   string        // component name, e.g. "openssl"
	Version   string        // exact version; empty = every version of Product
	Disclosed time.Duration // virtual time the exploit becomes available
	PatchAt   time.Duration // virtual time the patch ships (>= Disclosed)
	// Severity in (0, 1]: fraction of exposed replicas the exploit actually
	// compromises (1 = wormable, fully reliable exploit). The injector
	// applies it deterministically by rank to keep runs replayable.
	Severity float64
}

// Validate checks structural invariants.
func (v Vulnerability) Validate() error {
	if v.ID == "" {
		return errors.New("vuln: empty id")
	}
	if !v.Class.Valid() {
		return fmt.Errorf("vuln %s: invalid class %d", v.ID, v.Class)
	}
	if v.Product == "" {
		return fmt.Errorf("vuln %s: empty product", v.ID)
	}
	if v.PatchAt < v.Disclosed {
		return fmt.Errorf("vuln %s: patch at %v before disclosure %v", v.ID, v.PatchAt, v.Disclosed)
	}
	if v.Severity <= 0 || v.Severity > 1 {
		return fmt.Errorf("vuln %s: severity %v out of (0,1]", v.ID, v.Severity)
	}
	return nil
}

// Affects reports whether the vulnerability applies to a configuration:
// the configuration's component in the vulnerability's class must match the
// product and, when Version is set, the exact version.
func (v Vulnerability) Affects(cfg config.Configuration) bool {
	c, ok := cfg.Component(v.Class)
	if !ok {
		return false
	}
	if c.Name != v.Product {
		return false
	}
	return v.Version == "" || c.Version == v.Version
}

// WindowOpenAt reports whether the exploit is usable at time t against a
// replica that applies patches with the given latency after PatchAt.
func (v Vulnerability) WindowOpenAt(t, patchLatency time.Duration) bool {
	return t >= v.Disclosed && t < v.PatchAt+patchLatency
}

// Catalog is a set of vulnerabilities keyed by ID. It is safe for
// concurrent use: several monitors can share one catalog, and Add may be
// called while they assess (new disclosures land in a live system).
type Catalog struct {
	// mu guards everything below: the ID-keyed set, the lazily built
	// ID-sorted order (invalidated — set nil — by Add), and the mutation
	// counter caches key their staleness checks on.
	mu     sync.Mutex
	vulns  map[ID]Vulnerability
	sorted []Vulnerability
	gen    uint64
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{vulns: make(map[ID]Vulnerability)}
}

// Add validates and inserts a vulnerability. Duplicate IDs are rejected.
func (c *Catalog) Add(v Vulnerability) error {
	if err := v.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.vulns[v.ID]; exists {
		return fmt.Errorf("vuln: duplicate id %s", v.ID)
	}
	c.vulns[v.ID] = v
	c.sorted = nil
	c.gen++
	return nil
}

// Generation counts Adds. Caches derived from the catalog (e.g. a
// monitor's Injector) compare it to decide whether they are stale.
func (c *Catalog) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Len reports the catalog size.
func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.vulns)
}

// allSorted returns the internal ID-sorted slice, rebuilding it only when
// an Add invalidated the cache. The returned slice is never mutated in
// place (invalidation swaps the pointer), so callers may keep iterating
// it after the lock is released; they must not modify it.
func (c *Catalog) allSorted() []Vulnerability {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sorted == nil && len(c.vulns) > 0 {
		sorted := make([]Vulnerability, 0, len(c.vulns))
		for _, v := range c.vulns {
			sorted = append(sorted, v)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
		c.sorted = sorted
	}
	return c.sorted
}

// All returns the vulnerabilities sorted by ID (deterministic iteration).
// The sort order is cached across calls and invalidated by Add.
func (c *Catalog) All() []Vulnerability {
	return append([]Vulnerability(nil), c.allSorted()...)
}

// DisclosedAt returns the vulnerabilities whose disclosure time has passed
// at t (their window may or may not still be open per replica).
func (c *Catalog) DisclosedAt(t time.Duration) []Vulnerability {
	var out []Vulnerability
	for _, v := range c.allSorted() {
		if v.Disclosed <= t {
			out = append(out, v)
		}
	}
	return out
}

// Replica is the injector's view of one replica: its attested
// configuration, voting power, and how long after a patch ships it deploys
// the patch. internal/registry adapts its records to this type. The
// injectors convert Power once, with PowerUnits, to integer units of 1e-9.
type Replica struct {
	Name         string
	Config       config.Configuration
	Power        float64
	PatchLatency time.Duration
}

// Fault is one vulnerability's effect at an instant: the replicas it
// compromises and the voting power they carry — the paper's f_t^i. Power
// and PowerFraction are each one conversion of exact integer unit sums.
type Fault struct {
	Vuln          ID
	Compromised   []string // replica names, deterministic order
	Power         float64  // Σ power of compromised replicas
	PowerFraction float64  // Power / total population power
}

// Injection is the full fault picture at an instant t: one Fault per
// vulnerability with a non-empty compromised set. An injection is
// read-only: a GroupInjector shares each fault's Compromised slice with
// every later injection in which that fault is unchanged.
type Injection struct {
	At     time.Duration
	Faults []Fault
	// TotalFraction is Σ_i f_t^i as a fraction of total power, counting a
	// replica once even if several vulnerabilities hit it: one division of
	// the exact compromised and total unit sums. core.Substrate.Safe is the
	// verdict on it.
	TotalFraction float64
	// SumFraction is the naive Σ_i f_t^i with double counting, matching the
	// paper's summation literally: the faults' PowerFractions summed in
	// fault order.
	SumFraction float64
}

// Inject computes which replicas each disclosed vulnerability compromises
// at time t. Severity s < 1 compromises only the ⌈s·m⌉ exposed replicas
// with the greatest power (an attacker prioritises high-value targets),
// keeping the computation deterministic. For repeated evaluations over the
// same catalog and replica set, build an Injector once instead.
func Inject(catalog *Catalog, replicas []Replica, t time.Duration) (Injection, error) {
	in, err := NewInjector(catalog, replicas)
	if err != nil {
		return Injection{}, err
	}
	return in.Inject(t), nil
}

// WorstWindow returns the injection with the maximum deduplicated
// compromised fraction over [0, horizon] — the adversary's best moment to
// strike — computed exactly by sweeping the finite set of critical
// instants (disclosures and per-replica window closes) instead of sampling
// the time axis at a fixed step. WorstWindowStepwise keeps the sampled
// scan as a cross-check.
func WorstWindow(catalog *Catalog, replicas []Replica, horizon time.Duration) (Injection, error) {
	in, err := NewInjector(catalog, replicas)
	if err != nil {
		return Injection{}, err
	}
	return in.WorstWindow(horizon)
}

// WorstWindowStepwise scans the time axis at the given resolution over
// [0, horizon] and returns the injection with the maximum deduplicated
// compromised fraction among the sampled instants. Unlike WorstWindow it
// can miss a worst window narrower than step. It deliberately evaluates
// each instant with injectRescan — the pre-index algorithm and an
// implementation independent of Injector — so it doubles as the
// cross-check the exact sweep is verified (and benchmarked) against.
func WorstWindowStepwise(catalog *Catalog, replicas []Replica, horizon, step time.Duration) (Injection, error) {
	if step <= 0 {
		return Injection{}, fmt.Errorf("vuln: non-positive step %v", step)
	}
	if horizon < 0 {
		return Injection{}, fmt.Errorf("vuln: negative horizon %v", horizon)
	}
	var worst Injection
	for t := time.Duration(0); t <= horizon; t += step {
		inj, err := injectRescan(catalog, replicas, t)
		if err != nil {
			return Injection{}, err
		}
		if inj.TotalFraction > worst.TotalFraction {
			worst = inj
		}
	}
	return worst, nil
}

// injectRescan is the index-free evaluation of one instant: it re-matches
// every disclosed vulnerability against every replica and re-sorts each
// exposed set, exactly what Inject did before the exposure index existed.
// WorstWindowStepwise uses it so the stepwise baseline measures (and the
// property tests cross-check against) the original algorithm rather than
// an Injector rebuilt per step.
func injectRescan(catalog *Catalog, replicas []Replica, t time.Duration) (Injection, error) {
	if catalog == nil {
		return Injection{}, errors.New("vuln: nil catalog")
	}
	units, total, err := ReplicaUnits(nil, replicas)
	if err != nil {
		return Injection{}, err
	}
	inj := Injection{At: t}
	compromisedOnce := make(map[string]uint64) // replica -> units (dedup)
	for _, v := range catalog.DisclosedAt(t) {
		var exposed []int
		for i, r := range replicas {
			if v.Affects(r.Config) && v.WindowOpenAt(t, r.PatchLatency) {
				exposed = append(exposed, i)
			}
		}
		if len(exposed) == 0 {
			continue
		}
		// Highest-power targets first; name as tie-breaker for determinism.
		sort.Slice(exposed, func(i, j int) bool {
			a, b := exposed[i], exposed[j]
			if units[a] != units[b] {
				return units[a] > units[b]
			}
			return replicas[a].Name < replicas[b].Name
		})
		take := SeverityTake(len(exposed), v.Severity)
		fault := Fault{Vuln: v.ID}
		var taken uint64
		for _, i := range exposed[:take] {
			fault.Compromised = append(fault.Compromised, replicas[i].Name)
			taken += units[i]
			compromisedOnce[replicas[i].Name] = units[i]
		}
		fault.Power, fault.PowerFraction = UnitsPower(taken), UnitFraction(taken, total)
		inj.Faults = append(inj.Faults, fault)
		inj.SumFraction += fault.PowerFraction
	}
	var dedup uint64
	for _, u := range compromisedOnce {
		dedup += u
	}
	inj.TotalFraction = UnitFraction(dedup, total)
	return inj, nil
}
