package monitord

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/diversity"
	"repro/internal/vuln"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("36h0m0s") and unmarshals from either a duration string ("36h") or a
// JSON number of nanoseconds.
type Duration time.Duration

// MarshalJSON renders the duration string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "72h" or 259200000000000.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("monitord: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("monitord: bad duration %s: %w", b, err)
	}
	*d = Duration(n)
	return nil
}

// TenantSpec is the PUT /tenants/{tenant} body. The zero value is a valid
// spec: a wall-clock BFT tenant with default weighting, a 1s watch
// interval, and an empty population.
type TenantSpec struct {
	// Substrate names the consensus family: "bft" (default) or "nakamoto".
	Substrate string `json:"substrate,omitempty"`
	// Threshold sets a bespoke tolerated fraction f in (0,1) instead of a
	// named family; mutually exclusive with Substrate.
	Threshold float64 `json:"threshold,omitempty"`
	// Weighting discounts tiers (two-tier enforcement); nil = face value.
	Weighting *WeightingSpec `json:"weighting,omitempty"`
	// WatchInterval paces the tenant's Watch stream. Default 1s.
	WatchInterval Duration `json:"watchInterval,omitempty"`
	// Virtual runs the tenant on a virtual clock driven by POST …/advance;
	// the default is wall time since creation.
	Virtual bool `json:"virtual,omitempty"`
	// Replicas seeds the population at creation.
	Replicas []ReplicaSpec `json:"replicas,omitempty"`
	// Vulns seeds the catalog at creation.
	Vulns []VulnSpec `json:"vulns,omitempty"`
}

// WeightingSpec mirrors registry.Weighting on the wire.
type WeightingSpec struct {
	Attested float64 `json:"attested"`
	Declared float64 `json:"declared"`
}

// ComponentSpec is one stack component; Class uses the canonical class
// names ("operating-system", "crypto-library", …).
type ComponentSpec struct {
	Class   string `json:"class"`
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
}

// classByName inverts config.Class.String for wire parsing.
var classByName = func() map[string]config.Class {
	m := make(map[string]config.Class, len(config.Classes()))
	for _, c := range config.Classes() {
		m[c.String()] = c
	}
	return m
}()

func (cs ComponentSpec) component() (config.Component, error) {
	class, ok := classByName[cs.Class]
	if !ok {
		return config.Component{}, fmt.Errorf("monitord: unknown component class %q", cs.Class)
	}
	return config.Component{Class: class, Name: cs.Name, Version: cs.Version}, nil
}

// ReplicaSpec is the POST …/replicas body: a declared join.
type ReplicaSpec struct {
	ID           string          `json:"id"`
	Components   []ComponentSpec `json:"components"`
	Power        float64         `json:"power"`
	PatchLatency Duration        `json:"patchLatency,omitempty"`
}

func (rs ReplicaSpec) configuration() (config.Configuration, error) {
	comps := make([]config.Component, 0, len(rs.Components))
	for _, cs := range rs.Components {
		c, err := cs.component()
		if err != nil {
			return config.Configuration{}, err
		}
		comps = append(comps, c)
	}
	return config.New(comps...)
}

// ReplicaPatch is the PATCH …/replicas/{id} body; both fields are
// optional and compose (a power change plus a migration is one request).
type ReplicaPatch struct {
	// Power, when set, updates the replica's raw voting power.
	Power *float64 `json:"power,omitempty"`
	// Components, when non-empty, migrates the replica to a new
	// configuration (demoting it to the declared tier, as a real upgrade
	// invalidates the previous measurement).
	Components []ComponentSpec `json:"components,omitempty"`
}

// VulnSpec is the POST …/vulns body: one disclosure with its patch event.
type VulnSpec struct {
	ID        string   `json:"id"`
	Class     string   `json:"class"`
	Product   string   `json:"product"`
	Version   string   `json:"version,omitempty"`
	Disclosed Duration `json:"disclosed"`
	PatchAt   Duration `json:"patchAt"`
	Severity  float64  `json:"severity"`
}

func (vs VulnSpec) vulnerability() (vuln.Vulnerability, error) {
	class, ok := classByName[vs.Class]
	if !ok {
		return vuln.Vulnerability{}, fmt.Errorf("monitord: unknown component class %q", vs.Class)
	}
	return vuln.Vulnerability{
		ID:        vuln.ID(vs.ID),
		Class:     class,
		Product:   vs.Product,
		Version:   vs.Version,
		Disclosed: time.Duration(vs.Disclosed),
		PatchAt:   time.Duration(vs.PatchAt),
		Severity:  vs.Severity,
	}, nil
}

// ReportJSON mirrors diversity.Report on the wire.
type ReportJSON struct {
	Support                 int     `json:"support"`
	Members                 int     `json:"members"`
	Entropy                 float64 `json:"entropy"`
	NormalizedEntropy       float64 `json:"normalizedEntropy"`
	EffectiveConfigurations float64 `json:"effectiveConfigurations"`
	SimpsonIndex            float64 `json:"simpsonIndex"`
	MaxShare                float64 `json:"maxShare"`
	Kappa                   int     `json:"kappa,omitempty"`
	Omega                   int     `json:"omega,omitempty"`
	MinConfigFaultsToThird  int     `json:"minConfigFaultsToThird"`
	MinConfigFaultsToHalf   int     `json:"minConfigFaultsToHalf"`
}

func reportJSON(r diversity.Report) ReportJSON {
	return ReportJSON{
		Support:                 r.Support,
		Members:                 r.Members,
		Entropy:                 r.Entropy,
		NormalizedEntropy:       r.NormalizedEntropy,
		EffectiveConfigurations: r.EffectiveConfigurations,
		SimpsonIndex:            r.SimpsonIndex,
		MaxShare:                r.MaxShare,
		Kappa:                   r.Kappa,
		Omega:                   r.Omega,
		MinConfigFaultsToThird:  r.MinConfigFaultsToThird,
		MinConfigFaultsToHalf:   r.MinConfigFaultsToHalf,
	}
}

// FaultJSON is one vulnerability's effect at the assessed instant.
type FaultJSON struct {
	Vuln          string   `json:"vuln"`
	Compromised   []string `json:"compromised"`
	Power         float64  `json:"power"`
	PowerFraction float64  `json:"powerFraction"`
}

// AssessmentJSON is the wire form of core.Assessment, shared by the GET
// endpoints and the SSE stream.
type AssessmentJSON struct {
	Tenant        string      `json:"tenant,omitempty"`
	At            Duration    `json:"at"`
	Substrate     string      `json:"substrate"`
	Threshold     float64     `json:"threshold"`
	Safe          bool        `json:"safe"`
	TotalFraction float64     `json:"totalFraction"`
	SumFraction   float64     `json:"sumFraction"`
	Diversity     ReportJSON  `json:"diversity"`
	Faults        []FaultJSON `json:"faults,omitempty"`
}

func assessmentJSON(tenant string, a core.Assessment) AssessmentJSON {
	out := AssessmentJSON{
		Tenant:        tenant,
		At:            Duration(a.At),
		Substrate:     a.Substrate,
		Threshold:     a.Threshold,
		Safe:          a.Safe,
		TotalFraction: a.Injection.TotalFraction,
		SumFraction:   a.Injection.SumFraction,
		Diversity:     reportJSON(a.Diversity),
	}
	for _, f := range a.Injection.Faults {
		out.Faults = append(out.Faults, FaultJSON{
			Vuln:          string(f.Vuln),
			Compromised:   f.Compromised,
			Power:         f.Power,
			PowerFraction: f.PowerFraction,
		})
	}
	return out
}

// CacheStatsJSON mirrors core.CacheStats.
type CacheStatsJSON struct {
	Rebuilds     uint64 `json:"rebuilds"`
	DeltaApplies uint64 `json:"deltaApplies"`
	Hits         uint64 `json:"hits"`
	// Assessments that evaluated no fault picture: the instant lay inside
	// the interval the previous evaluation holds on.
	AssessMemoHits uint64 `json:"assessMemoHits"`
	// Worst-window sweeps run, the critical instants they covered and the
	// instants the pruning bound could not skip.
	WorstSweeps    uint64 `json:"worstSweeps"`
	WorstInstants  uint64 `json:"worstInstants"`
	WorstEvaluated uint64 `json:"worstEvaluated"`
}

// TenantInfo is the GET /tenants/{tenant} body.
type TenantInfo struct {
	Name         string         `json:"name"`
	Virtual      bool           `json:"virtual"`
	Now          Duration       `json:"now"`
	Substrate    string         `json:"substrate"`
	Threshold    float64        `json:"threshold"`
	Replicas     int            `json:"replicas"`
	Attested     int            `json:"attested"`
	Declared     int            `json:"declared"`
	Vulns        int            `json:"vulns"`
	Generation   uint64         `json:"generation"`
	Watchers     int            `json:"watchers"`
	WatchEvents  uint64         `json:"watchEvents"`
	WatchDropped uint64         `json:"watchDropped"`
	Cache        CacheStatsJSON `json:"cache"`
}

func tenantInfo(t *Tenant) TenantInfo {
	attested, declared, _, _ := t.Registry.TierCounts()
	events, dropped := t.hub.stats()
	cs := t.Monitor.Stats()
	return TenantInfo{
		Name:         t.Name,
		Virtual:      t.Virtual(),
		Now:          Duration(t.Now()),
		Substrate:    t.substrate,
		Threshold:    t.threshold,
		Replicas:     t.Registry.Size(),
		Attested:     attested,
		Declared:     declared,
		Vulns:        t.Catalog.Len(),
		Generation:   t.Registry.Generation(),
		Watchers:     t.hub.subscribers(),
		WatchEvents:  events,
		WatchDropped: dropped,
		Cache:        CacheStatsJSON(cs),
	}
}

// ServerStats is the GET /stats body: the service-wide aggregate.
type ServerStats struct {
	Tenants           int    `json:"tenants"`
	Replicas          int    `json:"replicas"`
	Watchers          int    `json:"watchers"`
	WatchEvents       uint64 `json:"watchEvents"`
	WatchDropped      uint64 `json:"watchDropped"`
	CacheRebuilds     uint64 `json:"cacheRebuilds"`
	CacheDeltaApplies uint64 `json:"cacheDeltaApplies"`
	CacheHits         uint64 `json:"cacheHits"`
	// AssessMemoHits of CacheHits skipped the fault-picture evaluation too:
	// how often a read is really free.
	AssessMemoHits uint64 `json:"assessMemoHits"`
	// WorstEvaluated close to WorstInstants means worst-window sweeps are
	// running unpruned.
	WorstSweeps    uint64 `json:"worstSweeps"`
	WorstInstants  uint64 `json:"worstInstants"`
	WorstEvaluated uint64 `json:"worstEvaluated"`
}

// AdvanceSpec is the POST …/advance body; exactly one of By or To must be
// set.
type AdvanceSpec struct {
	By Duration `json:"by,omitempty"`
	To Duration `json:"to,omitempty"`
}
