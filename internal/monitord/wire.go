package monitord

import "repro/internal/spec"

// The wire vocabulary the request bodies share with the scenario timeline
// grammar; see package spec. A ComponentSpec's version is always emitted.
type (
	Duration      = spec.Duration
	ComponentSpec = spec.ComponentSpec
)

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
	// WatchInterval paces the tenant's watch stream. Default 1s.
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

// ReplicaSpec is the POST …/replicas body: a declared join.
type ReplicaSpec struct {
	ID           string          `json:"id"`
	Components   []ComponentSpec `json:"components"`
	Power        float64         `json:"power"`
	PatchLatency Duration        `json:"patchLatency,omitempty"`
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
// It is spec.VulnSpec field for field but spells the patch key "patchAt",
// so it converts with spec.VulnSpec(vs).
type VulnSpec struct {
	ID        string   `json:"id"`
	Class     string   `json:"class"`
	Product   string   `json:"product"`
	Version   string   `json:"version,omitempty"`
	Disclosed Duration `json:"disclosed"`
	PatchAt   Duration `json:"patchAt"`
	Severity  float64  `json:"severity"`
}

// ReportJSON mirrors diversity.Report on the wire: the GET …/report body.
// The daemon appends its bytes by hand (jsonBody); they are the ones
// encoding/json renders for this struct.
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

// FaultJSON is one vulnerability's effect at the assessed instant.
type FaultJSON struct {
	Vuln          string   `json:"vuln"`
	Compromised   []string `json:"compromised"`
	Power         float64  `json:"power"`
	PowerFraction float64  `json:"powerFraction"`
}

// AssessmentJSON is the wire form of core.Assessment, shared by the GET
// endpoints and the SSE stream. The daemon appends its bytes by hand
// (jsonBody); they are the ones encoding/json renders for this struct.
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
