package core

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/diversity"
	"repro/internal/registry"
	"repro/internal/vuln"
)

func propCfg(os string) config.Configuration {
	return config.MustNew(
		config.Component{Class: config.ClassOperatingSystem, Name: os, Version: "1"},
	)
}

// TestIncrementalMatchesColdRebuild is the equivalence property behind the
// whole O(Δ) path: it drives ~10k random mutations (Join / Leave /
// SetPower / Migrate / catalog Disclose) through one long-lived monitor —
// whose caches only ever delta-apply after the first assessment — and at
// every step cross-checks the incremental state against cold oracles
// rebuilt from scratch:
//
//   - the snapshot's per-replica view against a shadow membership the test
//     maintains independently (catches any bucket/group drift);
//   - the snapshot's Distribution against one whose units are summed
//     member by member;
//   - the diversity report (incremental: bucket aggregates) against
//     diversity.ReportForPopulation over the per-replica view;
//   - the assessment's Injection (incremental: GroupInjector) against the
//     flat vuln.Inject cold path, compared as JSON bytes;
//   - periodically, WorstAssessment against the flat event-driven
//     vuln.WorstWindow sweep, compared as JSON bytes.
//
// Powers are whole or one-decimal and every comparison is exact equality,
// not tolerance-based. The test runs under -race in CI.
func TestIncrementalMatchesColdRebuild(t *testing.T) {
	steps := 10000
	if testing.Short() {
		steps = 1500
	}
	const (
		maxReplicas = 220
		maxVulns    = 50
		horizon     = 48 * time.Hour
	)
	rng := rand.New(rand.NewSource(20230108))
	weighting := registry.Weighting{Attested: 1, Declared: 0.5}
	reg := registry.New(nil)
	cat := vuln.NewCatalog()
	mon, err := NewMonitor(reg, WithCatalog(cat), WithWeighting(weighting))
	if err != nil {
		t.Fatal(err)
	}

	osPool := make([]string, 10)
	for i := range osPool {
		osPool[i] = fmt.Sprintf("os-%d", i)
	}
	latencies := []time.Duration{0, time.Hour, 2 * time.Hour, 3 * time.Hour}
	severities := []float64{0.25, 0.5, 1}
	// drawPower is a whole power or, as often, a one-decimal one.
	drawPower := func() float64 {
		p := float64(1 + rng.Intn(100))
		if rng.Intn(2) == 0 {
			p /= 10
		}
		return p
	}

	// Shadow membership: the test's own record of what the registry must
	// contain, maintained with none of the registry's machinery.
	shadow := make(map[registry.ReplicaID]vuln.Replica)
	var alive []registry.ReplicaID
	nextID, nextCVE := 0, 0

	join := func() {
		id := registry.ReplicaID(fmt.Sprintf("r-%05d", nextID))
		nextID++
		cfg := propCfg(osPool[rng.Intn(len(osPool))])
		power := drawPower()
		lat := latencies[rng.Intn(len(latencies))]
		if err := reg.JoinDeclared(id, cfg, power, lat); err != nil {
			t.Fatal(err)
		}
		alive = append(alive, id)
		shadow[id] = vuln.Replica{Name: string(id), Config: cfg, Power: power * weighting.Declared, PatchLatency: lat}
	}
	pick := func() (int, registry.ReplicaID) {
		i := rng.Intn(len(alive))
		return i, alive[i]
	}
	leave := func() {
		i, id := pick()
		if err := reg.Leave(id); err != nil {
			t.Fatal(err)
		}
		alive[i] = alive[len(alive)-1]
		alive = alive[:len(alive)-1]
		delete(shadow, id)
	}
	setPower := func() {
		_, id := pick()
		power := drawPower()
		if err := reg.SetPower(id, power); err != nil {
			t.Fatal(err)
		}
		rep := shadow[id]
		rep.Power = power * weighting.Declared
		shadow[id] = rep
	}
	migrate := func() {
		_, id := pick()
		cfg := propCfg(osPool[rng.Intn(len(osPool))])
		if err := reg.Migrate(id, cfg); err != nil {
			t.Fatal(err)
		}
		rep := shadow[id]
		rep.Config = cfg
		shadow[id] = rep
	}
	disclose := func() {
		disclosed := time.Duration(rng.Intn(36)) * time.Hour
		v := vuln.Vulnerability{
			ID:        vuln.ID(fmt.Sprintf("CVE-%04d", nextCVE)),
			Class:     config.ClassOperatingSystem,
			Product:   osPool[rng.Intn(len(osPool))],
			Disclosed: disclosed,
			PatchAt:   disclosed + time.Duration(1+rng.Intn(12))*time.Hour,
			Severity:  severities[rng.Intn(len(severities))],
		}
		nextCVE++
		if err := cat.Add(v); err != nil {
			t.Fatal(err)
		}
	}

	// expected returns the shadow membership as the name-sorted replica
	// slice the snapshot must expose.
	expected := func() []vuln.Replica {
		out := make([]vuln.Replica, 0, len(shadow))
		for _, rep := range shadow {
			out = append(out, rep)
		}
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}
	asJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	for i := 0; i < 8; i++ {
		join()
	}
	disclose()

	for step := 0; step < steps; step++ {
		// One random mutation, bounded so the cold oracles stay cheap.
		switch op := rng.Intn(100); {
		case op < 30 && len(alive) < maxReplicas:
			join()
		case op < 45 && len(alive) > 1:
			leave()
		case op < 65:
			setPower()
		case op < 85:
			migrate()
		case cat.Len() < maxVulns:
			disclose()
		default:
			setPower()
		}

		at := time.Duration(rng.Intn(48)) * time.Hour
		a, err := mon.Assess(at)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := reg.Snapshot(weighting)
		if err != nil {
			t.Fatal(err)
		}

		want := expected()
		if got := snap.Replicas(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: snapshot replicas diverged from shadow membership\n got %d: %+v\nwant %d: %+v",
				step, len(got), got, len(want), want)
		}
		byLabel := make(map[string]uint64, len(want))
		for _, rep := range want {
			u, err := vuln.PowerUnits(rep.Power)
			if err != nil {
				t.Fatal(err)
			}
			byLabel[rep.Config.Digest().String()] += u
		}
		labels := slices.Sorted(maps.Keys(byLabel))
		units := make([]uint64, len(labels))
		for i, label := range labels {
			units[i] = byLabel[label]
		}
		wantDist, err := diversity.FromSorted(labels, units)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snap.Distribution, wantDist) {
			t.Fatalf("step %d: delta-built distribution diverged from member-summed oracle", step)
		}
		coldReport, err := diversity.ReportForPopulation(snap.Population())
		if err != nil {
			t.Fatal(err)
		}
		if a.Diversity != coldReport {
			t.Fatalf("step %d: aggregate report %+v != cold report %+v", step, a.Diversity, coldReport)
		}
		coldInj, err := vuln.Inject(cat, want, at)
		if err != nil {
			t.Fatal(err)
		}
		if gotJ, wantJ := asJSON(a.Injection), asJSON(coldInj); gotJ != wantJ {
			t.Fatalf("step %d: incremental injection at %v diverged from cold rebuild\n got %s\nwant %s",
				step, at, gotJ, wantJ)
		}

		if step%127 == 0 || step == steps-1 {
			worst, err := mon.WorstAssessment(horizon)
			if err != nil {
				t.Fatal(err)
			}
			coldWorst, err := vuln.WorstWindow(cat, want, horizon)
			if err != nil {
				t.Fatal(err)
			}
			if gotJ, wantJ := asJSON(worst.Injection), asJSON(coldWorst); gotJ != wantJ {
				t.Fatalf("step %d: incremental worst window diverged from cold sweep\n got %s\nwant %s",
					step, gotJ, wantJ)
			}
		}
	}

	// The equivalence above must have been exercised by the delta path,
	// not by rebuilds: the first assessment pays the one rebuild (absorbing
	// step 0's mutation), every later mutation is a delta-apply.
	if s := mon.Stats(); s.Rebuilds != 1 || s.DeltaApplies != uint64(steps-1) {
		t.Fatalf("property ran on the wrong path: %+v, want 1 rebuild and %d delta-applies", s, steps-1)
	}
}
