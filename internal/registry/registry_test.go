package registry

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/config"
	"repro/internal/cryptoutil"
	"repro/internal/diversity"
	"repro/internal/vuln"
)

func testCfg(name string) config.Configuration {
	return config.MustNew(
		config.Component{Class: config.ClassOperatingSystem, Name: name, Version: "1"},
	)
}

func attestedJoin(t *testing.T, r *Registry, auth *attest.Authority, id ReplicaID, cfgName string, power float64) {
	t.Helper()
	dev, err := attest.NewDevice("tpm2", uint64(len(id))*1000+uint64(power))
	if err != nil {
		t.Fatal(err)
	}
	vote := cryptoutil.DeriveKeyPair("vote/"+string(id), 0)
	cfg := testCfg(cfgName)
	q, err := dev.QuoteConfig(cfg, vote.Public, auth.IssueNonce())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.JoinAttested(id, cfg, q, power, time.Hour); err != nil {
		t.Fatal(err)
	}
}

func TestJoinDeclaredAndLeave(t *testing.T) {
	r := New(nil)
	if err := r.JoinDeclared("a", testCfg("ubuntu"), 10, time.Hour); err != nil {
		t.Fatal(err)
	}
	if r.Size() != 1 {
		t.Fatalf("size = %d", r.Size())
	}
	rec, ok := r.Get("a")
	if !ok || rec.Tier != TierDeclared || rec.Power != 10 {
		t.Fatalf("record = %+v", rec)
	}
	if err := r.Leave("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Leave("a"); !errors.Is(err, ErrUnknownReplica) {
		t.Fatalf("double leave err = %v", err)
	}
	if r.Size() != 0 {
		t.Fatal("leave did not remove")
	}
}

func TestJoinValidation(t *testing.T) {
	r := New(nil)
	if err := r.JoinDeclared("", testCfg("x"), 1, 0); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := r.JoinDeclared("a", testCfg("x"), -1, 0); err == nil {
		t.Fatal("negative power accepted")
	}
	if err := r.JoinDeclared("a", testCfg("x"), math.NaN(), 0); err == nil {
		t.Fatal("NaN power accepted")
	}
	if err := r.JoinDeclared("a", testCfg("x"), 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.JoinDeclared("a", testCfg("y"), 1, 0); !errors.Is(err, ErrDuplicateReplica) {
		t.Fatalf("duplicate err = %v", err)
	}
}

// TestPowerCeiling: the summed raw power stops at exactly vuln.MaxPowerUnits
// units. Joins and SetPower that reach it are accepted; one unit past it,
// or a positive power that rounds to 0 units, is refused and changes
// nothing. A weighting whose weighted total would pass the ceiling fails
// the snapshot, while face value stands.
func TestPowerCeiling(t *testing.T) {
	r := New(nil)
	powers := ceilingPowers
	for i, p := range powers {
		if err := r.JoinDeclared(ReplicaID(fmt.Sprint(i)), testCfg(fmt.Sprint(i)), p, 0); err != nil {
			t.Fatalf("join %d at %v: %v", i, p, err)
		}
	}
	last := ReplicaID(fmt.Sprint(len(powers) - 1))
	gen := r.Generation()
	if err := r.JoinDeclared("past", testCfg("x"), 1e-9, 0); err == nil {
		t.Fatal("join one unit past the ceiling accepted")
	}
	if err := r.JoinDeclared("zero-units", testCfg("x"), 4e-10, 0); err == nil {
		t.Fatal("power rounding to 0 units accepted")
	}
	if err := r.SetPower(last, powers[len(powers)-1]+1e-9); err == nil {
		t.Fatal("SetPower one unit past the ceiling accepted")
	}
	if r.Generation() != gen || r.Size() != len(powers) {
		t.Fatalf("refused calls moved the registry: generation %d, size %d", r.Generation(), r.Size())
	}
	if err := r.SetPower(last, powers[len(powers)-1]); err != nil {
		t.Fatalf("SetPower at the ceiling: %v", err)
	}
	if _, err := r.Snapshot(DefaultWeighting); err != nil {
		t.Fatalf("face-value snapshot at the ceiling: %v", err)
	}
	if _, err := r.Snapshot(Weighting{Attested: 1, Declared: 1.5}); err == nil {
		t.Fatal("weighted total past the ceiling accepted")
	}
	if err := r.Leave("0"); err != nil {
		t.Fatal(err)
	}
	if err := r.JoinDeclared("past", testCfg("x"), 1e-9, 0); err != nil {
		t.Fatalf("join after a leave freed room: %v", err)
	}
	if err := r.JoinDeclared("zero", testCfg("x"), 0, 0); err != nil {
		t.Fatalf("zero power: %v", err)
	}
}

// ceilingPowers' units, 6e18 + 148 914 691 236 517 184 + 21, sum to
// exactly vuln.MaxPowerUnits; the last is small, so one unit more is
// representable.
var ceilingPowers = []float64{6e9, 1.489146912365172e8, 2.1e-8}

func TestJoinAttestedVerifiesQuote(t *testing.T) {
	auth := attest.NewAuthority("tpm2")
	r := New(auth)
	attestedJoin(t, r, auth, "good", "debian", 5)
	rec, _ := r.Get("good")
	if rec.Tier != TierAttested {
		t.Fatal("tier not attested")
	}
	if len(rec.VoteKey) == 0 {
		t.Fatal("vote key not recorded")
	}
}

func TestJoinAttestedRejectsWrongConfig(t *testing.T) {
	auth := attest.NewAuthority("tpm2")
	r := New(auth)
	dev, _ := attest.NewDevice("tpm2", 1)
	vote := cryptoutil.DeriveKeyPair("vote", 1)
	measured := testCfg("debian")
	claimed := testCfg("windows-server") // lies about its config
	q, _ := dev.QuoteConfig(measured, vote.Public, auth.IssueNonce())
	err := r.JoinAttested("liar", claimed, q, 1, 0)
	if !errors.Is(err, ErrMeasurement) {
		t.Fatalf("err = %v, want ErrMeasurement", err)
	}
	if r.Size() != 0 {
		t.Fatal("liar joined")
	}
}

func TestJoinAttestedRejectsBadQuote(t *testing.T) {
	auth := attest.NewAuthority("tpm2")
	r := New(auth)
	dev, _ := attest.NewDevice("rogue-vendor", 1)
	vote := cryptoutil.DeriveKeyPair("vote", 1)
	cfg := testCfg("debian")
	q, _ := dev.QuoteConfig(cfg, vote.Public, auth.IssueNonce())
	if err := r.JoinAttested("rogue", cfg, q, 1, 0); err == nil {
		t.Fatal("untrusted vendor quote accepted")
	}
}

func TestJoinAttestedNoAuthority(t *testing.T) {
	r := New(nil)
	if err := r.JoinAttested("a", testCfg("x"), attest.Quote{}, 1, 0); err == nil {
		t.Fatal("attested join without authority accepted")
	}
}

func TestJoinAttestedCommitted(t *testing.T) {
	auth := attest.NewAuthority("intel-sgx")
	r := New(auth)
	dev, _ := attest.NewDevice("intel-sgx", 9)
	vote := cryptoutil.DeriveKeyPair("vote", 9)
	cfg := testCfg("fedora")
	salt := []byte("sssalt")
	q, err := dev.QuoteCommitted(cfg, salt, vote.Public, auth.IssueNonce())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.JoinAttestedCommitted("private", cfg, salt, q, 3, time.Hour); err != nil {
		t.Fatal(err)
	}
	rec, _ := r.Get("private")
	if rec.Tier != TierAttested {
		t.Fatal("tier not attested")
	}
	// Wrong opening rejected.
	q2, _ := dev.QuoteCommitted(cfg, salt, vote.Public, auth.IssueNonce())
	if err := r.JoinAttestedCommitted("p2", cfg, []byte("wrong"), q2, 3, 0); err == nil {
		t.Fatal("wrong opening accepted")
	}
	// Plain quote routed to committed join fails.
	q3, _ := dev.QuoteConfig(cfg, vote.Public, auth.IssueNonce())
	if err := r.JoinAttestedCommitted("p3", cfg, salt, q3, 3, 0); err == nil {
		t.Fatal("plain quote accepted by committed join")
	}
	// Committed quote routed to plain join fails.
	q4, _ := dev.QuoteCommitted(cfg, salt, vote.Public, auth.IssueNonce())
	if err := r.JoinAttested("p4", cfg, q4, 3, 0); err == nil {
		t.Fatal("committed quote accepted by plain join")
	}
}

func TestSetPower(t *testing.T) {
	r := New(nil)
	r.JoinDeclared("a", testCfg("x"), 1, 0)
	if err := r.SetPower("a", 42); err != nil {
		t.Fatal(err)
	}
	rec, _ := r.Get("a")
	if rec.Power != 42 {
		t.Fatalf("power = %v", rec.Power)
	}
	if err := r.SetPower("missing", 1); !errors.Is(err, ErrUnknownReplica) {
		t.Fatalf("err = %v", err)
	}
	if err := r.SetPower("a", -5); err == nil {
		t.Fatal("negative power accepted")
	}
}

func TestRecordsSortedCopies(t *testing.T) {
	r := New(nil)
	r.JoinDeclared("b", testCfg("x"), 1, 0)
	r.JoinDeclared("a", testCfg("y"), 2, 0)
	recs := r.Records()
	if recs[0].ID != "a" || recs[1].ID != "b" {
		t.Fatalf("records not sorted: %v", recs)
	}
	recs[0].Power = 999
	if rec, _ := r.Get("a"); rec.Power != 2 {
		t.Fatal("Records exposed internal state")
	}
}

func TestWeightingValidate(t *testing.T) {
	if err := DefaultWeighting.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Weighting{
		{Attested: -1, Declared: 1},
		{Attested: math.NaN(), Declared: 1},
		{Attested: 0, Declared: 0},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Fatalf("weighting %+v accepted", w)
		}
	}
}

func TestPopulationAndDistribution(t *testing.T) {
	auth := attest.NewAuthority("tpm2")
	r := New(auth)
	attestedJoin(t, r, auth, "att1", "debian", 10)
	r.JoinDeclared("dec1", testCfg("debian"), 10, 0)
	r.JoinDeclared("dec2", testCfg("ubuntu"), 20, 0)

	d := mustSnapshot(t, r, DefaultWeighting).Distribution
	if d.Total() != 40 {
		t.Fatalf("total = %v", d.Total())
	}
	debianLabel := testCfg("debian").Digest().String()
	if d.Weight(debianLabel) != 20 {
		t.Fatalf("debian weight = %v, want 20 (attested+declared share a config)", d.Weight(debianLabel))
	}

	// Two-tier weighting: discount declared replicas to half.
	half := Weighting{Attested: 1, Declared: 0.5}
	d2 := mustSnapshot(t, r, half).Distribution
	if d2.Total() != 25 { // 10 + 5 + 10
		t.Fatalf("weighted total = %v, want 25", d2.Total())
	}
	if _, err := r.Snapshot(Weighting{Attested: -1, Declared: 1}); err == nil {
		t.Fatal("invalid weighting accepted")
	}
}

func TestVulnReplicasAdapter(t *testing.T) {
	r := New(nil)
	r.JoinDeclared("a", testCfg("debian"), 10, 3*time.Hour)
	vs, err := r.VulnReplicas(DefaultWeighting)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Name != "a" || vs[0].PatchLatency != 3*time.Hour {
		t.Fatalf("vuln replicas = %+v", vs)
	}
	// Integration: a vuln in the declared config compromises weighted power.
	cat := vuln.NewCatalog()
	err = cat.Add(vuln.Vulnerability{
		ID: "CVE-os", Class: config.ClassOperatingSystem, Product: "debian",
		Disclosed: 0, PatchAt: time.Hour, Severity: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := vuln.Inject(cat, vs, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if inj.TotalFraction != 1 {
		t.Fatalf("fraction = %v, want 1", inj.TotalFraction)
	}
}

func TestTierCounts(t *testing.T) {
	auth := attest.NewAuthority("tpm2")
	r := New(auth)
	attestedJoin(t, r, auth, "att1", "debian", 10)
	r.JoinDeclared("dec1", testCfg("ubuntu"), 30, 0)
	a, d, ap, dp := r.TierCounts()
	if a != 1 || d != 1 || ap != 10 || dp != 30 {
		t.Fatalf("tiers = %d/%d %v/%v", a, d, ap, dp)
	}
}

// TestReportIgnoresClassOrder: the snapshot's power classes are merged
// from its buckets' groups, and which power lands in which bucket changes
// with the join order. On the fleet {0.3 ×3, 0.4, 0.7, 0.6 ×3}, one
// configuration each, 0.7 + 0.6 + 0.6 is exactly half the total and does
// not exceed it, so every registry, joined in any order, must answer 4
// operator faults to pass one half.
func TestReportIgnoresClassOrder(t *testing.T) {
	powers := []float64{0.3, 0.3, 0.3, 0.4, 0.7, 0.6, 0.6, 0.6}
	for run := 0; run < 200; run++ {
		r := New(nil)
		for i, j := range rand.New(rand.NewSource(int64(run))).Perm(len(powers)) {
			if err := r.JoinDeclared(ReplicaID(fmt.Sprintf("r%d", i)), testCfg(fmt.Sprintf("os-%d", i)), powers[j], 0); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := r.Snapshot(DefaultWeighting)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := snap.Report()
		if err != nil {
			t.Fatal(err)
		}
		if rep.MinOperatorFaultsToHalf != 4 {
			t.Fatalf("registry %d: MinOperatorFaultsToHalf = %d, want 4", run, rep.MinOperatorFaultsToHalf)
		}
	}
}

// Snapshots are memoized per (generation, weighting): same pointer while
// the registry is quiet, a fresh one after any mutation, and distinct
// entries per weighting within one generation.
func TestSnapshotMemoization(t *testing.T) {
	r := New(nil)
	r.JoinDeclared("a", testCfg("debian"), 10, time.Hour)
	r.JoinDeclared("b", testCfg("ubuntu"), 30, time.Hour)

	s1, err := r.Snapshot(DefaultWeighting)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Snapshot(DefaultWeighting)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("unchanged registry rebuilt its snapshot")
	}
	if s1.Generation != r.Generation() {
		t.Fatalf("snapshot generation %d != registry %d", s1.Generation, r.Generation())
	}

	half := Weighting{Attested: 1, Declared: 0.5}
	sHalf, err := r.Snapshot(half)
	if err != nil {
		t.Fatal(err)
	}
	if sHalf == s1 {
		t.Fatal("different weightings shared a snapshot")
	}
	if got := sHalf.Distribution.Total(); got != 20 {
		t.Fatalf("halved total = %v, want 20", got)
	}
	again, _ := r.Snapshot(DefaultWeighting)
	if again != s1 {
		t.Fatal("second weighting evicted the first snapshot within one generation")
	}

	// Every mutation kind invalidates.
	gen := r.Generation()
	if err := r.SetPower("a", 20); err != nil {
		t.Fatal(err)
	}
	if r.Generation() == gen {
		t.Fatal("SetPower did not bump the generation")
	}
	s3, err := r.Snapshot(DefaultWeighting)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Fatal("SetPower did not invalidate the snapshot")
	}
	if got := s3.Distribution.Total(); got != 50 {
		t.Fatalf("post-SetPower total = %v, want 50", got)
	}
	if err := r.Leave("b"); err != nil {
		t.Fatal(err)
	}
	s4, _ := r.Snapshot(DefaultWeighting)
	if s4 == s3 || s4.NumReplicas() != 1 {
		t.Fatalf("Leave did not invalidate (replicas=%d)", s4.NumReplicas())
	}
	if err := r.JoinDeclared("c", testCfg("openbsd"), 5, 0); err != nil {
		t.Fatal(err)
	}
	s5, _ := r.Snapshot(DefaultWeighting)
	if s5 == s4 || s5.NumReplicas() != 2 {
		t.Fatalf("Join did not invalidate (replicas=%d)", s5.NumReplicas())
	}
	if _, err := r.Snapshot(Weighting{Attested: -1, Declared: 1}); err == nil {
		t.Fatal("invalid weighting accepted")
	}
}

// VulnReplicas hands out a private copy: mutating it must not poison the
// shared snapshot other readers see.
func TestVulnReplicasCopyIsolation(t *testing.T) {
	r := New(nil)
	r.JoinDeclared("a", testCfg("debian"), 10, time.Hour)
	vs, err := r.VulnReplicas(DefaultWeighting)
	if err != nil {
		t.Fatal(err)
	}
	vs[0].Power = 999
	snap, err := r.Snapshot(DefaultWeighting)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Replicas()[0].Power != 10 {
		t.Fatalf("snapshot corrupted by caller mutation: %+v", snap.Replicas()[0])
	}
}

// A snapshot's members, and a population built from them, are the
// caller's own: editing them or calling the population's public Add must
// not poison the shared snapshot (same isolation VulnReplicas has).
func TestPopulationCopyIsolation(t *testing.T) {
	r := New(nil)
	r.JoinDeclared("a", testCfg("debian"), 10, time.Hour)
	snap := mustSnapshot(t, r, DefaultWeighting)
	members := snap.Population().Members()
	members[0].Power = 99
	pop, err := diversity.NewPopulation(members)
	if err != nil {
		t.Fatal(err)
	}
	if err := pop.Add(diversity.Member{Label: "phantom", Power: 99}); err != nil {
		t.Fatal(err)
	}
	if got := snap.Population(); got.Size() != 1 || got.Members()[0].Power != 10 || snap.Distribution.Total() != 10 {
		t.Fatalf("snapshot poisoned by its caller: size=%d power=%v total=%v",
			got.Size(), got.Members()[0].Power, snap.Distribution.Total())
	}
}
