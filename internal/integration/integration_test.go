// Package integration exercises cross-module flows end to end: the full
// attested pipeline (device → quote → registry → monitor), enforcement
// feeding consensus (admission weights → weighted BFT), and the mitigation
// loop (vulnerability → unsafe → recovery/patch → safe). These tests are
// the "would a downstream user's composition actually work" check on top
// of the per-package suites.
package integration

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/bftlive"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/diversity"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/vuln"
)

// buildAttestedFleet provisions n replicas with real devices and quotes,
// running client cl(i) on OS os(i), and joins them to a fresh registry.
func buildAttestedFleet(t *testing.T, n int, osOf, clientOf func(i int) string) (*registry.Registry, *attest.Authority) {
	t.Helper()
	auth := attest.NewAuthority("tpm2")
	reg := registry.New(auth, nil)
	for i := 0; i < n; i++ {
		dev, err := attest.NewDevice("tpm2", uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.MustNew(
			config.Component{Class: config.ClassTrustedHardware, Name: "tpm2", Version: "01.59"},
			config.Component{Class: config.ClassOperatingSystem, Name: osOf(i), Version: "1"},
			config.Component{Class: config.ClassConsensusModule, Name: clientOf(i), Version: "1"},
		)
		vote := cryptoutil.DeriveKeyPair("integration/vote", uint64(i))
		q, err := dev.QuoteConfig(cfg, vote.Public, auth.IssueNonce())
		if err != nil {
			t.Fatal(err)
		}
		id := registry.ReplicaID(fmt.Sprintf("rep-%03d", i))
		if err := reg.JoinAttested(id, cfg, q, 1, 24*time.Hour); err != nil {
			t.Fatalf("attested join %d: %v", i, err)
		}
	}
	return reg, auth
}

func TestAttestedPipelineMonitorsSafety(t *testing.T) {
	// 12 replicas: 6 run "popular" client, 6 spread over three others.
	clients := []string{"popular", "popular", "alt-a", "popular", "alt-b", "alt-c"}
	reg, _ := buildAttestedFleet(t, 12,
		func(i int) string { return fmt.Sprintf("os-%d", i%3) },
		func(i int) string { return clients[i%len(clients)] },
	)
	if reg.Size() != 12 {
		t.Fatalf("size = %d", reg.Size())
	}
	att, dec, _, _ := reg.TierCounts()
	if att != 12 || dec != 0 {
		t.Fatalf("tiers = %d/%d", att, dec)
	}

	cat := vuln.NewCatalog()
	if err := cat.Add(vuln.Vulnerability{
		ID: "CVE-popular", Class: config.ClassConsensusModule, Product: "popular",
		Disclosed: 10 * time.Hour, PatchAt: 20 * time.Hour, Severity: 1,
	}); err != nil {
		t.Fatal(err)
	}
	mon, err := core.NewMonitor(reg, core.WithCatalog(cat), core.WithSubstrate(core.BFT))
	if err != nil {
		t.Fatal(err)
	}
	// Popular client = 6/12 = 50% > 1/3: unsafe inside the window.
	mid, err := mon.Assess(15 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Safe {
		t.Fatal("monitor missed the monoculture zero-day")
	}
	if mid.Injection.TotalFraction != 0.5 {
		t.Fatalf("compromised = %v, want 0.5", mid.Injection.TotalFraction)
	}
	// After the window: safe again.
	late, err := mon.Assess(50 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !late.Safe {
		t.Fatal("monitor unsafe after patching")
	}
}

func TestAdmissionWeightsFeedWeightedBFT(t *testing.T) {
	// A fleet where 6 of 10 replicas share the "popular" configuration.
	// Accept-all BFT weights let the shared fault (60% of power) break
	// safety; admission-capped weights (popular capped to 1/3 of effective
	// power) keep the same attack below the quorum-forgery bound.
	const n = 10
	labels := make([]string, n)
	for i := range labels {
		if i < 6 {
			labels[i] = "popular"
		} else {
			labels[i] = fmt.Sprintf("alt-%d", i)
		}
	}
	run := func(weights []float64, compromised []int) *bftlive.Violation {
		sched := sim.NewScheduler(99)
		net, err := simnet.New(sched, simnet.UniformLatency{Min: time.Millisecond, Max: 10 * time.Millisecond}, 0)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := bftlive.NewSimCluster(net, len(weights), bftlive.SimWithPower(weights))
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range compromised {
			if err := cl.SetBehavior(i, bftlive.Promiscuous); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.EquivocateNext([]byte("A"), []byte("B")); err != nil {
			t.Fatal(err)
		}
		if err := sched.Run(time.Minute); err != nil {
			t.Fatal(err)
		}
		return cl.Violation()
	}
	compromised := []int{0, 1, 2, 3, 4, 5} // everyone on "popular"

	// Accept-all: unit weights.
	flat := make([]float64, n)
	for i := range flat {
		flat[i] = 1
	}
	if run(flat, compromised) == nil {
		t.Fatal("accept-all weights: expected safety violation")
	}

	// Admission-policy weights: joins processed sequentially, popular
	// capped to 30% of effective power.
	policy := core.AdmissionPolicy{TargetShare: 0.30, DeclaredDiscount: 1}
	capped := make([]float64, n)
	weightsSoFar := make(map[string]float64)
	for i := 0; i < n; i++ {
		dist, err := diversity.FromWeights(weightsSoFar)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := policy.Decide(dist, labels[i], 1, true)
		if err != nil {
			t.Fatal(err)
		}
		w := dec.Weight
		if w <= 0 {
			// BFT weights must be positive; a zero-weight replica simply
			// does not vote — model with a negligible epsilon weight.
			w = 1e-9
		}
		capped[i] = w
		weightsSoFar[labels[i]] += w
	}
	if v := run(capped, compromised); v != nil {
		t.Fatalf("admission-capped weights still violated safety: %v", v)
	}
}

func TestRecoveredRegistryRejoinsAfterRevocation(t *testing.T) {
	// Device revocation (SGX.Fail-style trusted-hardware compromise):
	// a revoked device cannot re-attest; a fresh device can.
	auth := attest.NewAuthority("tpm2")
	reg := registry.New(auth, nil)
	dev, _ := attest.NewDevice("tpm2", 1)
	cfg := config.MustNew(config.Component{Class: config.ClassOperatingSystem, Name: "debian", Version: "12"})
	vote := cryptoutil.DeriveKeyPair("rejoin", 1)
	q, _ := dev.QuoteConfig(cfg, vote.Public, auth.IssueNonce())
	if err := reg.JoinAttested("r1", cfg, q, 1, 0); err != nil {
		t.Fatal(err)
	}
	// Operator leaves; its device is found compromised and revoked.
	if err := reg.Leave("r1"); err != nil {
		t.Fatal(err)
	}
	auth.Revoke(dev.PublicKey())
	q2, _ := dev.QuoteConfig(cfg, vote.Public, auth.IssueNonce())
	if err := reg.JoinAttested("r1", cfg, q2, 1, 0); err == nil {
		t.Fatal("revoked device re-attested")
	}
	// Replacement hardware attests fine.
	dev2, _ := attest.NewDevice("tpm2", 2)
	q3, _ := dev2.QuoteConfig(cfg, vote.Public, auth.IssueNonce())
	if err := reg.JoinAttested("r1", cfg, q3, 1, 0); err != nil {
		t.Fatalf("replacement device rejected: %v", err)
	}
}
