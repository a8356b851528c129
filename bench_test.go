// Benchmarks for the paper reproduction. BenchmarkExperiments iterates
// the experiment registry (internal/experiment) — the same index
// cmd/experiments prints — so every registered table and figure is timed
// and the two surfaces cannot drift. The remaining benchmarks isolate the
// substrate hot paths (BFT commit, PoW simulation, entropy, selection,
// attestation). Run with
//
//	go test -bench=. -benchmem
//
// and use cmd/experiments to print the tables themselves.
package repro

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/assessbench"
	"repro/internal/attest"
	"repro/internal/bftlive"
	"repro/internal/committee"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/experiment"
	_ "repro/internal/liveloop" // registers the live-attach hook lossy-wire timelines need
	"repro/internal/monitord"
	"repro/internal/nakamoto"
	"repro/internal/planner"
	"repro/internal/pooldata"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/vuln"
)

// -scale-full adds the 1M-replica rungs to BenchmarkAssessScale. CI runs
// the ladder up to 100k; the million-replica rungs are an explicit local
// opt-in (they also back the committed BENCH_assess.json, via
// cmd/assessbench -full).
var scaleFull = flag.Bool("scale-full", false, "include 1M-replica rungs in BenchmarkAssessScale")

// --- paper artefacts, via the experiment registry ---

// BenchmarkExperiments times one full regeneration of every registered
// experiment, at bench-scale parameters (fewer Monte Carlo trials and a
// shorter Figure 1 tail than the published defaults).
func BenchmarkExperiments(b *testing.B) {
	params := experiment.Params{Seed: 7, Trials: 2000, Scale: 200}
	ctx := context.Background()
	for _, e := range experiment.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Run(ctx, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- substrate micro/meso benchmarks ---

// BenchmarkAttestQuote times one full attestation round trip (X3): quote
// issue + authority verification + vote binding.
func BenchmarkAttestQuote(b *testing.B) {
	dev, err := attest.NewDevice("tpm2", 1)
	if err != nil {
		b.Fatal(err)
	}
	auth := attest.NewAuthority("tpm2")
	vote := cryptoutil.DeriveKeyPair("bench/vote", 0)
	cfg := config.DefaultCatalog().RandomConfiguration(rand.New(rand.NewSource(1)))
	msg := []byte("PREPARE v=0 seq=1")
	sig := vote.Sign(msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := dev.QuoteConfig(cfg, vote.Public, auth.IssueNonce())
		if err != nil {
			b.Fatal(err)
		}
		if err := auth.Verify(q); err != nil {
			b.Fatal(err)
		}
		if err := attest.VerifyVoteBinding(q, msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBFTCommit measures one BFT consensus instance — cluster set-up
// included — at several cluster sizes (the Prop. 3 overhead axis in
// isolation).
func BenchmarkBFTCommit(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sched := sim.NewScheduler(int64(i))
				net, err := simnet.New(sched, simnet.FixedLatency(5*time.Millisecond), 0)
				if err != nil {
					b.Fatal(err)
				}
				cl, err := bftlive.NewSimCluster(net, n)
				if err != nil {
					b.Fatal(err)
				}
				cl.Submit([]byte("bench"))
				if err := sched.Run(10 * time.Second); err != nil {
					b.Fatal(err)
				}
				if cl.CommittedBy([]byte("bench")) != n {
					b.Fatal("commit incomplete")
				}
			}
		})
	}
}

// BenchmarkNakamotoSimulate measures the full-network PoW simulation with
// the Example 1 snapshot pools.
func BenchmarkNakamotoSimulate(b *testing.B) {
	pools := make([]nakamoto.Pool, 0, 17)
	for _, p := range pooldata.BitcoinSnapshot() {
		pools = append(pools, nakamoto.Pool{Name: p.Name, Power: p.Share})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := nakamoto.Simulate(nakamoto.Config{
			Pools:         pools,
			BlockInterval: 10 * time.Minute,
			Propagation:   5 * time.Second,
			Seed:          int64(i),
		}, 500)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEntropy measures the core entropy computation on the Figure 1
// worst case (17 pools + 1000 tail miners).
func BenchmarkEntropy(b *testing.B) {
	d, err := pooldata.WithUniformTail(1000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Entropy(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCapShares measures the share-capping enforcement policy.
func BenchmarkCapShares(b *testing.B) {
	d, err := pooldata.WithUniformTail(1000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CapShares(d, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectDiverse measures diversity-aware committee selection
// through the options-built Selector.
func BenchmarkSelectDiverse(b *testing.B) {
	sel, err := committee.NewSelector(committee.WithStrategy(committee.DiversityAware))
	if err != nil {
		b.Fatal(err)
	}
	var candidates []committee.Candidate
	for cfg := 0; cfg < 16; cfg++ {
		for i := 0; i < 16; i++ {
			candidates = append(candidates, committee.Candidate{
				ID:          fmt.Sprintf("c-%d-%d", cfg, i),
				Stake:       float64(1 + (cfg*i)%7),
				ConfigLabel: fmt.Sprintf("cfg-%d", cfg),
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.Select(candidates, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMerkleRoot measures block-body commitment at 1024 transactions.
func BenchmarkMerkleRoot(b *testing.B) {
	leaves := make([][]byte, 1024)
	for i := range leaves {
		leaves[i] = []byte(fmt.Sprintf("tx-%04d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cryptoutil.MerkleRoot(leaves); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyAssign measures the Lazarus-style planner itself.
func BenchmarkGreedyAssign(b *testing.B) {
	cat := config.DefaultCatalog()
	for i := 0; i < b.N; i++ {
		if _, err := planner.GreedyAssign(cat, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// --- assessment hot path ---

// benchVulnScenario builds the assessment-path workload: a 50-vuln
// catalog over 10 products and n replicas spread across them with
// staggered patch latencies, giving a 30-day horizon a few hundred
// distinct critical instants.
func benchVulnScenario(n int) (*vuln.Catalog, []vuln.Replica) {
	cat := vuln.NewCatalog()
	for i := 0; i < 50; i++ {
		disclosed := time.Duration(i*14) * time.Hour // spread over ~29 days
		v := vuln.Vulnerability{
			ID:        vuln.ID(fmt.Sprintf("CVE-b-%03d", i)),
			Class:     config.ClassOperatingSystem,
			Product:   fmt.Sprintf("os-%d", i%10),
			Disclosed: disclosed,
			PatchAt:   disclosed + 48*time.Hour,
			Severity:  0.2 + 0.2*float64(i%5),
		}
		if err := cat.Add(v); err != nil {
			panic(err)
		}
	}
	replicas := make([]vuln.Replica, n)
	for i := range replicas {
		replicas[i] = vuln.Replica{
			Name: fmt.Sprintf("r-%05d", i),
			Config: config.MustNew(config.Component{
				Class: config.ClassOperatingSystem, Name: fmt.Sprintf("os-%d", i%10), Version: "1",
			}),
			Power:        float64(1 + i%97),
			PatchLatency: time.Duration(i%5) * 12 * time.Hour,
		}
	}
	return cat, replicas
}

// BenchmarkWorstWindow compares the exact event-driven sweep against the
// stepwise baseline it replaced, on 1k replicas, a 50-vuln catalog and a
// 30-day horizon (the stepwise scan samples at 1h). The event sweep must
// be an order of magnitude cheaper in both time and allocations. The
// grouped rungs time the production path — GroupInjector's bound-pruned
// sweep — on the assessbench shape: 2000x50 is the monitord bench tenant
// (nearly every instant pruned), 2000x500 the saturated catalog where every
// bound ties and the sweep degrades to a full one.
func BenchmarkWorstWindow(b *testing.B) {
	for _, vulns := range []int{50, 500} {
		b.Run(fmt.Sprintf("grouped/2000x%d", vulns), func(b *testing.B) {
			cat, err := assessbench.Catalog(vulns)
			if err != nil {
				b.Fatal(err)
			}
			reg, err := assessbench.Registry(2000)
			if err != nil {
				b.Fatal(err)
			}
			snap, err := reg.Snapshot(registry.DefaultWeighting)
			if err != nil {
				b.Fatal(err)
			}
			gi, err := vuln.NewGroupInjector(cat, snap.BucketSpecs())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gi.WorstWindow(assessbench.Horizon); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	cat, replicas := benchVulnScenario(1000)
	const horizon = 30 * 24 * time.Hour
	b.Run("event", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := vuln.WorstWindow(cat, replicas, horizon); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stepwise-1h", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := vuln.WorstWindowStepwise(cat, replicas, horizon, time.Hour); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchMonitor builds a 500-replica registry and a monitor over the bench
// catalog.
func benchMonitor(b *testing.B) (*registry.Registry, *core.Monitor) {
	b.Helper()
	cat, _ := benchVulnScenario(0)
	reg := registry.New(nil, nil)
	for i := 0; i < 500; i++ {
		cfg := config.MustNew(config.Component{
			Class: config.ClassOperatingSystem, Name: fmt.Sprintf("os-%d", i%10), Version: "1",
		})
		id := registry.ReplicaID(fmt.Sprintf("r-%05d", i))
		if err := reg.JoinDeclared(id, cfg, float64(1+i%97), time.Duration(i%5)*12*time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	mon, err := core.NewMonitor(reg, core.WithCatalog(cat))
	if err != nil {
		b.Fatal(err)
	}
	return reg, mon
}

// BenchmarkAssess measures the cold assessment path: every iteration
// mutates the registry (power drift), so the snapshot, diversity report
// and exposure index are rebuilt before the fault picture is evaluated.
func BenchmarkAssess(b *testing.B) {
	reg, mon := benchMonitor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.SetPower("r-00000", float64(1+i%97)); err != nil {
			b.Fatal(err)
		}
		if _, err := mon.Assess(time.Duration(i%720) * time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWatchTick measures one Watch tick on an unchanged registry —
// the steady-state monitoring cost — on an hourly clock over a catalog
// whose disclosures and closes fall every other hour: a snapshot-cache hit
// plus, on the ticks that leave the memoised interval, one injector
// evaluation. It must sit far below BenchmarkAssess.
func BenchmarkWatchTick(b *testing.B) {
	_, mon := benchMonitor(b)
	if _, err := mon.Assess(0); err != nil { // warm the snapshot cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mon.Assess(time.Duration(i%720) * time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssessScale is the scale ladder: the four assessment paths at
// 1k/10k/100k (and with -scale-full 1M) replicas × 50/500 vulnerabilities,
// on the shared internal/assessbench workload (32 configuration buckets,
// 97 power classes, 5 patch-latency classes).
//
//   - flat: the pre-bucketing cold path, per-replica exposure rebuild —
//     O(replicas × vulns), the "before" every other row is measured
//     against;
//   - cold: fresh monitor over the bucketed snapshot — O(groups + vulns),
//     population-independent once group counts saturate;
//   - incremental: one mutation + assessment on a live monitor — the O(Δ)
//     journal/delta/patch path;
//   - cached: unchanged registry and instant, the memoised assessment.
func BenchmarkAssessScale(b *testing.B) {
	sizes := []int{1_000, 10_000, 100_000}
	if *scaleFull {
		sizes = append(sizes, 1_000_000)
	}
	for _, n := range sizes {
		reg, err := assessbench.Registry(n)
		if err != nil {
			b.Fatal(err)
		}
		snap, err := reg.Snapshot(registry.DefaultWeighting)
		if err != nil {
			b.Fatal(err)
		}
		for _, nv := range []int{50, 500} {
			cat, err := assessbench.Catalog(nv)
			if err != nil {
				b.Fatal(err)
			}
			name := func(mode string) string {
				return fmt.Sprintf("n=%d/vulns=%d/%s", n, nv, mode)
			}
			b.Run(name("flat"), func(b *testing.B) {
				replicas := snap.Replicas()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := vuln.Inject(cat, replicas, assessbench.Instant); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(name("cold"), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					mon, err := core.NewMonitor(reg, core.WithCatalog(cat), core.WithSummaryFaults())
					if err != nil {
						b.Fatal(err)
					}
					if _, err := mon.Assess(assessbench.Instant); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(name("incremental"), func(b *testing.B) {
				mon, err := core.NewMonitor(reg, core.WithCatalog(cat), core.WithSummaryFaults())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := mon.Assess(assessbench.Instant); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := reg.SetPower("r-0000000", float64(1+i%assessbench.PowerClasses)); err != nil {
						b.Fatal(err)
					}
					if _, err := mon.Assess(assessbench.Instant); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(name("cached"), func(b *testing.B) {
				mon, err := core.NewMonitor(reg, core.WithCatalog(cat), core.WithSummaryFaults())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := mon.Assess(assessbench.Instant); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := mon.Assess(assessbench.Instant); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAssessChurn interleaves sustained churn with assessments on a
// 10k-replica population: every iteration is one mutation (rotating
// through power drift, migration, and a leave/join pair) followed by one
// assessment — the monitord steady state under heavy churn, where every
// assessment rides the O(Δ) path.
func BenchmarkAssessChurn(b *testing.B) {
	const n = 10_000
	reg, err := assessbench.Registry(n)
	if err != nil {
		b.Fatal(err)
	}
	cat, err := assessbench.Catalog(50)
	if err != nil {
		b.Fatal(err)
	}
	mon, err := core.NewMonitor(reg, core.WithCatalog(cat), core.WithSummaryFaults())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mon.Assess(assessbench.Instant); err != nil {
		b.Fatal(err)
	}
	cfg := config.MustNew(config.Component{
		Class: config.ClassOperatingSystem, Name: "os-0", Version: "1",
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := registry.ReplicaID(fmt.Sprintf("r-%07d", i%n))
		switch i % 4 {
		case 0:
			if err := reg.SetPower(id, float64(1+i%assessbench.PowerClasses)); err != nil {
				b.Fatal(err)
			}
		case 1:
			if err := reg.Migrate(id, cfg); err != nil {
				b.Fatal(err)
			}
		case 2:
			if err := reg.Leave(id); err != nil {
				b.Fatal(err)
			}
		default:
			// Rejoin the replica the previous iteration removed.
			back := registry.ReplicaID(fmt.Sprintf("r-%07d", (i-1)%n))
			if err := reg.JoinDeclared(back, cfg, float64(1+i%assessbench.PowerClasses), 0); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := mon.Assess(assessbench.Instant); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAssessPathAllocations pins the allocation behaviour the bucketed
// storage bought: reading the membership is one copy with no sorting, and
// a memoized snapshot read allocates nothing at all.
func TestAssessPathAllocations(t *testing.T) {
	reg, err := assessbench.Registry(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Snapshot(registry.DefaultWeighting); err != nil {
		t.Fatal(err)
	}
	// Records: exactly the result slice — no per-call sort scratch (the
	// registry maintains ID order incrementally on mutation).
	if got := testing.AllocsPerRun(20, func() {
		if recs := reg.Records(); len(recs) != 10_000 {
			t.Fatal("short records")
		}
	}); got > 1 {
		t.Fatalf("Records() allocates %.0f objects/op, want ≤ 1", got)
	}
	// Snapshot on a quiet registry: memoized pointer, zero allocations.
	if got := testing.AllocsPerRun(20, func() {
		if _, err := reg.Snapshot(registry.DefaultWeighting); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Fatalf("memoized Snapshot allocates %.0f objects/op, want 0", got)
	}
}

// TestAnalyticPathAllocations pins what "derive once per snapshot, never
// per record" bought on the analytic run: a fresh group injector is carved
// out of slabs (it was 4-5 objects per bucket plus one per group:
// 2501 on this shape), and a whole checked timeline stays under ~70 % of the
// 6164 objects it took when every record rebuilt its derived views.
func TestAnalyticPathAllocations(t *testing.T) {
	reg, err := assessbench.Registry(2000)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := assessbench.Catalog(50)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := reg.Snapshot(registry.DefaultWeighting)
	if err != nil {
		t.Fatal(err)
	}
	specs := snap.BucketSpecs()
	if got := testing.AllocsPerRun(20, func() {
		if _, err := vuln.NewGroupInjector(catalog, specs); err != nil {
			t.Fatal(err)
		}
	}); got > 200 {
		t.Fatalf("NewGroupInjector on 2000 replicas x 50 vulns allocates %.0f objects/op, want ≤ 200", got)
	}

	def, invs := generatedDef(t, "churn-heavy"), scenario.DefaultInvariants()
	if got := testing.AllocsPerRun(10, func() {
		if _, violations, err := scenario.CheckRun(def, 42, invs); err != nil || len(violations) != 0 {
			t.Fatalf("%d violations, err %v", len(violations), err)
		}
	}); got > 4300 {
		t.Fatalf("CheckRun of churn-heavy#0@42 allocates %.0f objects/op, want ≤ 4300", got)
	}
}

// BenchmarkScenario times one full deterministic scenario run per
// library entry: the entire churn + disclosure + adversary timeline,
// every inline assessment and the trace encoding, from the registry the
// CLI and CI iterate.
func BenchmarkScenario(b *testing.B) {
	for _, def := range scenario.All() {
		b.Run(def.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := scenario.Run(def, 42)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Records) == 0 {
					b.Fatal("empty trace")
				}
			}
		})
	}
}

// --- the live loop's wire path: scheduler, simnet, bftlive ---

// BenchmarkSchedulerEvents measures the bare event queue: schedule a batch
// of no-op events at distinct instants, then fire them all.
func BenchmarkSchedulerEvents(b *testing.B) {
	const batch = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i += batch {
		sched := sim.NewScheduler(1)
		for j := 0; j < batch; j++ {
			sched.After(time.Duration((j*7919)%batch), "noop", func() {})
		}
		if fired := sched.RunAll(0); fired != batch {
			b.Fatalf("fired %d of %d", fired, batch)
		}
	}
}

// BenchmarkSimClusterCommit measures one committed value on a 7-replica
// bftlive.SimCluster with view changes on, over a clean wire and one that
// loses a tenth of its messages — the shape of the repository benchmark's
// bftlive.commit_us / lossy_commit_us rungs.
func BenchmarkSimClusterCommit(b *testing.B) {
	for _, c := range []struct {
		name string
		drop float64
	}{{"clean", 0}, {"lossy10", 0.1}} {
		b.Run(c.name, func(b *testing.B) {
			sched, cl := liveWireCluster(b, c.drop)
			value := []byte("v-00000000")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				value = strconv.AppendInt(value[:2], int64(i), 10)
				cl.Submit(value)
				if err := sched.Run(sched.Now() + time.Minute); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if v := cl.Violation(); v != nil {
				b.Fatalf("agreement violated: %v", v)
			}
			if got := cl.CommitCount(); got < b.N*cl.Quorum() {
				b.Fatalf("%d commit events for %d values, want at least a quorum each", got, b.N)
			}
		})
	}
}

// liveWireCluster boots the 7-replica rotating SimCluster of the wire-path
// benchmarks on a 20 ms fixed-latency network losing drop of its messages.
func liveWireCluster(tb testing.TB, drop float64) (*sim.Scheduler, *bftlive.SimCluster) {
	sched := sim.NewScheduler(42)
	net, err := simnet.New(sched, simnet.FixedLatency(20*time.Millisecond), drop)
	if err != nil {
		tb.Fatal(err)
	}
	cl, err := bftlive.NewSimCluster(net, 7, bftlive.SimWithViewTimeout(10*time.Second))
	if err != nil {
		tb.Fatal(err)
	}
	return sched, cl
}

// generatedDef is timeline #0 at seed 42 of a generator profile, the unit of
// work the timeline benchmarks and allocation ceilings share.
func generatedDef(tb testing.TB, profile string) scenario.Def {
	p, ok := scenario.LookupProfile(profile)
	if !ok {
		tb.Fatalf("no %s profile", profile)
	}
	return p.Generate(42, 0).Def()
}

// BenchmarkLossyWireTimeline times one generated lossy-wire timeline run
// through CheckRun with the default invariants: the unit of work of the
// repository benchmark's sweep-live workload, ~95 % of it liveloop +
// bftlive.SimCluster + simnet.
func BenchmarkLossyWireTimeline(b *testing.B) {
	def, invs := generatedDef(b, "lossy-wire"), scenario.DefaultInvariants()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, violations, err := scenario.CheckRun(def, 42, invs)
		if err != nil {
			b.Fatal(err)
		}
		if len(violations) != 0 || len(res.Records) == 0 {
			b.Fatalf("%d violations, %d records", len(violations), len(res.Records))
		}
	}
}

// TestLiveWireAllocations caps the objects of one checked lossy-wire
// timeline at the measured 2312 plus 10 %. Under bftlive (whose per-commit
// ceiling is its own TestSimClusterCommitAllocations) a timeline's
// messages, rounds and self-deliveries are now a few dozen chunks and
// records, down from 4461 objects when every hop boxed its message and
// every replica copied the value at every phase. What remains is not the
// wire's: the registry, engine and cluster a run builds afresh, the trace
// records and their detail strings, the invariant observers, the probes'
// closures and events, and simnet's delivery records while it warms up.
func TestLiveWireAllocations(t *testing.T) {
	def, invs := generatedDef(t, "lossy-wire"), scenario.DefaultInvariants()
	if got := testing.AllocsPerRun(10, func() {
		if _, violations, err := scenario.CheckRun(def, 42, invs); err != nil || len(violations) != 0 {
			t.Fatalf("%d violations, err %v", len(violations), err)
		}
	}); got > 2543 {
		t.Errorf("CheckRun of lossy-wire#0@42 allocates %.0f objects, want ≤ 2543", got)
	}
}

// --- the analytic run: scheduler, emit, invariant observers, no wire ---

// analyticProfiles are the four generator families of the repository
// benchmark's sweep-analytic workload.
var analyticProfiles = []string{"churn-heavy", "disclosure-storm", "partition-flap", "adaptive-adversary"}

// BenchmarkAnalyticTimeline times one generated timeline of each analytic
// profile through CheckRun with the default invariants: the unit of work of
// sweep-analytic, all of it emit (snapshot, report, assess, worst window)
// and the observers.
func BenchmarkAnalyticTimeline(b *testing.B) {
	invs := scenario.DefaultInvariants()
	for _, name := range analyticProfiles {
		def := generatedDef(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, violations, err := scenario.CheckRun(def, 42, invs)
				if err != nil {
					b.Fatal(err)
				}
				if len(violations) != 0 || len(res.Records) == 0 {
					b.Fatalf("%d violations, %d records", len(violations), len(res.Records))
				}
			}
		})
	}
}

// BenchmarkSweepAnalytic times one sweep-analytic job in-process: 250
// generated timelines over the four analytic profiles on one worker,
// generation and report aggregation included.
func BenchmarkSweepAnalytic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := scenario.Sweep(context.Background(), scenario.SweepOptions{
			Profiles: analyticProfiles, Runs: 250, Seed: 42, Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Runs != 250 || len(rep.Violating) != 0 {
			b.Fatalf("%d runs, %d violating", rep.Runs, len(rep.Violating))
		}
	}
}

// serveReadTenant hosts the bench workload's tenant — assessbench's 2000
// replicas × 50 vulnerabilities, on a virtual clock at the probe instant —
// on an in-process monitord.
func serveReadTenant(tb testing.TB) (*monitord.Server, *monitord.Tenant) {
	tb.Helper()
	reg, err := assessbench.Registry(2000)
	if err != nil {
		tb.Fatal(err)
	}
	cat, err := assessbench.Catalog(50)
	if err != nil {
		tb.Fatal(err)
	}
	srv := monitord.NewServer()
	tb.Cleanup(srv.Close)
	tenant, err := srv.Manager().Create("bench", monitord.TenantSpec{Virtual: true})
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range reg.Records() {
		if err := tenant.Registry.JoinDeclared(r.ID, r.Config, r.Power, r.PatchLatency); err != nil {
			tb.Fatal(err)
		}
	}
	for _, v := range cat.All() {
		if err := tenant.Catalog.Add(v); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := tenant.AdvanceTo(assessbench.Instant); err != nil {
		tb.Fatal(err)
	}
	return srv, tenant
}

// serveReadRoutes are the read routes, worst at the bench's horizon.
var serveReadRoutes = []struct{ name, path string }{
	{"assessment", "/tenants/bench/assessment"},
	{"report", "/tenants/bench/report"},
	{"worst", "/tenants/bench/worst?horizon=" + assessbench.Horizon.String()},
}

// nullWriter is a ResponseWriter that keeps nothing, so a measurement
// around ServeHTTP sees the service's cost and not a recorder's.
type nullWriter struct {
	header http.Header
	status int
	bytes  int
}

func (w *nullWriter) Header() http.Header  { return w.header }
func (w *nullWriter) WriteHeader(code int) { w.status = code }
func (w *nullWriter) Write(b []byte) (int, error) {
	w.bytes += len(b)
	return len(b), nil
}

// BenchmarkServeRead is serve-read's unit of work without the socket: one
// GET through Server.ServeHTTP — mux, tenant lookup, monitor, body — on a
// tenant whose state does not change.
func BenchmarkServeRead(b *testing.B) {
	srv, _ := serveReadTenant(b)
	for _, route := range serveReadRoutes {
		b.Run(route.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, route.path, nil)
			w := &nullWriter{header: make(http.Header)}
			srv.ServeHTTP(w, req) // the one miss: evaluate, encode, keep
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.bytes = 0
				srv.ServeHTTP(w, req)
				if w.bytes == 0 || w.status/100 == 4 || w.status/100 == 5 {
					b.Fatalf("GET %s: status %d, %d bytes", route.path, w.status, w.bytes)
				}
			}
		})
	}
}

// TestServeReadAllocations pins the read of unchanged state: nothing at or
// below core.Monitor allocates, and a whole GET stays within what routing,
// the query string and two response headers cost — 4 objects, 7 on worst;
// it was 21, 14 and 13 (7.2, 6.2 and 1.5 kB) when every read evaluated and
// encoded afresh. The ceiling leaves room for another Go version's mux.
func TestServeReadAllocations(t *testing.T) {
	const ceiling = 10
	srv, tenant := serveReadTenant(t)
	mon := tenant.Monitor
	if _, err := mon.Assess(tenant.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.WorstAssessment(assessbench.Horizon); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, _, err := mon.AssessMemo(tenant.Now()); err != nil {
			t.Fatal(err)
		}
		if _, _, err := mon.WorstAssessmentMemo(assessbench.Horizon); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Fatalf("memoised Assess + WorstAssessment allocate %.0f objects/op, want 0", got)
	}
	if hits := mon.Stats().AssessMemoHits; hits < 100 {
		t.Fatalf("%d memo hits over 100+ reads of unchanged state", hits)
	}
	for _, route := range serveReadRoutes {
		req := httptest.NewRequest(http.MethodGet, route.path, nil)
		w := &nullWriter{header: make(http.Header)}
		srv.ServeHTTP(w, req)
		if got := testing.AllocsPerRun(100, func() { srv.ServeHTTP(w, req) }); got > ceiling {
			t.Errorf("GET %s allocates %.0f objects/op, want ≤ %d", route.path, got, ceiling)
		}
	}
}
