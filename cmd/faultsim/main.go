// Command faultsim runs fault-independence scenarios against a synthetic
// permissionless registry: it builds a fleet with a chosen configuration
// spread, injects a vulnerability catalog, plans a greedy exploit attack,
// and reports the Sec. II-C safety condition over the vulnerability window.
//
// The consensus family is selected by value (-substrate bft|nakamoto|
// committee) as a core.Substrate; -threshold replaces it with a bespoke
// fraction.
//
// Usage:
//
//	faultsim -replicas 16 -configs 4 -budget 2
//	faultsim -replicas 32 -configs 32 -substrate nakamoto
//	faultsim -replicas 16 -configs 4 -threshold 0.25
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/adversary"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/vuln"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("faultsim: ")
	var (
		replicas  = flag.Int("replicas", 16, "fleet size")
		configs   = flag.Int("configs", 4, "distinct configurations (κ), spread round-robin")
		budget    = flag.Int("budget", 2, "adversary exploit budget (distinct vulnerabilities)")
		substrate = flag.String("substrate", "bft", "consensus family: bft, nakamoto, committee")
		threshold = flag.Float64("threshold", 0, "override the family tolerance with a bespoke f in (0,1)")
	)
	flag.Parse()
	if *replicas < 1 || *configs < 1 || *configs > *replicas {
		log.Fatalf("need 1 <= configs (%d) <= replicas (%d)", *configs, *replicas)
	}
	thresholdSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "threshold" {
			thresholdSet = true
		}
	})

	// SIGINT/SIGTERM cancel between stages (timeline, attack plan, worst
	// window); the assessment kernels themselves are uninterruptible.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sub, err := substrateFor(*substrate, *replicas)
	if err != nil {
		log.Fatal(err)
	}
	if thresholdSet {
		sub = core.Threshold(*threshold)
	}

	reg, catalog, err := buildScenario(*replicas, *configs)
	if err != nil {
		log.Fatal(err)
	}
	mon, err := core.NewMonitor(reg, core.WithSubstrate(sub), core.WithCatalog(catalog))
	if err != nil {
		log.Fatal(err)
	}

	timeline := metrics.NewTable(
		fmt.Sprintf("safety condition over time (n=%d, κ=%d, %s f=%.3f)",
			*replicas, *configs, mon.Substrate().Name, mon.Threshold()),
		"t (hours)", "entropy", "Σ f_t^i", "safe")
	for _, h := range []int{0, 12, 24, 48, 72, 120} {
		a, err := mon.Assess(time.Duration(h) * time.Hour)
		if err != nil {
			log.Fatal(err)
		}
		timeline.AddRowf(h, a.Diversity.Entropy, a.Injection.TotalFraction, fmt.Sprint(a.Safe))
	}
	fmt.Print(timeline.String())
	if ctx.Err() != nil {
		log.Fatal("interrupted")
	}

	vr, err := reg.VulnReplicas(registry.DefaultWeighting)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := adversary.GreedyExploits(catalog, vr, 24*time.Hour, *budget, mon.Threshold())
	if err != nil {
		log.Fatal(err)
	}
	attack := metrics.NewTable("greedy exploit plan at t=24h", "metric", "value")
	attack.AddRowf("exploits chosen", fmt.Sprint(plan.Chosen))
	attack.AddRowf("compromised power fraction", plan.Fraction)
	attack.AddRowf("breaks threshold", fmt.Sprint(plan.Breaks))
	fmt.Print("\n" + attack.String())
	if ctx.Err() != nil {
		log.Fatal("interrupted")
	}

	worst, err := mon.WorstAssessment(120 * time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nworst window: t=%v  Σf=%.3f  safe=%v\n",
		worst.At, worst.Injection.TotalFraction, worst.Safe)
}

// substrateFor maps the -substrate flag to a consensus family. The
// committee family sizes its quorum to the fleet.
func substrateFor(name string, seats int) (core.Substrate, error) {
	switch name {
	case "bft":
		return core.BFT, nil
	case "nakamoto":
		return core.Nakamoto, nil
	case "committee":
		return core.Committee(seats)
	default:
		return core.Substrate{}, fmt.Errorf("unknown substrate %q (have bft, nakamoto, committee)", name)
	}
}

// buildScenario spreads n replicas over κ OS configurations round-robin and
// publishes one zero-day per OS product, staggered in time.
func buildScenario(n, kappa int) (*registry.Registry, *vuln.Catalog, error) {
	reg := registry.New(nil, nil)
	for i := 0; i < n; i++ {
		cfg := config.MustNew(config.Component{
			Class:   config.ClassOperatingSystem,
			Name:    fmt.Sprintf("os-%02d", i%kappa),
			Version: "1",
		})
		id := registry.ReplicaID(fmt.Sprintf("replica-%03d", i))
		if err := reg.JoinDeclared(id, cfg, 1, 24*time.Hour); err != nil {
			return nil, nil, err
		}
	}
	catalog := vuln.NewCatalog()
	for c := 0; c < kappa; c++ {
		v := vuln.Vulnerability{
			ID:        vuln.ID(fmt.Sprintf("CVE-os-%02d", c)),
			Class:     config.ClassOperatingSystem,
			Product:   fmt.Sprintf("os-%02d", c),
			Disclosed: time.Duration(12+6*c) * time.Hour,
			PatchAt:   time.Duration(36+6*c) * time.Hour,
			Severity:  1,
		}
		if err := catalog.Add(v); err != nil {
			return nil, nil, err
		}
	}
	return reg, catalog, nil
}
