package core_test

import (
	"fmt"
	"log"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/vuln"
)

// Measure the fault independence of a small replica fleet: a five-replica
// permissionless registry (three replicas sharing one configuration — a
// monoculture cluster — plus two diverse ones), one zero-day against the
// shared configuration, and the core monitor asked whether the system can
// stay safe through the vulnerability window.
func Example_quickstart() {
	// 1. A permissionless registry: anyone can join with a declared
	//    configuration and voting power.
	reg := registry.New(nil)
	join := func(id, osName string, power float64) {
		cfg := config.MustNew(config.Component{
			Class: config.ClassOperatingSystem, Name: osName, Version: "22.04",
		})
		if err := reg.JoinDeclared(registry.ReplicaID(id), cfg, power, 24*time.Hour); err != nil {
			log.Fatal(err)
		}
	}
	join("alice", "ubuntu", 30)
	join("bob", "ubuntu", 20)
	join("carol", "ubuntu", 10) // ubuntu now carries 60% of the power
	join("dave", "freebsd", 25)
	join("erin", "openbsd", 15)

	// 2. One zero-day against the popular OS, disclosed at t=10h, patched
	//    at t=20h (plus each replica's own patch latency).
	catalog := vuln.NewCatalog()
	if err := catalog.Add(vuln.Vulnerability{
		ID:        "CVE-2023-0001",
		Class:     config.ClassOperatingSystem,
		Product:   "ubuntu",
		Version:   "22.04",
		Disclosed: 10 * time.Hour,
		PatchAt:   20 * time.Hour,
		Severity:  1,
	}); err != nil {
		log.Fatal(err)
	}

	// 3. Assess fault independence before, during and after the window.
	//    The monitor defaults to the BFT family (f = 1/3); selecting it
	//    explicitly documents the choice and keeps it a value, not a
	//    constant.
	mon, err := core.NewMonitor(reg,
		core.WithCatalog(catalog),
		core.WithSubstrate(core.BFT),
	)
	if err != nil {
		log.Fatal(err)
	}
	for _, at := range []time.Duration{0, 15 * time.Hour, 60 * time.Hour} {
		a, err := mon.Assess(at)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%-4v entropy=%.3f bits  effective-configs=%.2f  Σf=%.2f  safe(f=1/3)=%v\n",
			at, a.Diversity.Entropy, a.Diversity.EffectiveConfigurations,
			a.Injection.TotalFraction, a.Safe)
	}

	// 4. The worst moment for the defenders, found automatically.
	worst, err := mon.WorstAssessment(120 * time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nworst window: t=%v with %.0f%% of voting power compromised by one fault\n",
		worst.At, 100*worst.Injection.TotalFraction)
	fmt.Println("lesson: three replicas sharing one OS are one fault, not three (Sec. II-C)")
	// Output:
	// t=0s   entropy=1.353 bits  effective-configs=2.55  Σf=0.00  safe(f=1/3)=true
	// t=15h0m0s entropy=1.353 bits  effective-configs=2.55  Σf=0.60  safe(f=1/3)=false
	// t=60h0m0s entropy=1.353 bits  effective-configs=2.55  Σf=0.00  safe(f=1/3)=true
	//
	// worst window: t=10h0m0s with 60% of voting power compromised by one fault
	// lesson: three replicas sharing one OS are one fault, not three (Sec. II-C)
}

// Continuous assessment: the monitor keeps no clock, so a deployment that
// follows its fleet over time steps Monitor.Assess along its own timeline.
// Here the driver steps virtual time six hours at a time, replaying a
// zero-day lifecycle (disclosed t=10h, patched t=20h + 24h replica patch
// latency) in microseconds of wall time, deterministically. monitord's SSE
// watch paces the same steps for remote clients (see its ExampleServer).
func ExampleMonitor_Assess() {
	// The quickstart fleet: three replicas on one OS, two diverse.
	reg := registry.New(nil)
	join := func(id, osName string, power float64) {
		cfg := config.MustNew(config.Component{
			Class: config.ClassOperatingSystem, Name: osName, Version: "22.04",
		})
		if err := reg.JoinDeclared(registry.ReplicaID(id), cfg, power, 24*time.Hour); err != nil {
			log.Fatal(err)
		}
	}
	join("alice", "ubuntu", 30)
	join("bob", "ubuntu", 20)
	join("carol", "ubuntu", 10)
	join("dave", "freebsd", 25)
	join("erin", "openbsd", 15)

	catalog := vuln.NewCatalog()
	if err := catalog.Add(vuln.Vulnerability{
		ID:        "CVE-2023-0001",
		Class:     config.ClassOperatingSystem,
		Product:   "ubuntu",
		Version:   "22.04",
		Disclosed: 10 * time.Hour,
		PatchAt:   20 * time.Hour,
		Severity:  1,
	}); err != nil {
		log.Fatal(err)
	}

	mon, err := core.NewMonitor(reg,
		core.WithCatalog(catalog),
		core.WithSubstrate(core.BFT),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("assessing every 6 virtual hours (%s family, f=%.3f)\n\n",
		mon.Substrate().Name, mon.Threshold())

	wasSafe, steps := true, uint64(0)
	for at := time.Duration(0); ; at += 6 * time.Hour {
		steps++
		a, err := mon.Assess(at)
		if err != nil {
			log.Fatal(err)
		}
		status := "SAFE  "
		if !a.Safe {
			status = "UNSAFE"
		}
		fmt.Printf("t=%-5v %s  entropy=%.3f bits  Σf=%.2f\n",
			a.At, status, a.Diversity.Entropy, a.Injection.TotalFraction)
		if !a.Safe && wasSafe {
			fmt.Println("        ^ zero-day window open: ubuntu carries 60% > 1/3 of the power")
		}
		if a.Safe && !wasSafe {
			fmt.Println("        ^ window closed: every ubuntu replica patched")
			break
		}
		wasSafe = a.Safe
	}
	fmt.Printf("\n%d of %d steps evaluated the fault picture (start, disclosure, close); the rest were memo hits\n",
		steps-mon.Stats().AssessMemoHits, steps)
	// Output:
	// assessing every 6 virtual hours (bft family, f=0.333)
	//
	// t=0s    SAFE    entropy=1.353 bits  Σf=0.00
	// t=6h0m0s SAFE    entropy=1.353 bits  Σf=0.00
	// t=12h0m0s UNSAFE  entropy=1.353 bits  Σf=0.60
	//         ^ zero-day window open: ubuntu carries 60% > 1/3 of the power
	// t=18h0m0s UNSAFE  entropy=1.353 bits  Σf=0.60
	// t=24h0m0s UNSAFE  entropy=1.353 bits  Σf=0.60
	// t=30h0m0s UNSAFE  entropy=1.353 bits  Σf=0.60
	// t=36h0m0s UNSAFE  entropy=1.353 bits  Σf=0.60
	// t=42h0m0s UNSAFE  entropy=1.353 bits  Σf=0.60
	// t=48h0m0s SAFE    entropy=1.353 bits  Σf=0.00
	//         ^ window closed: every ubuntu replica patched
	//
	// 3 of 9 steps evaluated the fault picture (start, disclosure, close); the rest were memo hits
}
