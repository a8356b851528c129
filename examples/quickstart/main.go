// Quickstart: measure the fault independence of a small replica fleet.
//
// It builds a five-replica permissionless registry (three replicas sharing
// one configuration — a monoculture cluster — plus two diverse ones),
// registers one zero-day against the shared configuration, and asks the
// core monitor whether the system can stay safe through the vulnerability
// window.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/vuln"
)

func main() {
	log.SetFlags(0)

	// 1. A permissionless registry: anyone can join with a declared
	//    configuration and voting power.
	reg := registry.New(nil, nil)
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
}
