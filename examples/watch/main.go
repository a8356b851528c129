// watch demonstrates continuous fault-independence assessment: instead of
// polling Monitor.Assess at hand-picked instants, Monitor.Watch streams an
// Assessment per tick until its context is cancelled — the shape a
// production deployment consumes (dashboard, alerting, enforcement).
//
// The monitor runs on a core.VirtualTime clock: the driver advances
// virtual time six hours at a time and Watch emits exactly one assessment
// per six-hour boundary — no wall ticker anywhere — replaying a zero-day
// lifecycle (disclosed t=10h, patched t=20h + 24h replica patch latency)
// in milliseconds of wall time, deterministically.
//
// Run with: go run ./examples/watch
package main

import (
	"context"
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

	// A virtual clock paces the stream: Watch emits one assessment per 6h
	// of virtual time, exactly at the boundaries the driver crosses.
	vt := core.NewVirtualTime()
	mon, err := core.NewMonitor(reg,
		core.WithCatalog(catalog),
		core.WithSubstrate(core.BFT),
		core.WithVirtualTime(vt),
		core.WithWatchInterval(6*time.Hour),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("streaming assessments (%s family, f=%.3f), one emission = 6 virtual hours\n\n",
		mon.Substrate().Name, mon.Threshold())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := mon.Watch(ctx)
	wasSafe := true
	for a := range stream {
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
			cancel() // the lifecycle has played out; stop the stream
			break
		}
		wasSafe = a.Safe
		vt.Advance(6 * time.Hour) // drive the deployment forward
	}
	fmt.Println("\nwatch terminated with its context — no goroutine left behind")
}
