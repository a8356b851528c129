// scenario walks through the deterministic scenario engine
// (internal/scenario) twice over:
//
//  1. A custom inline scenario — a minimal churn + zero-day timeline
//     programmed through the Engine's scheduling helpers — showing that a
//     scenario is just a Def with a Setup hook.
//  2. A library scenario (flash-churn) run by name, showing the registry
//     and the replay guarantee: the same (name, seed) always produces the
//     same trace, byte for byte.
//
// Run with: go run ./examples/scenario
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/adversary"
	"repro/internal/config"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/vuln"
)

func main() {
	log.SetFlags(0)

	// --- 1. a custom scenario ---
	day := 24 * time.Hour
	cfg := func(os string) config.Configuration {
		return config.MustNew(config.Component{
			Class: config.ClassOperatingSystem, Name: os, Version: "1",
		})
	}
	def := scenario.Def{
		Name:    "example-inline",
		Title:   "three joins, one zero-day, one probe",
		Horizon: 4 * day,
		Tick:    day,
		Setup: func(e *scenario.Engine) error {
			for i, os := range []string{"linux", "bsd", "illumos"} {
				id := registry.ReplicaID(fmt.Sprintf("r-%d", i))
				if err := e.JoinAt(time.Duration(i)*time.Hour, id, cfg(os), 10, 12*time.Hour); err != nil {
					return err
				}
			}
			err := e.Disclose(vuln.Vulnerability{
				ID: "CVE-EX-0001", Class: config.ClassOperatingSystem,
				Product: "linux", Version: "1",
				Disclosed: day, PatchAt: 2 * day, Severity: 1,
			})
			if err != nil {
				return err
			}
			return e.ProbeAt(36*time.Hour, adversary.ExploitStrategy{Budget: 1})
		},
	}

	res, err := scenario.Run(def, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inline scenario: %d trace records (derived seed %d)\n", len(res.Records), res.Seed)
	for _, rec := range res.Records {
		line := fmt.Sprintf("  t=%-8s %-8s safe=%-5t H=%.3fb Σf=%.2f", rec.T, rec.Event, rec.Safe, rec.Entropy, rec.Compromised)
		if rec.Detail != "" {
			line += "  " + rec.Detail
		}
		if rec.AdvStrategy != "" {
			line += fmt.Sprintf("  [%s -> %.2f breaks=%t]", rec.AdvStrategy, rec.AdvFraction, rec.AdvBreaks)
		}
		fmt.Println(line)
	}

	// --- 2. a library scenario, replayed ---
	// Registered scenarios resolve through Lookup and run through the same
	// unified Run entrypoint as inline defs.
	flashChurn, ok := scenario.Lookup("flash-churn")
	if !ok {
		log.Fatal("flash-churn not registered")
	}
	first, err := scenario.Run(flashChurn, 42)
	if err != nil {
		log.Fatal(err)
	}
	again, err := scenario.Run(flashChurn, 42)
	if err != nil {
		log.Fatal(err)
	}
	identical := len(first.Records) == len(again.Records)
	for i := 0; identical && i < len(first.Records); i++ {
		a, errA := first.Records[i].JSON()
		b, errB := again.Records[i].JSON()
		if errA != nil || errB != nil {
			log.Fatal(errA, errB)
		}
		identical = a == b
	}
	s := first.Summary()
	fmt.Printf("\nflash-churn @ seed 42: %d records, min entropy %.3fb, worst Σf %.3f at %v, replay byte-identical: %t\n",
		s.Records, s.MinEntropy, s.MaxComp, s.MaxCompAt, identical)
	fmt.Println("(the scenarios CLI lists and runs the full library: go run ./cmd/scenarios list)")
}
