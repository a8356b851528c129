package experiment_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/committee"
	"repro/internal/config"
	"repro/internal/diversity"
	"repro/internal/experiment"
	"repro/internal/integration"
	"repro/internal/planner"
	"repro/internal/pooldata"
)

// Figure 1 of the paper end to end: the best-case entropy of Bitcoin
// replica diversity as the unattributed 0.87% of hash power spreads over
// 1..1000 additional miners, rendered as an ASCII plot with the 8-replica
// BFT reference line (entropy = 3 bits).
//
// The series comes from the experiment registry (entry F1, scaled via
// Params); the registry returns the typed curve points alongside the
// printable table.
func Example_bitcoinEntropy() {
	f1, ok := experiment.Lookup("F1")
	if !ok {
		log.Fatal("experiment F1 not registered")
	}
	params := experiment.DefaultParams()
	params.Scale = 1000 // tail miners on the Figure 1 x-axis
	_, result, err := f1.Run(context.Background(), params)
	if err != nil {
		log.Fatal(err)
	}
	points, ok := result.([]pooldata.Figure1Point)
	if !ok {
		log.Fatalf("F1 rows have type %T, want []pooldata.Figure1Point", result)
	}

	fmt.Println("Figure 1 — best-case entropy of Bitcoin replica diversity")
	fmt.Println("x: miners sharing the residual 0.87% of hash power (log-ish samples)")
	fmt.Println()

	const width = 60
	lo, hi := 2.7, 3.05 // plot window: the action happens just below 3 bits
	ref8, err := diversity.Uniform(8).Entropy()
	if err != nil {
		log.Fatal(err)
	}
	plot := func(label string, h float64) {
		pos := int((h - lo) / (hi - lo) * float64(width))
		if pos < 0 {
			pos = 0
		}
		if pos >= width {
			pos = width - 1
		}
		bar := strings.Repeat("·", pos) + "█"
		fmt.Printf("%-22s %6.4f |%s\n", label, h, bar)
	}
	for _, x := range []int{1, 2, 5, 10, 20, 50, 101, 200, 500, 1000} {
		p := points[x-1]
		plot(fmt.Sprintf("x=%d (%d miners)", p.TailMiners, p.Miners), p.Entropy)
	}
	plot("BFT, 8 replicas", ref8)

	fmt.Println()
	snap, err := pooldata.SnapshotDistribution().Entropy()
	if err != nil {
		log.Fatal(err)
	}
	eff, err := pooldata.SnapshotDistribution().EffectiveConfigurations()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot alone: %.4f bits (%.2f effective configurations)\n", snap, eff)
	fmt.Printf("paper's claim: even with 1017 miners the curve stays below %.0f bits — ", ref8)
	max := points[len(points)-1].Entropy
	if max < ref8 {
		fmt.Printf("confirmed (max %.4f)\n", max)
	} else {
		fmt.Printf("NOT confirmed (max %.4f)\n", max)
	}
	fmt.Println("an oligopolistic network of a thousand miners is less fault-independent than 8 diverse BFT replicas")
	// Output:
	// Figure 1 — best-case entropy of Bitcoin replica diversity
	// x: miners sharing the residual 0.87% of hash power (log-ish samples)
	//
	// x=1 (18 miners)        2.8281 |·····················█
	// x=2 (19 miners)        2.8368 |·······················█
	// x=5 (22 miners)        2.8483 |·························█
	// x=10 (27 miners)       2.8570 |··························█
	// x=20 (37 miners)       2.8657 |····························█
	// x=50 (67 miners)       2.8772 |······························█
	// x=101 (118 miners)     2.8860 |·······························█
	// x=200 (217 miners)     2.8946 |·································█
	// x=500 (517 miners)     2.9061 |···································█
	// x=1000 (1017 miners)   2.9148 |····································█
	// BFT, 8 replicas        3.0000 |···················································█
	//
	// snapshot alone: 2.7802 bits (6.87 effective configurations)
	// paper's claim: even with 1017 miners the curve stays below 3 bits — confirmed (max 2.9148)
	// an oligopolistic network of a thousand miners is less fault-independent than 8 diverse BFT replicas
}

// Three membership-selection rules for committee-based permissionless
// protocols (the paper's Challenge 1/2 enforcement point):
//
//   - stake-weighted sortition (status quo): seats follow the money, so a
//     popular configuration dominates the committee;
//   - VRF sortition: publicly verifiable, same stake bias;
//   - diversity-aware selection: greedily maximises configuration entropy.
//
// The sweep runs through the experiment registry (entry X5); the closing
// section builds a committee.Selector directly — the functional-options
// construction a protocol integration would use.
func Example_diverseCommittee() {
	fmt.Println("committee selection under a configuration oligopoly")
	fmt.Println("candidate pool: 120 candidates over 8 configurations;")
	fmt.Println("configuration cfg-0 has 64 candidates holding 10x stake each")
	fmt.Println()

	x5, ok := experiment.Lookup("X5")
	if !ok {
		log.Fatal("experiment X5 not registered")
	}
	params := experiment.DefaultParams()
	params.Seed = 42
	tab, result, err := x5.Run(context.Background(), params)
	if err != nil {
		log.Fatal(err)
	}
	integration.PrintTrimmed(tab.String())
	fmt.Println()
	rows, ok := result.([]experiment.CommitteeRow)
	if !ok {
		log.Fatalf("X5 rows have type %T, want []experiment.CommitteeRow", result)
	}
	for _, r := range rows {
		gain := r.DiverseEntropy - r.StakeEntropy
		fmt.Printf("size %3d: diversity-aware selection gains %.3f bits over stake-weighted sortition\n",
			r.Size, gain)
	}

	// The same rule as a library call: a Selector configured with
	// functional options, here the verifiable-VRF flavour for one epoch.
	sel, err := committee.NewSelector(
		committee.WithStrategy(committee.VRF),
		committee.WithVRFSeed([]byte("epoch-42-beacon")),
	)
	if err != nil {
		log.Fatal(err)
	}
	var pool []committee.Candidate
	for cfg := 0; cfg < 4; cfg++ {
		for i := 0; i < 4; i++ {
			pool = append(pool, committee.Candidate{
				ID:          fmt.Sprintf("node-%d-%d", cfg, i),
				Stake:       float64(1 + cfg),
				ConfigLabel: fmt.Sprintf("cfg-%d", cfg),
			})
		}
	}
	seats, err := sel.Select(pool, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s selector drew %d seats from %d candidates (anyone can re-run the lottery):\n",
		sel.Strategy(), len(seats), len(pool))
	for _, s := range seats {
		fmt.Printf("  %-10s %s\n", s.ID, s.ConfigLabel)
	}

	fmt.Println("\nentropy gained is fault independence gained: a zero-day in cfg-0's stack")
	fmt.Println("compromises most of a stake-selected committee but a bounded slice of a diverse one")
	// Output:
	// committee selection under a configuration oligopoly
	// candidate pool: 120 candidates over 8 configurations;
	// configuration cfg-0 has 64 candidates holding 10x stake each
	//
	// == X5 — committee selection: stake-only vs VRF vs diversity-aware ==
	// committee size  H stake-weighted  H VRF   H diversity-aware  κ (diverse)
	// --------------  ----------------  ------  -----------------  ------------
	// 16              0.6686            0.3373  3                  8
	// 32              0.7311            0.9881  3                  8
	// 64              0.813             1.3484  3                  8
	// 96              1.8512            1.8482  2.6175             0
	// note: candidate pool: 8 configurations, stake concentrated 10:1 in one of them
	//
	// size  16: diversity-aware selection gains 2.331 bits over stake-weighted sortition
	// size  32: diversity-aware selection gains 2.269 bits over stake-weighted sortition
	// size  64: diversity-aware selection gains 2.187 bits over stake-weighted sortition
	// size  96: diversity-aware selection gains 0.766 bits over stake-weighted sortition
	//
	// vrf selector drew 7 seats from 16 candidates (anyone can re-run the lottery):
	//   node-1-0   cfg-1
	//   node-2-2   cfg-2
	//   node-3-2   cfg-3
	//   node-2-0   cfg-2
	//   node-3-0   cfg-3
	//   node-1-3   cfg-1
	//   node-0-1   cfg-0
	//
	// entropy gained is fault independence gained: a zero-day in cfg-0's stack
	// compromises most of a stake-selected committee but a bounded slice of a diverse one
}

// The paper's concluding proposal: replicas that can attest their
// configuration (via TPM/TEE quotes) get full voting weight, while
// self-declared replicas are discounted. With a diverse attested tier and
// a monoculture declared tier sitting on a zero-day, sweeping the discount
// shows the system crossing back into the safe region.
//
// The sweep runs through the experiment registry — the same entry
// cmd/experiments prints and bench_test.go times — and type-asserts the
// structured rows back out for the narrative.
func Example_twoTier() {
	fmt.Println("two-tier replica weighting (paper's conclusion, quantified)")
	fmt.Println()
	fmt.Println("attested tier:  6 replicas, 6 distinct consensus clients, 10 power each (TPM-quoted)")
	fmt.Println("declared tier:  8 replicas, all running 'popular-client' v9, 15 power each")
	fmt.Println("zero-day:       CVE-mono-client in popular-client, window open at assessment time")
	fmt.Println()

	x2, ok := experiment.Lookup("X2")
	if !ok {
		log.Fatal("experiment X2 not registered")
	}
	tab, result, err := x2.Run(context.Background(), experiment.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	integration.PrintTrimmed(tab.String())
	fmt.Println()

	rows, ok := result.([]experiment.TwoTierRow)
	if !ok {
		log.Fatalf("X2 rows have type %T, want []experiment.TwoTierRow", result)
	}
	for _, r := range rows {
		if r.Safe {
			fmt.Printf("first safe discount: δ=%v — declared votes count at %.0f%%, Σf drops to %.3f ≤ 1/3\n",
				r.Discount, 100*r.Discount, r.CompromisedFrac)
			return
		}
	}
	fmt.Println("no discount in the sweep restored safety")
	// Output:
	// two-tier replica weighting (paper's conclusion, quantified)
	//
	// attested tier:  6 replicas, 6 distinct consensus clients, 10 power each (TPM-quoted)
	// declared tier:  8 replicas, all running 'popular-client' v9, 15 power each
	// zero-day:       CVE-mono-client in popular-client, window open at assessment time
	//
	// == X2 — two-tier (attested vs declared) vote weighting ==
	// declared discount δ   entropy (bits)  faults to 1/3  compromised power  safe (f=1/3)
	// --------------------  --------------  -------------  -----------------  ------------
	// 1                     1.78            1              0.6667             false
	// 0.75                  2.0049          1              0.6                false
	// 0.5                   2.2925          1              0.5                false
	// 0.25                  2.6416          2              0.3333             true
	// 0.1                   2.8042          3              0.1667             true
	// note: declared tier: monoculture client with an open zero-day; attested tier: diverse
	//
	// first safe discount: δ=0.25 — declared votes count at 25%, Σf drops to 0.333 ≤ 1/3
}

// Lazarus-style diversity management and proactive recovery — the two
// mitigation families the paper's related work points to — on a
// 24-replica fleet:
//
//  1. assign configurations three ways (managed/greedy, unmanaged/random,
//     monoculture) and compare component-level fault domains;
//  2. subject the diverse fleet to three staggered zero-days and compare
//     persistent compromise with and without periodic rejuvenation.
//
// Both tables run through the experiment registry (entries PLAN and M4).
func Example_diversityPlanner() {
	ctx := context.Background()
	params := experiment.DefaultParams()
	params.Seed = 42

	fmt.Println("1) configuration assignment: who shares a fault domain?")
	fmt.Println()
	planExp, ok := experiment.Lookup("PLAN")
	if !ok {
		log.Fatal("experiment PLAN not registered")
	}
	tab, result, err := planExp.Run(ctx, params)
	if err != nil {
		log.Fatal(err)
	}
	integration.PrintTrimmed(tab.String())
	fmt.Println()
	plans, ok := result.([]planner.Plan)
	if !ok {
		log.Fatalf("PLAN rows have type %T, want []planner.Plan", result)
	}
	for _, p := range plans {
		fmt.Printf("  %-20s one zero-day in %-36s captures %.0f%% of voting power\n",
			p.Strategy+":", p.WorstComponent, 100*p.WorstComponentShare)
	}

	fmt.Println()
	fmt.Println("2) proactive recovery: how long does a compromise last?")
	fmt.Println()
	m4, ok := experiment.Lookup("M4")
	if !ok {
		log.Fatal("experiment M4 not registered")
	}
	rTab, _, err := m4.Run(ctx, params)
	if err != nil {
		log.Fatal(err)
	}
	integration.PrintTrimmed(rTab.String())

	fmt.Println()
	fmt.Println("3) the planner as a library call:")
	cat := config.NewCatalog()
	for _, c := range []config.Component{
		{Class: config.ClassOperatingSystem, Name: "debian", Version: "12"},
		{Class: config.ClassOperatingSystem, Name: "freebsd", Version: "13.2"},
		{Class: config.ClassOperatingSystem, Name: "openbsd", Version: "7.3"},
		{Class: config.ClassCryptoLibrary, Name: "openssl", Version: "3.0.8"},
		{Class: config.ClassCryptoLibrary, Name: "libsodium", Version: "1.0.18"},
	} {
		if err := cat.Add(c); err != nil {
			log.Fatal(err)
		}
	}
	cfgs, err := planner.GreedyAssign(cat, 6)
	if err != nil {
		log.Fatal(err)
	}
	for i, cfg := range cfgs {
		fmt.Printf("  replica %d -> %s\n", i, cfg)
	}
	// Output:
	// 1) configuration assignment: who shares a fault domain?
	//
	// == PLAN — component-level fault domains by assignment strategy (n=24) ==
	// strategy            distinct configs  worst component share  worst component                     component faults to 1/3  to 1/2
	// ------------------  ----------------  ---------------------  ----------------------------------  -----------------------  ------
	// greedy (managed)    24                0.5                    runtime/glibc@2.37                  1                        2
	// random (unmanaged)  24                0.6667                 runtime/musl@1.2.3                  1                        1
	// monoculture         1                 1                      consensus-module/bitcoin-core@24.0  1                        1
	// note: component view refines Definition 1: distinct configurations still share per-component fault domains
	// note: the 2-choice runtime class caps everyone's worst share at 1/2 (Remark 2's scarcity, measured)
	//
	//   greedy (managed):    one zero-day in runtime/glibc@2.37                   captures 50% of voting power
	//   random (unmanaged):  one zero-day in runtime/musl@1.2.3                   captures 67% of voting power
	//   monoculture:         one zero-day in consensus-module/bitcoin-core@24.0   captures 100% of voting power
	//
	// 2) proactive recovery: how long does a compromise last?
	//
	// == M4 — proactive recovery vs persistent compromise (16 replicas, 3 zero-days) ==
	// rejuvenation schedule      peak Σf   time share unsafe (f=1/3)  Σf at horizon
	// -------------------------  --------  -------------------------  --------------
	// none (implants persist)    0.75      0.8007                     0.75
	// every 24h0m0s, staggered   0.25      0                          0
	// every 168h0m0s, staggered  0.4375    0.0797                     0
	// note: without recovery the three faults accumulate to 3/4 of the fleet and never heal
	//
	// 3) the planner as a library call:
	//   replica 0 -> config{operating-system/debian@12, crypto-library/openssl@3.0.8}
	//   replica 1 -> config{operating-system/freebsd@13.2, crypto-library/libsodium@1.0.18}
	//   replica 2 -> config{operating-system/openbsd@7.3, crypto-library/openssl@3.0.8}
	//   replica 3 -> config{operating-system/debian@12, crypto-library/libsodium@1.0.18}
	//   replica 4 -> config{operating-system/freebsd@13.2, crypto-library/openssl@3.0.8}
	//   replica 5 -> config{operating-system/openbsd@7.3, crypto-library/libsodium@1.0.18}
}
