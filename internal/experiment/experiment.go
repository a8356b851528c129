// Package experiment regenerates every table and figure of the paper plus
// the extension experiments cmd/experiments -list enumerates. Each
// experiment is a pure function returning structured results and a
// metrics.Table; cmd/experiments prints them and bench_test.go times them.
package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/adversary"
	"repro/internal/attest"
	"repro/internal/bftlive"
	"repro/internal/committee"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/diversity"
	"repro/internal/metrics"
	"repro/internal/nakamoto"
	"repro/internal/pooldata"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/vuln"
)

// Figure1 reproduces Figure 1: best-case entropy of Bitcoin replica
// diversity as the residual 0.87% of power spreads over x = 1..maxTail
// miners. The table samples the curve at round x values.
func Figure1(maxTail int) (*metrics.Table, []pooldata.Figure1Point, error) {
	points, err := pooldata.Figure1Series(maxTail)
	if err != nil {
		return nil, nil, err
	}
	tab := metrics.NewTable("Figure 1 — best-case entropy of Bitcoin replica diversity",
		"x (tail miners)", "total miners", "entropy (bits)")
	samples := []int{1, 2, 5, 10, 20, 50, 101, 200, 500, 1000}
	for _, x := range samples {
		if x > maxTail {
			break
		}
		p := points[x-1]
		tab.AddRowf(p.TailMiners, p.Miners, p.Entropy)
	}
	tab.AddNote("paper claim: curve stays below 3 bits (8-replica BFT level) for all x <= 1000")
	return tab, points, nil
}

// Example1Result carries the quantities Example 1 compares.
type Example1Result struct {
	BitcoinEntropy      float64
	BitcoinEffective    float64
	BFT8Entropy         float64
	BitcoinFaultsToHalf int
	BFT8FaultsToThird   int
	MaxPoolShare        float64
}

// Example1 reproduces Example 1: the Bitcoin snapshot's entropy against an
// 8-replica uniquely-configured BFT cluster.
func Example1() (*metrics.Table, Example1Result, error) {
	var res Example1Result
	snap := pooldata.SnapshotDistribution()
	var err error
	if res.BitcoinEntropy, err = snap.Entropy(); err != nil {
		return nil, res, err
	}
	if res.BitcoinEffective, err = snap.EffectiveConfigurations(); err != nil {
		return nil, res, err
	}
	if res.BitcoinFaultsToHalf, err = snap.MinFaultsToExceed(0.5); err != nil {
		return nil, res, err
	}
	if _, res.MaxPoolShare, err = snap.MaxShare(); err != nil {
		return nil, res, err
	}
	bft8 := diversity.Uniform(8)
	if res.BFT8Entropy, err = bft8.Entropy(); err != nil {
		return nil, res, err
	}
	if res.BFT8FaultsToThird, err = bft8.MinFaultsToExceed(1.0 / 3.0); err != nil {
		return nil, res, err
	}
	tab := metrics.NewTable("Example 1 — Bitcoin oligopoly vs 8-replica BFT",
		"system", "configs", "entropy (bits)", "effective configs", "min faults to break")
	tab.AddRowf("bitcoin (17 pools)", 17, res.BitcoinEntropy, res.BitcoinEffective, res.BitcoinFaultsToHalf)
	tab.AddRowf("bft (8 replicas)", 8, res.BFT8Entropy, 8.0, res.BFT8FaultsToThird)
	tab.AddNote("bitcoin break threshold 1/2 (Nakamoto), bft threshold 1/3 (quorum)")
	tab.AddNote("largest pool (Foundry USA) share: %.3f", res.MaxPoolShare)
	return tab, res, nil
}

// Proposition1Table sweeps abundance growth patterns on κ-optimal systems.
func Proposition1Table() (*metrics.Table, []diversity.Proposition1Outcome, error) {
	tab := metrics.NewTable("Proposition 1 — abundance growth vs entropy (κ-optimal start)",
		"κ", "ω", "growth pattern", "H before", "H after", "Δ")
	var outs []diversity.Proposition1Outcome
	cases := []struct {
		kappa, omega int
		pattern      string
		additions    func(k int) []int
	}{
		{4, 2, "skewed (all to one config)", func(k int) []int { a := make([]int, k); a[0] = 8; return a }},
		{8, 2, "skewed (all to one config)", func(k int) []int { a := make([]int, k); a[0] = 16; return a }},
		{8, 2, "proportional (+3 each)", func(k int) []int {
			a := make([]int, k)
			for i := range a {
				a[i] = 3
			}
			return a
		}},
		{16, 4, "half the configs +4", func(k int) []int {
			a := make([]int, k)
			for i := 0; i < k/2; i++ {
				a[i] = 4
			}
			return a
		}},
		{32, 1, "proportional (+1 each)", func(k int) []int {
			a := make([]int, k)
			for i := range a {
				a[i] = 1
			}
			return a
		}},
	}
	for _, c := range cases {
		out, err := diversity.CheckProposition1(c.kappa, c.omega, c.additions(c.kappa))
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, out)
		tab.AddRowf(c.kappa, c.omega, c.pattern, out.EntropyBefore, out.EntropyAfter, out.EntropyDecrease)
	}
	tab.AddNote("entropy decreases unless relative abundance is preserved (proportional growth)")
	return tab, outs, nil
}

// Proposition2Table grows a uniform tail behind the Bitcoin oligopoly and
// behind a uniform base, showing resilience stays flat only for the former.
func Proposition2Table() (*metrics.Table, []diversity.Proposition2Outcome, error) {
	tab := metrics.NewTable("Proposition 2 — unique configs: more replicas ≠ more resilience",
		"base", "added replicas", "H after", "faults to 1/2 after")
	var outs []diversity.Proposition2Outcome
	oligopoly := append([]float64(nil), pooldata.BitcoinSnapshotPercent...)
	uniform8 := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	for _, added := range []int{10, 100, 1000} {
		out, err := diversity.CheckProposition2(oligopoly, added, pooldata.ResidualPercent)
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, out)
		tab.AddRowf("bitcoin oligopoly", added, out.EntropyAfter, out.FaultsToHalfAfter)
	}
	for _, added := range []int{8, 24, 56} {
		// Uniform growth: every new replica carries the same unit power as
		// the base — identical relative abundance.
		out, err := diversity.CheckProposition2(uniform8, added, float64(added))
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, out)
		tab.AddRowf("uniform-8", added, out.EntropyAfter, out.FaultsToHalfAfter)
	}
	tab.AddNote("oligopoly: 2 faults suffice regardless of tail size; uniform base: resilience scales")
	return tab, outs, nil
}

// Prop3Row is one ω point of the Proposition 3 sweep.
type Prop3Row struct {
	Outcome      diversity.Proposition3Outcome
	MessagesSent uint64 // BFT messages to commit one value with κ·ω replicas
}

// Proposition3Table sweeps configuration abundance ω at fixed κ and
// measures both resilience axes plus the real message cost of one BFT
// consensus instance at that population size.
func Proposition3Table(kappa int, omegas []int) (*metrics.Table, []Prop3Row, error) {
	tab := metrics.NewTable(fmt.Sprintf("Proposition 3 — abundance vs resilience and overhead (κ=%d)", kappa),
		"ω", "replicas", "operator faults to 1/2", "config faults to 1/2", "BFT msgs/commit")
	var rows []Prop3Row
	for _, omega := range omegas {
		out, err := diversity.CheckProposition3(kappa, omega)
		if err != nil {
			return nil, nil, err
		}
		msgs, err := bftMessagesPerCommit(kappa * omega)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Prop3Row{Outcome: out, MessagesSent: msgs})
		tab.AddRowf(omega, out.Replicas, out.OperatorFaultsToHalf, out.ConfigFaultsToHalf, msgs)
	}
	tab.AddNote("operator resilience grows linearly in ω; config resilience is flat; message cost grows ~quadratically")
	return tab, rows, nil
}

// bftMessagesPerCommit runs one consensus instance with n unit-weight
// replicas and returns the messages sent.
func bftMessagesPerCommit(n int) (uint64, error) {
	if n < 4 {
		n = 4 // quorum protocols need at least 4 replicas
	}
	sched := sim.NewScheduler(42)
	net, err := simnet.New(sched, simnet.FixedLatency(5*time.Millisecond), 0)
	if err != nil {
		return 0, err
	}
	cl, err := bftlive.NewSimCluster(net, n)
	if err != nil {
		return 0, err
	}
	cl.Submit([]byte("probe"))
	if err := sched.Run(10 * time.Second); err != nil {
		return 0, err
	}
	if got := cl.CommittedBy([]byte("probe")); got != n {
		return 0, fmt.Errorf("experiment: only %d/%d replicas committed", got, n)
	}
	return net.Stats().Sent, nil
}

// SafetyRow is one point of the safety-violation-vs-diversity experiment.
type SafetyRow struct {
	Configs           int     // κ: distinct configurations across n replicas
	Entropy           float64 // configuration entropy of the cluster
	CompromisedWeight float64 // fraction of voting power the zero-day takes
	PredictedUnsafe   bool    // compromised > 1/3 (Sec. II-C)
	ObservedViolation bool    // the BFT run actually double-committed
}

// SafetyViolationVsEntropy builds n-replica BFT clusters whose replicas are
// spread over κ configurations (round-robin), injects one zero-day into the
// primary's configuration, lets the compromised replicas collude
// (equivocation + promiscuous voting), and reports whether safety actually
// breaks. The paper's Sec. II-C condition predicts the outcome exactly.
func SafetyViolationVsEntropy(n int, kappas []int) (*metrics.Table, []SafetyRow, error) {
	if n < 4 {
		return nil, nil, fmt.Errorf("experiment: n %d < 4", n)
	}
	tab := metrics.NewTable(fmt.Sprintf("X1 — shared-fault safety violations in %d-replica BFT", n),
		"κ (configs)", "entropy (bits)", "compromised power", "predicted unsafe", "observed violation")
	var rows []SafetyRow
	for _, kappa := range kappas {
		if kappa < 1 || kappa > n {
			return nil, nil, fmt.Errorf("experiment: κ %d out of [1,%d]", kappa, n)
		}
		row, err := runSafetyCase(n, kappa)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
		tab.AddRowf(kappa, row.Entropy, row.CompromisedWeight,
			fmt.Sprint(row.PredictedUnsafe), fmt.Sprint(row.ObservedViolation))
	}
	tab.AddNote("one zero-day in the primary's configuration; compromised replicas collude")
	return tab, rows, nil
}

func runSafetyCase(n, kappa int) (SafetyRow, error) {
	// Replica i runs configuration i mod κ; the zero-day hits config 0,
	// which includes the view-0 primary (replica 0).
	labels := make(map[string]float64)
	compromised := make([]int, 0, n)
	for i := 0; i < n; i++ {
		cfg := i % kappa
		labels[fmt.Sprintf("cfg-%03d", cfg)]++
		if cfg == 0 {
			compromised = append(compromised, i)
		}
	}
	dist, err := diversity.FromWeights(labels)
	if err != nil {
		return SafetyRow{}, err
	}
	row := SafetyRow{Configs: kappa}
	if row.Entropy, err = dist.Entropy(); err != nil {
		return SafetyRow{}, err
	}
	row.CompromisedWeight = float64(len(compromised)) / float64(n)
	row.PredictedUnsafe = row.CompromisedWeight > core.BFTThreshold
	if len(compromised) == n {
		// Total compromise: no honest replica remains to witness a
		// double-commit; safety is violated by definition.
		row.ObservedViolation = true
		return row, nil
	}

	sched := sim.NewScheduler(1234)
	net, err := simnet.New(sched, simnet.UniformLatency{Min: time.Millisecond, Max: 10 * time.Millisecond}, 0)
	if err != nil {
		return SafetyRow{}, err
	}
	cl, err := bftlive.NewSimCluster(net, n)
	if err != nil {
		return SafetyRow{}, err
	}
	for _, i := range compromised {
		if err := cl.SetBehavior(i, bftlive.Promiscuous); err != nil {
			return SafetyRow{}, err
		}
	}
	if err := cl.EquivocateNext([]byte("double-spend-A"), []byte("double-spend-B")); err != nil {
		return SafetyRow{}, err
	}
	if err := sched.Run(time.Minute); err != nil {
		return SafetyRow{}, err
	}
	row.ObservedViolation = cl.Violation() != nil
	return row, nil
}

// TwoTierRow is one discount point of the two-tier weighting sweep.
type TwoTierRow struct {
	Discount        float64
	Entropy         float64
	FaultsToThird   int
	CompromisedFrac float64
	Safe            bool
}

// TwoTierWeighting builds a registry whose attested tier is diverse but
// whose declared tier is a heavyweight monoculture carrying an exploitable
// zero-day, then sweeps the declared-tier vote discount δ — the paper's
// concluding proposal. Lower δ shifts effective power to the diverse tier,
// restoring the Sec. II-C safety condition.
func TwoTierWeighting(discounts []float64) (*metrics.Table, []TwoTierRow, error) {
	authReg, err := buildTwoTierRegistry()
	if err != nil {
		return nil, nil, err
	}
	cat := vuln.NewCatalog()
	if err := cat.Add(vuln.Vulnerability{
		ID: "CVE-mono-client", Class: config.ClassConsensusModule, Product: "popular-client",
		Disclosed: time.Hour, PatchAt: 48 * time.Hour, Severity: 1,
	}); err != nil {
		return nil, nil, err
	}
	tab := metrics.NewTable("X2 — two-tier (attested vs declared) vote weighting",
		"declared discount δ", "entropy (bits)", "faults to 1/3", "compromised power", "safe (f=1/3)")
	var rows []TwoTierRow
	for _, d := range discounts {
		out, err := core.EvaluateTwoTier(authReg, cat, core.BFTThreshold, d, 2*time.Hour)
		if err != nil {
			return nil, nil, err
		}
		row := TwoTierRow{
			Discount:        d,
			Entropy:         out.Weighted.Diversity.Entropy,
			FaultsToThird:   out.Weighted.Diversity.MinConfigFaultsToThird,
			CompromisedFrac: out.Weighted.Injection.TotalFraction,
			Safe:            out.Weighted.Safe,
		}
		rows = append(rows, row)
		tab.AddRowf(d, row.Entropy, row.FaultsToThird, row.CompromisedFrac, fmt.Sprint(row.Safe))
	}
	tab.AddNote("declared tier: monoculture client with an open zero-day; attested tier: diverse")
	return tab, rows, nil
}

func buildTwoTierRegistry() (*registry.Registry, error) {
	auth := newTestAuthority()
	reg := registry.New(auth.authority, nil)
	// Attested, diverse consensus clients.
	clients := []string{"client-a", "client-b", "client-c", "client-d", "client-e", "client-f"}
	for i, cl := range clients {
		cfg := config.MustNew(
			config.Component{Class: config.ClassTrustedHardware, Name: "tpm2", Version: "01.59"},
			config.Component{Class: config.ClassConsensusModule, Name: cl, Version: "1"},
		)
		if err := auth.joinAttested(reg, registry.ReplicaID(fmt.Sprintf("att-%d", i)), cfg, 10); err != nil {
			return nil, err
		}
	}
	// Declared monoculture: everyone runs the same popular client.
	mono := config.MustNew(config.Component{Class: config.ClassConsensusModule, Name: "popular-client", Version: "9"})
	for i := 0; i < 8; i++ {
		if err := reg.JoinDeclared(registry.ReplicaID(fmt.Sprintf("dec-%d", i)), mono, 15, 72*time.Hour); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// CommitteeRow is one committee-size point of the selection comparison.
type CommitteeRow struct {
	Size           int
	StakeEntropy   float64
	VRFEntropy     float64
	DiverseEntropy float64
	DiverseKappa   int
}

// CommitteeDiversity compares stake-weighted sortition, VRF sortition and
// diversity-aware selection on a candidate pool whose stake is concentrated
// in one configuration (the oligopoly shape of Example 1 again, but at the
// membership-selection layer).
func CommitteeDiversity(sizes []int, seed int64) (*metrics.Table, []CommitteeRow, error) {
	stakeSel, err := committee.NewSelector(
		committee.WithStrategy(committee.StakeWeighted),
		committee.WithRNG(rand.New(rand.NewSource(seed))))
	if err != nil {
		return nil, nil, err
	}
	vrfSel, err := committee.NewSelector(
		committee.WithStrategy(committee.VRF),
		committee.WithVRFSeed([]byte(fmt.Sprintf("seed-%d", seed))))
	if err != nil {
		return nil, nil, err
	}
	divSel, err := committee.NewSelector(committee.WithStrategy(committee.DiversityAware))
	if err != nil {
		return nil, nil, err
	}
	candidates := oligopolyCandidates()
	tab := metrics.NewTable("X5 — committee selection: stake-only vs VRF vs diversity-aware",
		"committee size", "H stake-weighted", "H VRF", "H diversity-aware", "κ (diverse)")
	var rows []CommitteeRow
	for _, size := range sizes {
		if size > len(candidates) {
			return nil, nil, fmt.Errorf("experiment: size %d exceeds %d candidates", size, len(candidates))
		}
		stakeCom, err := stakeSel.Select(candidates, size)
		if err != nil {
			return nil, nil, err
		}
		vrfCom, err := vrfSel.Select(candidates, size)
		if err != nil {
			return nil, nil, err
		}
		divCom, err := divSel.Select(candidates, size)
		if err != nil {
			return nil, nil, err
		}
		row := CommitteeRow{Size: size}
		if row.StakeEntropy, err = compositionEntropy(stakeCom); err != nil {
			return nil, nil, err
		}
		if row.VRFEntropy, err = compositionEntropy(vrfCom); err != nil {
			return nil, nil, err
		}
		if row.DiverseEntropy, err = compositionEntropy(divCom); err != nil {
			return nil, nil, err
		}
		byCount, _, err := committee.Composition(divCom)
		if err != nil {
			return nil, nil, err
		}
		if k, ok := byCount.Kappa(1e-9); ok {
			row.DiverseKappa = k
		}
		rows = append(rows, row)
		tab.AddRowf(size, row.StakeEntropy, row.VRFEntropy, row.DiverseEntropy, row.DiverseKappa)
	}
	tab.AddNote("candidate pool: 8 configurations, stake concentrated 10:1 in one of them")
	return tab, rows, nil
}

func compositionEntropy(com []committee.Candidate) (float64, error) {
	byCount, _, err := committee.Composition(com)
	if err != nil {
		return 0, err
	}
	return byCount.Entropy()
}

func oligopolyCandidates() []committee.Candidate {
	var out []committee.Candidate
	for cfg := 0; cfg < 8; cfg++ {
		count := 8
		stake := 1.0
		if cfg == 0 {
			count = 64 // the popular configuration
			stake = 10 // and its holders are whales
		}
		for i := 0; i < count; i++ {
			out = append(out, committee.Candidate{
				ID:          fmt.Sprintf("cand-%d-%03d", cfg, i),
				Stake:       stake,
				ConfigLabel: fmt.Sprintf("cfg-%d", cfg),
			})
		}
	}
	return out
}

// DoubleSpendRow is one (k, z) cell of the pool-compromise table.
type DoubleSpendRow struct {
	PoolsCompromised int
	Share            float64
	Confirmations    int
	Analytic         float64
	Simulated        float64
}

// DoubleSpendVsCompromise maps Example 1's oligopoly to operational attack
// success: compromising the top k pools yields hash share q; the table
// reports double-spend success probability at z confirmations, analytic
// (exact race) and simulated. Trials spread over workers goroutines via
// RunTrials; each (k, z) cell derives its own seed from (seed, k, z) so
// the table is identical for any worker count. ctx cancellation stops
// in-flight trial batches between chunks.
func DoubleSpendVsCompromise(ctx context.Context, ks []int, zs []int, trials, workers int, seed int64) (*metrics.Table, []DoubleSpendRow, error) {
	pools := make([]nakamoto.Pool, 0, len(pooldata.BitcoinSnapshotPercent))
	for _, p := range pooldata.BitcoinSnapshot() {
		pools = append(pools, nakamoto.Pool{Name: p.Name, Power: p.Share})
	}
	tab := metrics.NewTable("X4 — double-spend success vs compromised pools (Bitcoin snapshot)",
		"pools compromised", "hash share q", "confirmations z", "P analytic", "P simulated")
	var rows []DoubleSpendRow
	for _, k := range ks {
		q, err := nakamoto.CompromisedShare(pools, k)
		if err != nil {
			return nil, nil, err
		}
		for _, z := range zs {
			row := DoubleSpendRow{PoolsCompromised: k, Share: q, Confirmations: z}
			if q >= 0.5 {
				row.Analytic = 1
				row.Simulated = 1
			} else {
				if row.Analytic, err = nakamoto.DoubleSpendProbabilityExact(q, z); err != nil {
					return nil, nil, err
				}
				cellSeed := seed + int64(k)*1_000_003 + int64(z)*7919
				wins, err := RunTrials(ctx, workers, trials, cellSeed, func(rng *rand.Rand) bool {
					return nakamoto.DoubleSpendTrial(rng, q, z)
				})
				if err != nil {
					return nil, nil, err
				}
				row.Simulated = float64(wins) / float64(trials)
			}
			rows = append(rows, row)
			tab.AddRowf(k, q, z, row.Analytic, row.Simulated)
		}
	}
	tab.AddNote("k=2 pools already exceed q=1/2: guaranteed success (the oligopoly cliff)")
	return tab, rows, nil
}

// AdmissionRow compares accept-all vs share-capped admission after a churn
// trace.
type AdmissionRow struct {
	Policy        string
	Entropy       float64
	MaxShare      float64
	FaultsToThird int
}

// AdmissionAblation replays a skewed join trace (config popularity ~ Zipf)
// under accept-all and under the share-capping admission policy, comparing
// final diversity — the ablation for the core.AdmissionPolicy design choice.
func AdmissionAblation(joins int, seed int64) (*metrics.Table, []AdmissionRow, error) {
	if joins <= 0 {
		return nil, nil, fmt.Errorf("experiment: joins %d <= 0", joins)
	}
	rng := rand.New(rand.NewSource(seed))
	popularity, err := pooldata.SyntheticOligopoly(12, 1.2)
	if err != nil {
		return nil, nil, err
	}
	labels := popularity.Labels()
	probs, err := popularity.Probabilities()
	if err != nil {
		return nil, nil, err
	}
	pick := func() string {
		x := rng.Float64()
		cum := 0.0
		for i, p := range probs {
			cum += p
			if x < cum {
				return labels[i]
			}
		}
		return labels[len(labels)-1]
	}
	policy := core.AdmissionPolicy{TargetShare: 0.2, DeclaredDiscount: 1}
	acceptAll := make(map[string]float64)
	capped := make(map[string]float64)
	for i := 0; i < joins; i++ {
		label := pick()
		power := 1 + rng.Float64()*9
		acceptAll[label] += power
		cappedDist, err := diversity.FromWeights(capped)
		if err != nil {
			return nil, nil, err
		}
		dec, err := policy.Decide(cappedDist, label, power, true)
		if err != nil {
			return nil, nil, err
		}
		capped[label] += power * dec.Weight
	}
	tab := metrics.NewTable("Ablation — accept-all vs share-capped admission (Zipf joins)",
		"policy", "entropy (bits)", "max config share", "faults to 1/3")
	var rows []AdmissionRow
	for _, c := range []struct {
		name    string
		weights map[string]float64
	}{{"accept-all", acceptAll}, {"share-cap 0.2", capped}} {
		d, err := diversity.FromWeights(c.weights)
		if err != nil {
			return nil, nil, err
		}
		rep, err := diversity.ReportForDistribution(d)
		if err != nil {
			return nil, nil, err
		}
		row := AdmissionRow{Policy: c.name, Entropy: rep.Entropy, MaxShare: rep.MaxShare, FaultsToThird: rep.MinConfigFaultsToThird}
		rows = append(rows, row)
		tab.AddRowf(c.name, row.Entropy, row.MaxShare, row.FaultsToThird)
	}
	return tab, rows, nil
}

// GreedyAdversaryTable shows exploit-budget planning against diverse vs
// concentrated fleets (Sec. II-C's Σ f_t^i built from real planning).
func GreedyAdversaryTable() (*metrics.Table, error) {
	cat := vuln.NewCatalog()
	for i, prod := range []string{"os-a", "os-b", "os-c", "os-d"} {
		if err := cat.Add(vuln.Vulnerability{
			ID: vuln.ID(fmt.Sprintf("CVE-%d", i)), Class: config.ClassOperatingSystem,
			Product: prod, Disclosed: 0, PatchAt: 100 * time.Hour, Severity: 1,
		}); err != nil {
			return nil, err
		}
	}
	mkFleet := func(osNames []string) []vuln.Replica {
		stacks := make([]config.Configuration, len(osNames))
		for i, name := range osNames {
			stacks[i] = config.MustNew(config.Component{Class: config.ClassOperatingSystem, Name: name, Version: "1"})
		}
		out := make([]vuln.Replica, 16)
		for i := range out {
			out[i] = vuln.Replica{Name: fmt.Sprintf("r-%02d", i), Config: stacks[i%len(stacks)], Power: 1}
		}
		return out
	}
	tab := metrics.NewTable("Adversary planning — exploit budget vs fleet diversity",
		"fleet", "budget", "compromised fraction", "breaks f=1/3")
	for _, fleet := range []struct {
		name string
		os   []string
	}{
		{"monoculture (1 OS)", []string{"os-a"}},
		{"duoculture (2 OS)", []string{"os-a", "os-b"}},
		{"diverse (4 OS)", []string{"os-a", "os-b", "os-c", "os-d"}},
	} {
		for _, budget := range []int{1, 2} {
			plan, err := adversary.GreedyExploits(cat, mkFleet(fleet.os), time.Hour, budget, core.BFTThreshold)
			if err != nil {
				return nil, err
			}
			tab.AddRowf(fleet.name, budget, plan.Fraction, fmt.Sprint(plan.Breaks))
		}
	}
	return tab, nil
}

// KappaOmegaTable classifies example populations against Definitions 1–2.
func KappaOmegaTable() (*metrics.Table, error) {
	tab := metrics.NewTable("Definitions 1–2 — κ-optimality / (κ,ω)-optimality classification",
		"population", "κ-optimal", "κ", "ω", "(κ,ω)-optimal")
	cases := []struct {
		name    string
		members []diversity.Member
		kappa   int
		omega   int
	}{
		{"4 configs × 3 replicas, unit power", uniformMembers(4, 3), 4, 3},
		{"4 configs × 3 replicas, skewed power", skewedMembers(4, 3), 4, 3},
		{"unique configs (8 × 1)", uniformMembers(8, 1), 8, 1},
	}
	for _, c := range cases {
		pop, err := diversity.NewPopulation(c.members)
		if err != nil {
			return nil, err
		}
		k, kOK := pop.PowerDistribution().Kappa(1e-9)
		w, wOK := pop.Omega()
		full := pop.IsKappaOmegaOptimal(c.kappa, c.omega, 1e-9)
		kStr, wStr := "-", "-"
		if kOK {
			kStr = fmt.Sprint(k)
		}
		if wOK {
			wStr = fmt.Sprint(w)
		}
		tab.AddRowf(c.name, fmt.Sprint(kOK), kStr, wStr, fmt.Sprint(full))
	}
	return tab, nil
}

func uniformMembers(kappa, omega int) []diversity.Member {
	var out []diversity.Member
	for c := 0; c < kappa; c++ {
		for i := 0; i < omega; i++ {
			out = append(out, diversity.Member{Label: fmt.Sprintf("c%d", c), Power: 1})
		}
	}
	return out
}

func skewedMembers(kappa, omega int) []diversity.Member {
	out := uniformMembers(kappa, omega)
	out[0].Power = 10
	return out
}

// cryptoLibStacks are the one-component stacks the crypto-library fleets
// draw from: openssl 3.0.8, the vulnerable version, then three other
// libraries at 1.0. Replicas on one library share its configuration.
func cryptoLibStacks() []config.Configuration {
	stacks := make([]config.Configuration, 0, 4)
	for _, lib := range []string{"openssl", "boringssl", "libsodium", "golang-crypto"} {
		version := "1.0"
		if lib == "openssl" {
			version = "3.0.8"
		}
		stacks = append(stacks, config.MustNew(config.Component{Class: config.ClassCryptoLibrary, Name: lib, Version: version}))
	}
	return stacks
}

// FaultIndependenceOverTime traces the Sec. II-C condition across a
// vulnerability lifecycle for monoculture vs diverse fleets.
func FaultIndependenceOverTime() (*metrics.Table, error) {
	cat := vuln.NewCatalog()
	if err := cat.Add(vuln.Vulnerability{
		ID: "CVE-window", Class: config.ClassCryptoLibrary, Product: "openssl", Version: "3.0.8",
		Disclosed: 24 * time.Hour, PatchAt: 48 * time.Hour, Severity: 1,
	}); err != nil {
		return nil, err
	}
	stacks := cryptoLibStacks()
	mkFleet := func(n int, diverse bool) []vuln.Replica {
		out := make([]vuln.Replica, n)
		for i := range out {
			cfg := stacks[0]
			if diverse {
				cfg = stacks[i%len(stacks)]
			}
			out[i] = vuln.Replica{
				Name:         fmt.Sprintf("r%02d", i),
				Config:       cfg,
				Power:        1,
				PatchLatency: time.Duration(i%5) * 12 * time.Hour, // staggered patching
			}
		}
		return out
	}
	tab := metrics.NewTable("Sec. II-C — Σ f_t^i across a vulnerability window (16 replicas)",
		"t (hours)", "monoculture Σf", "mono safe (f=1/3)", "diverse Σf", "diverse safe")
	for _, h := range []int{0, 24, 36, 60, 96, 120} {
		t := time.Duration(h) * time.Hour
		mono, err := vuln.Inject(cat, mkFleet(16, false), t)
		if err != nil {
			return nil, err
		}
		div, err := vuln.Inject(cat, mkFleet(16, true), t)
		if err != nil {
			return nil, err
		}
		tab.AddRowf(h, mono.TotalFraction, fmt.Sprint(mono.Safe(core.BFTThreshold)),
			div.TotalFraction, fmt.Sprint(div.Safe(core.BFTThreshold)))
	}
	tab.AddNote("diverse fleet keeps Σf ≤ 1/4 throughout; monoculture hits Σf = 1 inside the window")
	return tab, nil
}

// attestHarness wraps an attestation authority with a device factory so
// experiment registries can perform real attested joins.
type attestHarness struct {
	authority *attest.Authority
	serial    uint64
}

func newTestAuthority() *attestHarness {
	return &attestHarness{authority: attest.NewAuthority("tpm2")}
}

// joinAttested manufactures a device, quotes cfg, and performs a verified
// attested join for the replica.
func (h *attestHarness) joinAttested(reg *registry.Registry, id registry.ReplicaID, cfg config.Configuration, power float64) error {
	h.serial++
	dev, err := attest.NewDevice("tpm2", h.serial)
	if err != nil {
		return err
	}
	vote := cryptoutil.DeriveKeyPair("experiment/vote/"+string(id), 0)
	q, err := dev.QuoteConfig(cfg, vote.Public, h.authority.IssueNonce())
	if err != nil {
		return err
	}
	return reg.JoinAttested(id, cfg, q, power, 24*time.Hour)
}
