package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/diversity"
	"repro/internal/metrics"
	"repro/internal/pooldata"
	"repro/internal/vuln"
)

// This file implements the mitigation experiments motivated by the paper's
// Sec. III discussion: patching speed (vulnerability windows, Remark 1),
// decentralized/non-outsourceable mining pools ([29]-[31]), delegation
// oligopolies (exchanges holding user keys), and membership churn.

// PatchRow is one patch-latency point.
type PatchRow struct {
	PatchLatency time.Duration
	MonoWorst    float64 // worst-window Σf for the monoculture fleet
	MonoSafe     bool
	DiverseWorst float64
	DiverseSafe  bool
}

// PatchLatencySweep measures how the worst-case compromised fraction over
// a vulnerability lifecycle depends on patch adoption latency, for a
// monoculture fleet and a 4-way diverse fleet. The paper's Remark 1:
// attacks happen during the vulnerability window — so faster patching
// narrows exposure but only diversity bounds its *amplitude*.
func PatchLatencySweep(latencies []time.Duration) (*metrics.Table, []PatchRow, error) {
	cat := vuln.NewCatalog()
	if err := cat.Add(vuln.Vulnerability{
		ID: "CVE-sweep", Class: config.ClassCryptoLibrary, Product: "openssl", Version: "3.0.8",
		Disclosed: 24 * time.Hour, PatchAt: 36 * time.Hour, Severity: 1,
	}); err != nil {
		return nil, nil, err
	}
	stacks := cryptoLibStacks()
	mkFleet := func(diverse bool, lat time.Duration) []vuln.Replica {
		out := make([]vuln.Replica, 16)
		for i := range out {
			cfg := stacks[0]
			if diverse {
				cfg = stacks[i%len(stacks)]
			}
			out[i] = vuln.Replica{
				Name:         fmt.Sprintf("r%02d", i),
				Config:       cfg,
				Power:        1,
				PatchLatency: lat,
			}
		}
		return out
	}
	tab := metrics.NewTable("M1 — patch latency vs worst-window compromised power (16 replicas)",
		"patch latency", "monoculture worst Σf", "mono safe", "diverse worst Σf", "diverse safe")
	var rows []PatchRow
	for _, lat := range latencies {
		mono, err := vuln.WorstWindow(cat, mkFleet(false, lat), 30*24*time.Hour)
		if err != nil {
			return nil, nil, err
		}
		div, err := vuln.WorstWindow(cat, mkFleet(true, lat), 30*24*time.Hour)
		if err != nil {
			return nil, nil, err
		}
		row := PatchRow{
			PatchLatency: lat,
			MonoWorst:    mono.TotalFraction,
			MonoSafe:     mono.Safe(core.BFTThreshold),
			DiverseWorst: div.TotalFraction,
			DiverseSafe:  div.Safe(core.BFTThreshold),
		}
		rows = append(rows, row)
		tab.AddRowf(lat.String(), row.MonoWorst, fmt.Sprint(row.MonoSafe),
			row.DiverseWorst, fmt.Sprint(row.DiverseSafe))
	}
	tab.AddNote("faster patching narrows the window but the monoculture's worst instant still loses everything")
	return tab, rows, nil
}

// PoolSplitRow is one point of the pool-splitting mitigation.
type PoolSplitRow struct {
	SplitInto    int // parts the largest pool is split into
	Entropy      float64
	FaultsToHalf int
}

// PoolSplitting models decentralized / non-outsourceable mining ([29]-[31]
// in the paper): the largest pool (Foundry, 34.5%) fragments into k
// independent pools of equal power. Entropy and majority resilience are
// recomputed on the Example 1 snapshot.
func PoolSplitting(splits []int) (*metrics.Table, []PoolSplitRow, error) {
	tab := metrics.NewTable("M2 — decentralizing the largest pool (Example 1 snapshot)",
		"largest pool split into", "entropy (bits)", "faults to 1/2")
	var rows []PoolSplitRow
	for _, k := range splits {
		if k < 1 {
			return nil, nil, fmt.Errorf("experiment: split %d < 1", k)
		}
		weights := make(map[string]float64)
		for i, share := range pooldata.BitcoinSnapshotPercent {
			if i == 0 {
				for j := 0; j < k; j++ {
					weights[fmt.Sprintf("foundry-shard-%02d", j)] = share / float64(k)
				}
				continue
			}
			weights[fmt.Sprintf("pool-%02d", i)] = share
		}
		d, err := diversity.FromWeights(weights)
		if err != nil {
			return nil, nil, err
		}
		row := PoolSplitRow{SplitInto: k}
		if row.Entropy, err = d.Entropy(); err != nil {
			return nil, nil, err
		}
		if row.FaultsToHalf, err = d.MinFaultsToExceed(0.5); err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
		tab.AddRowf(k, row.Entropy, row.FaultsToHalf)
	}
	tab.AddNote("splitting only helps if shards are operationally independent (unique configurations)")
	return tab, rows, nil
}

// DelegationRow is one point of the delegation-collapse experiment.
type DelegationRow struct {
	DelegatedFraction float64
	Entropy           float64
	EffectiveConfigs  float64
	FaultsToHalf      int
}

// DelegationCollapse models the paper's exchange-oligopoly concern
// (Sec. III-A, wallets): n stakeholders with uniform stake delegate a
// fraction p of the population to 3 exchanges (40/35/25 split of the
// delegated stake); delegated stake inherits the exchange's configuration,
// collapsing diversity.
func DelegationCollapse(n int, fractions []float64) (*metrics.Table, []DelegationRow, error) {
	if n < 10 {
		return nil, nil, fmt.Errorf("experiment: n %d too small", n)
	}
	exchangeSplit := []float64{0.40, 0.35, 0.25}
	tab := metrics.NewTable(fmt.Sprintf("M3 — delegation to exchanges collapses diversity (%d stakeholders)", n),
		"delegated fraction", "entropy (bits)", "effective configs", "faults to 1/2")
	var rows []DelegationRow
	for _, p := range fractions {
		if p < 0 || p > 1 {
			return nil, nil, fmt.Errorf("experiment: fraction %v out of [0,1]", p)
		}
		weights := make(map[string]float64)
		delegated := int(float64(n) * p)
		for i := 0; i < len(exchangeSplit); i++ {
			weights[fmt.Sprintf("exchange-%d", i)] = float64(delegated) * exchangeSplit[i]
		}
		for i := delegated; i < n; i++ {
			weights[fmt.Sprintf("self-%05d", i)] = 1
		}
		d, err := diversity.FromWeights(weights)
		if err != nil {
			return nil, nil, err
		}
		row := DelegationRow{DelegatedFraction: p}
		if row.Entropy, err = d.Entropy(); err != nil {
			return nil, nil, err
		}
		if row.EffectiveConfigs, err = d.EffectiveConfigurations(); err != nil {
			return nil, nil, err
		}
		if row.FaultsToHalf, err = d.MinFaultsToExceed(0.5); err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
		tab.AddRowf(p, row.Entropy, row.EffectiveConfigs, row.FaultsToHalf)
	}
	tab.AddNote("delegates manage keys AND consensus for their users: one fault domain per exchange")
	return tab, rows, nil
}

// ChurnRow is one epoch snapshot of the churn trajectory.
type ChurnRow struct {
	Epoch         int
	Members       int
	Entropy       float64
	MaxShare      float64
	FaultsToThird int
}

// ChurnTrajectory drives a permissionless population through epochs of
// joins and leaves (the paper's "anyone can join and leave at any time").
// Joiners pick configurations by Zipf popularity; leavers are uniform.
// With capped=true, joins pass through the share-capping admission policy.
func ChurnTrajectory(epochs, joinsPerEpoch int, capped bool, seed int64) (*metrics.Table, []ChurnRow, error) {
	if epochs < 1 || joinsPerEpoch < 1 {
		return nil, nil, fmt.Errorf("experiment: epochs %d / joins %d must be positive", epochs, joinsPerEpoch)
	}
	rng := rand.New(rand.NewSource(seed))
	popularity, err := pooldata.SyntheticOligopoly(10, 1.3)
	if err != nil {
		return nil, nil, err
	}
	labels := popularity.Labels()
	probs, err := popularity.Probabilities()
	if err != nil {
		return nil, nil, err
	}
	pickCfg := func() string {
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

	type member struct {
		label string
		power float64
	}
	var members []member
	title := "CHURN — entropy under join/leave churn (accept-all)"
	if capped {
		title = "CHURN — entropy under join/leave churn (share-cap 0.2)"
	}
	tab := metrics.NewTable(title, "epoch", "members", "entropy (bits)", "max share", "faults to 1/3")
	var rows []ChurnRow
	for e := 1; e <= epochs; e++ {
		// Joins.
		for j := 0; j < joinsPerEpoch; j++ {
			label := pickCfg()
			power := 1 + rng.Float64()*9
			if capped {
				weights := make(map[string]float64)
				for _, m := range members {
					weights[m.label] += m.power
				}
				d, err := diversity.FromWeights(weights)
				if err != nil {
					return nil, nil, err
				}
				dec, err := policy.Decide(d, label, power, true)
				if err != nil {
					return nil, nil, err
				}
				power *= dec.Weight
			}
			members = append(members, member{label: label, power: power})
		}
		// Leaves: ~20% of the population departs each epoch.
		if leave := len(members) / 5; leave > 0 {
			rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
			members = members[:len(members)-leave]
			// Restore determinism of later snapshots regardless of map order.
			sort.Slice(members, func(i, j int) bool {
				if members[i].label != members[j].label {
					return members[i].label < members[j].label
				}
				return members[i].power < members[j].power
			})
		}
		weights := make(map[string]float64)
		for _, m := range members {
			weights[m.label] += m.power
		}
		d, err := diversity.FromWeights(weights)
		if err != nil {
			return nil, nil, err
		}
		rep, err := diversity.ReportForDistribution(d)
		if err != nil {
			return nil, nil, err
		}
		row := ChurnRow{
			Epoch: e, Members: len(members), Entropy: rep.Entropy,
			MaxShare: rep.MaxShare, FaultsToThird: rep.MinConfigFaultsToThird,
		}
		rows = append(rows, row)
		if e == 1 || e%5 == 0 {
			tab.AddRowf(e, row.Members, row.Entropy, row.MaxShare, row.FaultsToThird)
		}
	}
	return tab, rows, nil
}

// DriftRow is one step of the hashrate-drift trajectory.
type DriftRow struct {
	Step         int
	Entropy      float64
	MaxShare     float64
	FaultsToHalf int
}

// HashrateDrift models the paper's time-varying total voting power n_t:
// starting from the Example 1 snapshot, every pool's hash power follows a
// geometric random walk (multiplicative log-normal steps of volatility
// sigma per step). The trajectory shows how oligopoly — and with it fault
// independence — evolves without any enforcement.
func HashrateDrift(steps int, sigma float64, seed int64) (*metrics.Table, []DriftRow, error) {
	if steps < 1 {
		return nil, nil, fmt.Errorf("experiment: steps %d < 1", steps)
	}
	if sigma <= 0 || sigma > 2 {
		return nil, nil, fmt.Errorf("experiment: sigma %v out of (0,2]", sigma)
	}
	rng := rand.New(rand.NewSource(seed))
	powers := make(map[string]float64)
	for _, p := range pooldata.BitcoinSnapshot() {
		powers[p.Name] = p.Share
	}
	tab := metrics.NewTable(fmt.Sprintf("NT — hashrate drift from the snapshot (σ=%v per step)", sigma),
		"step", "entropy (bits)", "max share", "faults to 1/2")
	var rows []DriftRow
	for s := 0; s <= steps; s++ {
		d, err := diversity.FromWeights(powers)
		if err != nil {
			return nil, nil, err
		}
		rep, err := diversity.ReportForDistribution(d)
		if err != nil {
			return nil, nil, err
		}
		row := DriftRow{Step: s, Entropy: rep.Entropy, MaxShare: rep.MaxShare, FaultsToHalf: rep.MinConfigFaultsToHalf}
		rows = append(rows, row)
		if s%(steps/5+1) == 0 || s == steps {
			tab.AddRowf(s, row.Entropy, row.MaxShare, row.FaultsToHalf)
		}
		// Advance the walk (deterministic label order).
		labels := d.Labels()
		for _, l := range labels {
			powers[l] *= math.Exp(rng.NormFloat64() * sigma)
		}
	}
	tab.AddNote("unmanaged drift: majority takeover stays a 2-3 fault event throughout")
	return tab, rows, nil
}
