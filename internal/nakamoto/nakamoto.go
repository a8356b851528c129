// Package nakamoto simulates Proof-of-Work longest-chain consensus — the
// permissionless substrate of the paper's running Bitcoin example. It
// provides three layers:
//
//   - a full network simulation (miners/pools with hash-power shares,
//     exponential block discovery, propagation delays, natural forks),
//   - a fast random-walk double-spend race (Monte Carlo), and
//   - the closed-form double-spend success probabilities (Nakamoto's
//     Poisson form and Rosenfeld's exact one), the analytic baselines the
//     race is validated against.
//
// Compromising k mining pools (Example 1's oligopoly) hands the adversary
// q = Σ shares of hash power; these tools turn that q into operational
// attack success rates.
package nakamoto

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Pool is a miner or mining pool with a hash-power share (relative units;
// the simulator normalizes).
type Pool struct {
	Name  string
	Power float64
}

// Config parameterises a network simulation.
type Config struct {
	Pools         []Pool
	BlockInterval time.Duration // expected time between blocks network-wide
	Propagation   time.Duration // one-way block propagation delay
	Seed          int64
}

// Result summarises a network simulation run.
type Result struct {
	MainChainLength int            // blocks on the best chain (excluding genesis)
	TotalBlocks     int            // all mined blocks
	StaleBlocks     int            // mined but not on the best chain
	BlocksByPool    map[string]int // best-chain blocks per pool
	ForkRate        float64        // stale / total
}

type minerNode struct {
	id    simnet.NodeID
	name  string
	chain *ledger.Chain
}

func (m *minerNode) HandleMessage(_ simnet.NodeID, msg any) {
	b, ok := msg.(*ledger.Block)
	if !ok {
		return
	}
	// Out-of-order delivery can orphan blocks briefly; ignoring is safe for
	// the statistics we collect because the parent always arrives (no loss).
	_ = m.chain.Append(b)
}

// Simulate runs a full network simulation until nBlocks have been mined,
// then reports chain statistics. Each pool maintains its own chain replica;
// propagation delay creates the natural fork rate.
func Simulate(cfg Config, nBlocks int) (Result, error) {
	if len(cfg.Pools) == 0 {
		return Result{}, errors.New("nakamoto: no pools")
	}
	if nBlocks <= 0 {
		return Result{}, fmt.Errorf("nakamoto: nBlocks %d <= 0", nBlocks)
	}
	if cfg.BlockInterval <= 0 {
		return Result{}, fmt.Errorf("nakamoto: block interval %v <= 0", cfg.BlockInterval)
	}
	var total float64
	for _, p := range cfg.Pools {
		if p.Power < 0 || math.IsNaN(p.Power) || math.IsInf(p.Power, 0) {
			return Result{}, fmt.Errorf("nakamoto: invalid power %v for %s", p.Power, p.Name)
		}
		total += p.Power
	}
	if total <= 0 {
		return Result{}, errors.New("nakamoto: zero total power")
	}

	sched := sim.NewScheduler(cfg.Seed)
	net, err := simnet.New(sched, simnet.FixedLatency(cfg.Propagation), 0)
	if err != nil {
		return Result{}, err
	}
	genesis := ledger.NewBlock(cryptoutil.ZeroDigest, 0, "genesis", 0, nil)
	miners := make([]*minerNode, len(cfg.Pools))
	for i, p := range cfg.Pools {
		chain, err := ledger.NewChain(genesis)
		if err != nil {
			return Result{}, err
		}
		miners[i] = &minerNode{id: simnet.NodeID(i), name: p.Name, chain: chain}
		if err := net.Register(miners[i].id, miners[i]); err != nil {
			return Result{}, err
		}
	}

	rng := sched.Rand()
	mined := 0
	var scheduleNext func()
	scheduleNext = func() {
		if mined >= nBlocks {
			return
		}
		// Network-wide discovery is a Poisson process; the winner is drawn
		// by hash-power share.
		wait := time.Duration(rng.ExpFloat64() * float64(cfg.BlockInterval))
		sched.After(wait, "nakamoto/discover", func() {
			winner := miners[weightedPick(rng, cfg.Pools, total)]
			tip := winner.chain.TipBlock()
			b := ledger.NewBlock(tip.Digest(), tip.Header.Height+1, winner.name, sched.Now(), nil)
			if err := winner.chain.Append(b); err == nil {
				net.Broadcast(winner.id, b)
			}
			mined++
			scheduleNext()
		})
	}
	scheduleNext()
	// Run to completion: nBlocks discoveries plus the propagation drain.
	sched.RunAll(0)

	// Gather statistics from the first miner's replica (all replicas agree
	// on everything except possibly the last Propagation window).
	ref := miners[0].chain
	res := Result{TotalBlocks: mined, BlocksByPool: make(map[string]int)}
	path, err := ref.PathFromGenesis(ref.Tip())
	if err != nil {
		return Result{}, err
	}
	res.MainChainLength = len(path) - 1
	for _, id := range path[1:] {
		b, err := ref.Get(id)
		if err != nil {
			return Result{}, err
		}
		res.BlocksByPool[b.Header.Proposer]++
	}
	res.StaleBlocks = res.TotalBlocks - res.MainChainLength
	if res.TotalBlocks > 0 {
		res.ForkRate = float64(res.StaleBlocks) / float64(res.TotalBlocks)
	}
	return res, nil
}

func weightedPick(rng *rand.Rand, pools []Pool, total float64) int {
	x := rng.Float64() * total
	cum := 0.0
	for i, p := range pools {
		cum += p.Power
		if x < cum {
			return i
		}
	}
	return len(pools) - 1
}

// CompromisedShare returns the combined normalized hash power of the k
// largest pools — the adversary's q after compromising k pools (the
// Example 1 oligopoly attack; for the snapshot, k = 2 already exceeds 1/2).
func CompromisedShare(pools []Pool, k int) (float64, error) {
	if k < 0 || k > len(pools) {
		return 0, fmt.Errorf("nakamoto: k %d out of range [0,%d]", k, len(pools))
	}
	shares := make([]float64, len(pools))
	var total float64
	for i, p := range pools {
		shares[i] = p.Power
		total += p.Power
	}
	if total <= 0 {
		return 0, errors.New("nakamoto: zero total power")
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(shares)))
	var sum float64
	for i := 0; i < k; i++ {
		sum += shares[i]
	}
	return sum / total, nil
}

// DoubleSpendProbability is Nakamoto's closed-form success probability for
// an attacker with hash share q against a merchant waiting z confirmations
// (the catch-up race analysis from the Bitcoin paper, Poisson form).
func DoubleSpendProbability(q float64, z int) (float64, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("nakamoto: q %v out of [0,1]", q)
	}
	if z < 0 {
		return 0, fmt.Errorf("nakamoto: negative confirmations %d", z)
	}
	p := 1 - q
	if q >= p {
		return 1, nil // majority attacker always succeeds eventually
	}
	if q == 0 {
		return 0, nil
	}
	lambda := float64(z) * q / p
	sum := 0.0
	term := math.Exp(-lambda) // Poisson pmf at k=0
	for k := 0; k <= z; k++ {
		if k > 0 {
			term *= lambda / float64(k)
		}
		sum += term * (1 - math.Pow(q/p, float64(z-k)))
	}
	return 1 - sum, nil
}

// DoubleSpendProbabilityExact is the exact success probability of the same
// race, replacing Nakamoto's Poisson approximation for the attacker's
// progress with the true negative-binomial distribution (Rosenfeld's
// analysis): while the honest chain mines its z confirmations, the attacker
// mines k blocks with probability NB(k; z, q) = C(k+z-1, k) p^z q^k, and
// then must erase a deficit of z-k (a tie wins, as in Nakamoto's model).
func DoubleSpendProbabilityExact(q float64, z int) (float64, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("nakamoto: q %v out of [0,1]", q)
	}
	if z < 0 {
		return 0, fmt.Errorf("nakamoto: negative confirmations %d", z)
	}
	p := 1 - q
	if q >= p {
		return 1, nil
	}
	if q == 0 {
		return 0, nil
	}
	sum := 0.0
	pmf := math.Pow(p, float64(z)) // NB pmf at k=0
	for k := 0; k <= z; k++ {
		if k > 0 {
			pmf *= q * float64(k+z-1) / float64(k)
		}
		sum += pmf * (1 - math.Pow(q/p, float64(z-k)))
	}
	return 1 - sum, nil
}

// SimulateDoubleSpend Monte-Carlos the same race: the attacker premines
// while the merchant waits for z confirmations, then must catch up from its
// deficit. It returns the empirical success rate over trials, drawn
// sequentially from the single rng (see DoubleSpendTrial for the per-trial
// unit that parallel runners distribute).
func SimulateDoubleSpend(rng *rand.Rand, q float64, z, trials int) (float64, error) {
	if rng == nil {
		return 0, errors.New("nakamoto: nil rng")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("nakamoto: q %v out of [0,1]", q)
	}
	if z < 0 || trials <= 0 {
		return 0, fmt.Errorf("nakamoto: invalid z %d or trials %d", z, trials)
	}
	wins := 0
	for t := 0; t < trials; t++ {
		if DoubleSpendTrial(rng, q, z) {
			wins++
		}
	}
	return float64(wins) / float64(trials), nil
}

// DoubleSpendTrial runs one Monte Carlo race with attacker hash share
// q in [0, 1] and reports whether the attacker wins. It is the unit
// SimulateDoubleSpend iterates and what parallel trial runners
// distribute: each trial draws only from the rng it is handed, so
// callers control determinism via seed derivation.
func DoubleSpendTrial(rng *rand.Rand, q float64, z int) bool {
	if q >= 1 {
		// The attacker owns the whole network; the honest chain never
		// grows (and the phase-1 loop below would never terminate).
		return true
	}
	const maxDeficit = 200
	// Phase 1: honest chain mines z blocks; attacker mines k in parallel.
	attacker := 0
	for honest := 0; honest < z; {
		if rng.Float64() < q {
			attacker++
		} else {
			honest++
		}
	}
	// Phase 2: random-walk race. Nakamoto's analysis counts the
	// attacker as successful once it draws level (the merchant's goods
	// are gone; a tie lets the attacker release and race from parity),
	// so the deficit to erase is z - k. maxDeficit bounds the walk (a
	// deficit that large is treated as failure); 200 keeps the truncation
	// error far below Monte Carlo noise.
	deficit := z - attacker
	for deficit > 0 && deficit < maxDeficit {
		if rng.Float64() < q {
			deficit--
		} else {
			deficit++
		}
	}
	return deficit <= 0
}
