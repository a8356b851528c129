package vuln

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/config"
)

// bucketize groups replicas the way the registry snapshot does: one bucket
// per configuration, one group per (power, latency), names ascending.
func bucketize(replicas []Replica) []BucketSpec {
	type gkey struct {
		power   float64
		latency time.Duration
	}
	byKey := make(map[string]map[gkey][]string)
	cfgs := make(map[string]config.Configuration)
	for _, r := range replicas {
		key := r.Config.Canonical()
		if byKey[key] == nil {
			byKey[key] = make(map[gkey][]string)
			cfgs[key] = r.Config
		}
		k := gkey{r.Power, r.PatchLatency}
		byKey[key][k] = append(byKey[key][k], r.Name)
	}
	var out []BucketSpec
	for key, groups := range byKey {
		bs := BucketSpec{Key: key, Config: cfgs[key]}
		for k, names := range groups {
			sort.Strings(names)
			bs.Groups = append(bs.Groups, GroupSpec{Power: k.power, Latency: k.latency, Names: names})
		}
		sort.Slice(bs.Groups, func(i, j int) bool {
			a, b := bs.Groups[i], bs.Groups[j]
			if a.Power != b.Power {
				return a.Power < b.Power
			}
			return a.Latency < b.Latency
		})
		out = append(out, bs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// draws is the randomness a sweep case is generated from: a seeded rng in
// the property test, the fuzzer's bytes in FuzzWorstWindow. Every draw is
// below 256, so a recorded rng run replays exactly from its bytes.
type draws interface{ Intn(n int) int }

type byteDraws struct{ data []byte }

func (b *byteDraws) Intn(n int) int {
	if len(b.data) == 0 {
		return 0
	}
	v := int(b.data[0]) % n
	b.data = b.data[1:]
	return v
}

type recordedDraws struct {
	rng  *rand.Rand
	data []byte
}

func (r *recordedDraws) Intn(n int) int {
	v := r.rng.Intn(n)
	r.data = append(r.data, byte(v))
	return v
}

// sweepCase generates one (catalog, membership, horizon) triple aimed at
// where pruning is hardest: severities below 1 (the bound is loose),
// version-less vulnerabilities matching several buckets, two component
// classes so several exposures overlap on one bucket, small integral powers
// (equal maxima at different instants are common; zero-power groups occur),
// and horizons that cut a window, sit exactly on a disclosure, or are 0.
func sweepCase(d draws) (*Catalog, []Replica, time.Duration) {
	oses := []string{"os-a", "os-b", "os-c"}
	libs := []string{"lib-x", "lib-y"}
	versions := []string{"1", "2"}
	replicas := make([]Replica, 1+d.Intn(24))
	for i := range replicas {
		comps := []config.Component{{
			Class: config.ClassOperatingSystem, Name: oses[d.Intn(len(oses))], Version: versions[d.Intn(len(versions))],
		}}
		if d.Intn(2) == 0 {
			comps = append(comps, config.Component{
				Class: config.ClassCryptoLibrary, Name: libs[d.Intn(len(libs))], Version: "1",
			})
		}
		replicas[i] = Replica{
			Name:         fmt.Sprintf("r-%03d", i),
			Config:       config.MustNew(comps...),
			Power:        float64(d.Intn(6)),
			PatchLatency: time.Duration(d.Intn(5)) * 6 * time.Hour,
		}
	}
	cat := NewCatalog()
	var disclosures []time.Duration
	for i, n := 0, 1+d.Intn(10); i < n; i++ {
		v := Vulnerability{
			ID:       ID(fmt.Sprintf("CVE-%03d", i)),
			Class:    config.ClassOperatingSystem,
			Product:  oses[d.Intn(len(oses))],
			Severity: 1,
		}
		if d.Intn(3) == 0 {
			v.Class, v.Product = config.ClassCryptoLibrary, libs[d.Intn(len(libs))]
		} else if d.Intn(2) == 0 {
			v.Version = versions[d.Intn(len(versions))]
		}
		v.Disclosed = time.Duration(d.Intn(40)) * 3 * time.Hour
		v.PatchAt = v.Disclosed + time.Duration(d.Intn(12))*3*time.Hour
		if d.Intn(4) != 0 {
			v.Severity = float64(1+d.Intn(10)) / 10
		}
		if err := cat.Add(v); err != nil {
			panic(err)
		}
		disclosures = append(disclosures, v.Disclosed)
	}
	horizon := 200 * time.Hour
	switch d.Intn(4) {
	case 0:
		horizon = time.Duration(d.Intn(60)) * 3 * time.Hour
	case 1:
		horizon = disclosures[d.Intn(len(disclosures))]
	}
	return cat, replicas, horizon
}

// referenceInstants is CriticalInstants as it was before the latency index:
// one close per (vulnerability, group).
func referenceInstants(gi *GroupInjector, horizon time.Duration) []time.Duration {
	events := []time.Duration{0}
	for _, e := range gi.exposures {
		if d := e.vuln.Disclosed; d > 0 && d <= horizon {
			events = append(events, d)
		}
		for _, key := range e.keys {
			for _, g := range gi.buckets[key].groups {
				if c := e.vuln.PatchAt + g.latency; c > 0 && c <= horizon {
					events = append(events, c)
				}
			}
		}
	}
	sort.Slice(events, func(a, b int) bool { return events[a] < events[b] })
	out := events[:1]
	for _, t := range events[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// checkPrunedMatchesFlat asserts the pruned grouped sweep reports exactly
// what the flat full sweep does, and never evaluates more instants; it
// returns the sweep's counts.
func checkPrunedMatchesFlat(t *testing.T, cat *Catalog, replicas []Replica, horizon time.Duration) (instants, evaluated int) {
	t.Helper()
	flat, err := WorstWindow(cat, replicas, horizon)
	if err != nil {
		t.Fatal(err)
	}
	gi, err := NewGroupInjector(cat, bucketize(replicas))
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := gi.WorstWindow(horizon)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(flat)
	got, _ := json.Marshal(grouped)
	if string(got) != string(want) {
		t.Fatalf("pruned sweep diverges from the flat sweep at horizon %v\n got %s\nwant %s", horizon, got, want)
	}
	instants, evaluated = gi.LastSweep()
	ref := referenceInstants(gi, horizon)
	if ci := gi.CriticalInstants(horizon); fmt.Sprint(ci) != fmt.Sprint(ref) {
		t.Fatalf("critical instants %v, want %v", ci, ref)
	}
	if gi.TotalPower() > 0 && (instants != len(ref) || evaluated < 1 || evaluated > instants) {
		t.Fatalf("sweep evaluated %d of %d instants (%d critical)", evaluated, instants, len(ref))
	}
	return instants, evaluated
}

func TestPropPrunedSweepMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(20230612))
	pruned, total := 0, 0
	for i := 0; i < 3000; i++ {
		cat, replicas, horizon := sweepCase(rng)
		instants, evaluated := checkPrunedMatchesFlat(t, cat, replicas, horizon)
		pruned += instants - evaluated
		total += instants
	}
	// The generator is built to make the bound loose; it must still prune
	// something, or the test is not exercising the skip branch at all.
	if pruned == 0 || pruned == total {
		t.Fatalf("pruned %d of %d instants: the cases do not exercise both branches", pruned, total)
	}
}

func FuzzWorstWindow(f *testing.F) {
	rng := rand.New(rand.NewSource(20230612))
	for i := 0; i < 24; i++ {
		rec := &recordedDraws{rng: rng}
		sweepCase(rec)
		f.Add(rec.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cat, replicas, horizon := sweepCase(&byteDraws{data: data})
		checkPrunedMatchesFlat(t, cat, replicas, horizon)
	})
}

func osCfg(name string) config.Configuration {
	return config.MustNew(config.Component{Class: config.ClassOperatingSystem, Name: name, Version: "1"})
}

func mustAdd(t *testing.T, cat *Catalog, v Vulnerability) {
	t.Helper()
	if err := cat.Add(v); err != nil {
		t.Fatal(err)
	}
}

// A close raises exposure: CVE-A (severity 0.5) holds r1 until r1 patches at
// 10h, then shifts onto r2 — which CVE-B does not cover — while CVE-B keeps
// r1. The bound is 18 at both 0 and 10h, so the seed (0) is not the answer
// and the sweep must go on to evaluate the close.
func TestPrunedSweepFindsCloseThatRaisesExposure(t *testing.T) {
	cat := NewCatalog()
	mustAdd(t, cat, Vulnerability{ID: "CVE-A", Class: config.ClassOperatingSystem, Product: "shared-os",
		PatchAt: 10 * time.Hour, Severity: 0.5})
	mustAdd(t, cat, Vulnerability{ID: "CVE-B", Class: config.ClassCryptoLibrary, Product: "lib-of-r1",
		PatchAt: 100 * time.Hour, Severity: 1})
	replicas := []Replica{
		{Name: "r1", Power: 10, Config: config.MustNew(
			config.Component{Class: config.ClassOperatingSystem, Name: "shared-os", Version: "1"},
			config.Component{Class: config.ClassCryptoLibrary, Name: "lib-of-r1", Version: "1"})},
		{Name: "r2", Power: 8, PatchLatency: 40 * time.Hour, Config: osCfg("shared-os")},
	}
	checkPrunedMatchesFlat(t, cat, replicas, 200*time.Hour)
	gi, _ := NewGroupInjector(cat, bucketize(replicas))
	worst, err := gi.WorstWindow(200 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if worst.At != 10*time.Hour || worst.TotalFraction != 1 {
		t.Fatalf("worst = %v at %v, want 1 at the 10h close", worst.TotalFraction, worst.At)
	}
}

// Tie ⇒ earliest, also when the seed is the later instant: at 0 CVE-E takes
// all of os-e (10 of 30); at 50h CVE-L (severity 0.5) takes one of os-l's
// two 10-power replicas — the same fraction under twice the bound.
func TestPrunedSweepTieGoesToEarliestInstant(t *testing.T) {
	cat := NewCatalog()
	mustAdd(t, cat, Vulnerability{ID: "CVE-E", Class: config.ClassOperatingSystem, Product: "os-e",
		PatchAt: 5 * time.Hour, Severity: 1})
	mustAdd(t, cat, Vulnerability{ID: "CVE-L", Class: config.ClassOperatingSystem, Product: "os-l",
		Disclosed: 50 * time.Hour, PatchAt: 60 * time.Hour, Severity: 0.5})
	replicas := []Replica{
		{Name: "e1", Power: 10, Config: osCfg("os-e")},
		{Name: "l1", Power: 10, Config: osCfg("os-l")},
		{Name: "l2", Power: 10, Config: osCfg("os-l")},
	}
	checkPrunedMatchesFlat(t, cat, replicas, 100*time.Hour)
	gi, _ := NewGroupInjector(cat, bucketize(replicas))
	worst, err := gi.WorstWindow(100 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if worst.At != 0 || len(worst.Faults) != 1 || worst.Faults[0].Vuln != "CVE-E" {
		t.Fatalf("worst = %+v, want CVE-E at 0", worst)
	}
}

// fractionalBuckets is 40 buckets whose powers are not dyadic, so the order
// a total is summed in shows in its last bits.
func fractionalBuckets() []BucketSpec {
	buckets := make([]BucketSpec, 40)
	for k := range buckets {
		name := fmt.Sprintf("os-%02d", k)
		buckets[k] = BucketSpec{Key: name, Config: osCfg(name), Groups: []GroupSpec{
			{Power: 0.1 * float64(k+1), Names: []string{name + "-a", name + "-b"}},
			{Power: 1 / float64(k+3), Latency: time.Hour, Names: []string{name + "-c"}},
		}}
	}
	return buckets
}

// TotalPower is the denominator of every PowerFraction: identical builds
// must agree on it to the last bit, and so must a delta-patched index and
// one built fresh from the same buckets.
func TestTotalPowerIndependentOfMapOrder(t *testing.T) {
	buckets := fractionalBuckets()
	cat := NewCatalog()
	first, err := NewGroupInjector(cat, buckets)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		gi, _ := NewGroupInjector(cat, buckets)
		if gi.TotalPower() != first.TotalPower() {
			t.Fatalf("build %d: total %v, first build %v", i, gi.TotalPower(), first.TotalPower())
		}
	}

	// Churn a delta-patched index through removals, re-adds and regrouping,
	// ending on a different bucket set than it started from.
	patched, _ := NewGroupInjector(cat, buckets[:25])
	patched.ApplyBuckets(buckets[30:], []string{buckets[3].Key, buckets[7].Key})
	final := append([]BucketSpec(nil), buckets...)
	final[12].Groups = []GroupSpec{{Power: 0.3, Names: []string{"solo"}}}
	patched.ApplyBuckets(append(final[25:30:30], final[3], final[7], final[12]), nil)
	final = append(final[:20:20], final[21:]...)
	patched.ApplyBuckets(nil, []string{buckets[20].Key})
	fresh, _ := NewGroupInjector(cat, final)
	if patched.TotalPower() != fresh.TotalPower() {
		t.Fatalf("delta-patched total %v, freshly built %v", patched.TotalPower(), fresh.TotalPower())
	}
}

// With severity 1 the bound equals the numerator in real arithmetic but is
// summed in another order, so in floats the two differ by rounding. Equal
// open sets reached through different vulnerabilities (one product-wide CVE
// early, one per-version CVE each later) make instants whose fractions tie
// up to that rounding. The pruned sweep must still pick the instant a full
// sweep over the same exact fractions picks — which is what boundSlack is
// for; with no slack the later instant is skipped whenever its bound rounds
// an ulp below the best numerator.
func TestPrunedSweepSlackCoversRounding(t *testing.T) {
	const horizon = 400 * time.Hour
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var buckets []BucketSpec
		for _, version := range []string{"1", "2", "3"} {
			bs := BucketSpec{Key: "os-" + version, Config: config.MustNew(
				config.Component{Class: config.ClassOperatingSystem, Name: "os", Version: version})}
			for g := 0; g < 700; g++ {
				bs.Groups = append(bs.Groups, GroupSpec{
					Power:   0.1*float64(1+rng.Intn(5000)) + 1/float64(3+rng.Intn(50)),
					Latency: time.Duration(rng.Intn(4)) * time.Hour,
					Names:   []string{fmt.Sprintf("r-%s-%04d", version, g)},
				})
			}
			buckets = append(buckets, bs)
		}
		cat := NewCatalog()
		mustAdd(t, cat, Vulnerability{ID: "CVE-ALL", Class: config.ClassOperatingSystem, Product: "os",
			Disclosed: 10 * time.Hour, PatchAt: 20 * time.Hour, Severity: 1})
		for i, version := range []string{"1", "2", "3"} {
			mustAdd(t, cat, Vulnerability{ID: ID("CVE-V" + version), Class: config.ClassOperatingSystem, Product: "os", Version: version,
				Disclosed: time.Duration(100+i) * time.Hour, PatchAt: 120 * time.Hour, Severity: 1})
		}
		gi, err := NewGroupInjector(cat, buckets)
		if err != nil {
			t.Fatal(err)
		}
		instants := gi.CriticalInstants(horizon)
		wantT, wantF := instants[0], gi.TotalFractionAt(instants[0])
		for _, at := range instants[1:] {
			if f := gi.TotalFractionAt(at); f > wantF {
				wantT, wantF = at, f
			}
		}
		got, err := gi.WorstWindowSummary(horizon)
		if err != nil {
			t.Fatal(err)
		}
		if got.At != wantT || got.TotalFraction != wantF {
			t.Fatalf("seed %d: pruned sweep picked %v (f=%v), full sweep %v (f=%v)", seed, got.At, got.TotalFraction, wantT, wantF)
		}
	}
}

// TestLatencyIndexAtFinalLength: a swept bucket keeps one latency-index
// entry per distinct patch latency, not one per group, and the index's
// suffix sums are those of its groups.
func TestLatencyIndexAtFinalLength(t *testing.T) {
	cfg := config.MustNew(config.Component{Class: config.ClassOperatingSystem, Name: "debian", Version: "12"})
	cat := NewCatalog()
	if err := cat.Add(Vulnerability{ID: "v", Class: config.ClassOperatingSystem, Product: "debian", PatchAt: time.Hour, Severity: 1}); err != nil {
		t.Fatal(err)
	}
	var groups []GroupSpec
	for i := 0; i < 12; i++ {
		groups = append(groups, GroupSpec{Power: float64(1 + i), Latency: time.Duration(i%3) * time.Hour, Names: []string{fmt.Sprintf("r-%02d", i)}})
	}
	gi, err := NewGroupInjector(cat, []BucketSpec{{Key: "k", Config: cfg, Groups: groups}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gi.WorstWindow(48 * time.Hour); err != nil {
		t.Fatal(err)
	}
	lat := gi.buckets["k"].lat
	want := []latStep{{0, 78}, {time.Hour, 56}, {2 * time.Hour, 30}}
	if fmt.Sprint(lat) != fmt.Sprint(want) || cap(lat) != len(want) {
		t.Fatalf("latency index %v (cap %d), want %v (cap %d)", lat, cap(lat), want, len(want))
	}
}
