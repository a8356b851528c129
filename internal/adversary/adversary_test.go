package adversary

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/diversity"
	"repro/internal/vuln"
)

func osCfg(name string) config.Configuration {
	return config.MustNew(config.Component{Class: config.ClassOperatingSystem, Name: name, Version: "1"})
}

func libCfg(osName, lib string) config.Configuration {
	return config.MustNew(
		config.Component{Class: config.ClassOperatingSystem, Name: osName, Version: "1"},
		config.Component{Class: config.ClassCryptoLibrary, Name: lib, Version: "1"},
	)
}

func mkVuln(id string, class config.Class, product string) vuln.Vulnerability {
	return vuln.Vulnerability{
		ID: vuln.ID(id), Class: class, Product: product,
		Disclosed: 0, PatchAt: 100 * time.Hour, Severity: 1,
	}
}

func TestGreedyExploitsPicksMaxCoverage(t *testing.T) {
	cat := vuln.NewCatalog()
	cat.Add(mkVuln("CVE-os-a", config.ClassOperatingSystem, "os-a"))
	cat.Add(mkVuln("CVE-os-b", config.ClassOperatingSystem, "os-b"))
	cat.Add(mkVuln("CVE-lib", config.ClassCryptoLibrary, "lib-x"))
	replicas := []vuln.Replica{
		{Name: "r1", Config: libCfg("os-a", "lib-x"), Power: 30},
		{Name: "r2", Config: libCfg("os-a", "lib-y"), Power: 20},
		{Name: "r3", Config: libCfg("os-b", "lib-x"), Power: 25},
		{Name: "r4", Config: libCfg("os-b", "lib-y"), Power: 25},
	}
	// Budget 1: CVE-os-b (50) and CVE-os-a (50) and CVE-lib (55) — lib wins.
	plan, err := GreedyExploits(cat, replicas, time.Hour, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Chosen) != 1 || plan.Chosen[0] != "CVE-lib" {
		t.Fatalf("chosen = %v, want CVE-lib", plan.Chosen)
	}
	if math.Abs(plan.Fraction-0.55) > 1e-9 {
		t.Fatalf("fraction = %v, want 0.55", plan.Fraction)
	}
	if !plan.Breaks {
		t.Fatal("0.55 > 0.5 should break")
	}
	// Budget 2: lib (r1,r3 = 55) + best marginal: os-a adds r2 (20) = 75;
	// os-b adds r4 (25) = 80 — os-b wins.
	plan2, err := GreedyExploits(cat, replicas, time.Hour, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan2.Chosen) != 2 || plan2.Chosen[1] != "CVE-os-b" {
		t.Fatalf("chosen = %v, want [CVE-lib CVE-os-b]", plan2.Chosen)
	}
	if math.Abs(plan2.Fraction-0.80) > 1e-9 {
		t.Fatalf("fraction = %v, want 0.80", plan2.Fraction)
	}
}

func TestGreedyExploitsStopsWhenNothingGains(t *testing.T) {
	cat := vuln.NewCatalog()
	cat.Add(mkVuln("CVE-os-a", config.ClassOperatingSystem, "os-a"))
	replicas := []vuln.Replica{
		{Name: "r1", Config: osCfg("os-a"), Power: 10},
		{Name: "r2", Config: osCfg("os-b"), Power: 10},
	}
	plan, err := GreedyExploits(cat, replicas, time.Hour, 5, 1.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Chosen) != 1 {
		t.Fatalf("chosen = %v, want single useful exploit", plan.Chosen)
	}
	if !plan.Breaks {
		t.Fatal("compromising 0.5 of power must break a 1/3 tolerance")
	}
}

func TestGreedyExploitsRespectsWindows(t *testing.T) {
	cat := vuln.NewCatalog()
	v := mkVuln("CVE-later", config.ClassOperatingSystem, "os-a")
	v.Disclosed = 50 * time.Hour
	v.PatchAt = 60 * time.Hour
	cat.Add(v)
	replicas := []vuln.Replica{{Name: "r1", Config: osCfg("os-a"), Power: 10}}
	plan, err := GreedyExploits(cat, replicas, time.Hour, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Chosen) != 0 {
		t.Fatal("undisclosed vulnerability exploited")
	}
}

// TestGreedyExploitsTieIgnoresMapOrder: exploit a takes {0.6} and b takes
// {0.1, 0.2, 0.3}. In integer power units b gains exactly 0.6 too, in any
// order, so the tie rule picks a, in every call; as float64 0.1 + 0.2 + 0.3
// gains one ulp more.
func TestGreedyExploitsTieIgnoresMapOrder(t *testing.T) {
	cat := vuln.NewCatalog()
	cat.Add(mkVuln("a", config.ClassOperatingSystem, "os-a"))
	cat.Add(mkVuln("b", config.ClassOperatingSystem, "os-b"))
	replicas := []vuln.Replica{
		{Name: "r1", Config: osCfg("os-a"), Power: 0.6},
		{Name: "r2", Config: osCfg("os-b"), Power: 0.1},
		{Name: "r3", Config: osCfg("os-b"), Power: 0.2},
		{Name: "r4", Config: osCfg("os-b"), Power: 0.3},
	}
	for call := 0; call < 500; call++ {
		plan, err := GreedyExploits(cat, replicas, time.Hour, 1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Chosen) != 1 || plan.Chosen[0] != "a" {
			t.Fatalf("call %d: chosen %v, want [a]", call, plan.Chosen)
		}
	}
}

// TestGreedyExploitsIgnoresReplicaOrder: on one-decimal powers, where a
// float sum would depend on its order, every listing of the same fleet
// gives the same plan to the last bit.
func TestGreedyExploitsIgnoresReplicaOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	oses, libs := []string{"os-a", "os-b", "os-c"}, []string{"lib-x", "lib-y"}
	for c := 0; c < 300; c++ {
		cat := vuln.NewCatalog()
		for i, n := 0, 1+rng.Intn(5); i < n; i++ {
			v := mkVuln(fmt.Sprintf("CVE-%d", i), config.ClassOperatingSystem, oses[rng.Intn(len(oses))])
			if rng.Intn(3) == 0 {
				v.Class, v.Product = config.ClassCryptoLibrary, libs[rng.Intn(len(libs))]
			}
			v.Severity = float64(1+rng.Intn(10)) / 10
			if err := cat.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		replicas := make([]vuln.Replica, 2+rng.Intn(10))
		for i := range replicas {
			replicas[i] = vuln.Replica{
				Name:   fmt.Sprintf("r-%02d", i),
				Config: libCfg(oses[rng.Intn(len(oses))], libs[rng.Intn(len(libs))]),
				Power:  float64(1+rng.Intn(20)) / 10,
			}
		}
		budget := 1 + rng.Intn(3)
		plan := func() string {
			p, err := GreedyExploits(cat, replicas, time.Hour, budget, 1.0/3.0)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(p)
		}
		want := plan()
		for s := 0; s < 10; s++ {
			rng.Shuffle(len(replicas), func(i, j int) { replicas[i], replicas[j] = replicas[j], replicas[i] })
			if got := plan(); got != want {
				t.Fatalf("case %d: plan %s, %s in another replica order", c, got, want)
			}
		}
	}
}

func TestGreedyExploitsValidation(t *testing.T) {
	if _, err := GreedyExploits(nil, nil, 0, 1, 0.5); err == nil {
		t.Fatal("nil catalog accepted")
	}
	cat := vuln.NewCatalog()
	if _, err := GreedyExploits(cat, nil, 0, -1, 0.5); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := GreedyExploits(cat, []vuln.Replica{{Name: "x", Power: -1}}, 0, 1, 0.5); err == nil {
		t.Fatal("negative power accepted")
	}
	plan, err := GreedyExploits(cat, nil, 0, 1, 0.5)
	if err != nil || plan.Fraction != 0 {
		t.Fatalf("empty population: %v %+v", err, plan)
	}
}

func TestCorruptOperators(t *testing.T) {
	members := []diversity.Member{
		{Label: "big", Power: 40},
		{Label: "mid", Power: 35},
		{Label: "small", Power: 25},
	}
	plan, err := CorruptOperators(members, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Corrupted) != 2 || plan.Corrupted[0] != "big" || plan.Corrupted[1] != "mid" {
		t.Fatalf("corrupted = %v", plan.Corrupted)
	}
	if math.Abs(plan.Fraction-0.75) > 1e-9 || !plan.Breaks {
		t.Fatalf("plan = %+v", plan)
	}
	// Budget exceeding population clamps.
	all, _ := CorruptOperators(members, 10, 0.5)
	if math.Abs(all.Fraction-1) > 1e-9 {
		t.Fatalf("full corruption fraction = %v", all.Fraction)
	}
	if _, err := CorruptOperators(members, -1, 0.5); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := CorruptOperators([]diversity.Member{{Label: "x", Power: -1}}, 1, 0.5); err == nil {
		t.Fatal("negative power accepted")
	}
	empty, err := CorruptOperators(nil, 3, 0.5)
	if err != nil || empty.Breaks {
		t.Fatalf("empty members: %v %+v", err, empty)
	}
}

func TestDiversityDefeatsExploitsButNotCorruption(t *testing.T) {
	// The paper's core contrast: a diverse fleet resists shared-fault
	// exploitation, but operator corruption depends only on power split.
	cat := vuln.NewCatalog()
	cat.Add(mkVuln("CVE-mono", config.ClassOperatingSystem, "os-mono"))
	n := 12
	diverse := make([]vuln.Replica, n)
	mono := make([]vuln.Replica, n)
	var members []diversity.Member
	for i := 0; i < n; i++ {
		diverse[i] = vuln.Replica{Name: string(rune('a' + i)), Config: osCfg("os-" + string(rune('a'+i))), Power: 1}
		mono[i] = vuln.Replica{Name: string(rune('a' + i)), Config: osCfg("os-mono"), Power: 1}
		members = append(members, diversity.Member{Label: string(rune('a' + i)), Power: 1})
	}
	dPlan, _ := GreedyExploits(cat, diverse, time.Hour, 3, 0.5)
	mPlan, _ := GreedyExploits(cat, mono, time.Hour, 1, 0.5)
	if dPlan.Breaks {
		t.Fatal("diverse fleet broken by exploit budget")
	}
	if !mPlan.Breaks || mPlan.Fraction != 1 {
		t.Fatalf("monoculture plan = %+v, want total compromise", mPlan)
	}
	// Corruption needs a majority of operators either way: 7 of 12.
	if six, _ := CorruptOperators(members, 6, 0.5); six.Breaks {
		t.Fatalf("6 corruptions broke the fleet: %+v", six)
	}
	if seven, _ := CorruptOperators(members, 7, 0.5); !seven.Breaks {
		t.Fatalf("7 corruptions did not break the fleet: %+v", seven)
	}
}
