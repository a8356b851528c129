package config

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestClassString(t *testing.T) {
	seen := make(map[string]bool)
	for _, c := range Classes() {
		if !c.Valid() {
			t.Fatalf("Classes() returned invalid class %d", c)
		}
		s := c.String()
		if s == "" || strings.HasPrefix(s, "class(") {
			t.Fatalf("class %d has no name", c)
		}
		if seen[s] {
			t.Fatalf("duplicate class name %q", s)
		}
		seen[s] = true
	}
	if Class(200).Valid() {
		t.Fatal("Class(200) reported valid")
	}
	if !strings.HasPrefix(Class(200).String(), "class(") {
		t.Fatal("invalid class String not fallback form")
	}
}

func TestComponentKey(t *testing.T) {
	c := Component{Class: ClassOperatingSystem, Name: "ubuntu", Version: "22.04"}
	if c.Key() != "operating-system/ubuntu@22.04" {
		t.Fatalf("Key = %q", c.Key())
	}
	if c.Product() != "operating-system/ubuntu" {
		t.Fatalf("Product = %q", c.Product())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Component{Class: Class(99), Name: "x"}); err == nil {
		t.Fatal("invalid class accepted")
	}
	if _, err := New(Component{Class: ClassWallet, Name: ""}); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestNewOverwritesSameClass(t *testing.T) {
	cfg := MustNew(
		Component{Class: ClassOperatingSystem, Name: "ubuntu", Version: "22.04"},
		Component{Class: ClassOperatingSystem, Name: "debian", Version: "12"},
	)
	c, ok := cfg.Component(ClassOperatingSystem)
	if !ok || c.Name != "debian" {
		t.Fatalf("component = %v, want debian", c)
	}
	if cfg.Len() != 1 {
		t.Fatalf("Len = %d, want 1", cfg.Len())
	}
}

func TestNewCopiesArgument(t *testing.T) {
	comps := []Component{
		{Class: ClassWallet, Name: "builtin", Version: "1"},
		{Class: ClassOperatingSystem, Name: "debian", Version: "12"},
	}
	cfg := MustNew(comps...)
	canonical, digest := cfg.Canonical(), cfg.Digest()
	comps[0].Name = "hw-ledger"
	comps[1] = Component{Class: ClassTrustedHardware, Name: "tpm2", Version: "2"}
	if c, _ := cfg.Component(ClassWallet); c.Name != "builtin" {
		t.Fatal("mutating New's argument changed the configuration")
	}
	if cfg.Canonical() != canonical || cfg.Digest() != digest || cfg.HasTrustedHardware() {
		t.Fatal("mutating New's argument changed the configuration's identity")
	}
	got := cfg.Components()
	got[0].Name = "mutated"
	if c, _ := cfg.Component(ClassOperatingSystem); c.Name != "debian" {
		t.Fatal("Components exposed the configuration's storage")
	}
}

func TestCanonicalOrderIndependent(t *testing.T) {
	a := MustNew(
		Component{Class: ClassWallet, Name: "builtin", Version: "1"},
		Component{Class: ClassOperatingSystem, Name: "debian", Version: "12"},
	)
	b := MustNew(
		Component{Class: ClassOperatingSystem, Name: "debian", Version: "12"},
		Component{Class: ClassWallet, Name: "builtin", Version: "1"},
	)
	if a.Canonical() != b.Canonical() {
		t.Fatal("canonical form depends on insertion order")
	}
	if a.Digest() != b.Digest() {
		t.Fatal("digest depends on insertion order")
	}
	if !a.Equal(b) {
		t.Fatal("Equal false for identical configs")
	}
}

func TestDigestDistinguishesVersions(t *testing.T) {
	a := MustNew(Component{Class: ClassCryptoLibrary, Name: "openssl", Version: "3.0.8"})
	b := MustNew(Component{Class: ClassCryptoLibrary, Name: "openssl", Version: "3.0.9"})
	if a.Digest() == b.Digest() {
		t.Fatal("different versions share a digest")
	}
}

func TestEmptyConfiguration(t *testing.T) {
	var cfg Configuration
	if cfg.Len() != 0 {
		t.Fatal("zero config non-empty")
	}
	if cfg.String() != "config{}" {
		t.Fatalf("String = %q", cfg.String())
	}
	if cfg.HasTrustedHardware() {
		t.Fatal("zero config has trusted hardware")
	}
	// Digest of empty config must still be stable and non-panicking.
	if cfg.Digest() != (Configuration{}).Digest() {
		t.Fatal("empty digest unstable")
	}
}

func TestHasTrustedHardware(t *testing.T) {
	cfg := MustNew(Component{Class: ClassTrustedHardware, Name: "tpm2", Version: "01.59"})
	if !cfg.HasTrustedHardware() {
		t.Fatal("trusted hardware not detected")
	}
}

func TestComponentsCanonicalOrder(t *testing.T) {
	cfg := MustNew(
		Component{Class: ClassRuntime, Name: "musl", Version: "1"},
		Component{Class: ClassTrustedHardware, Name: "tpm2", Version: "1"},
	)
	comps := cfg.Components()
	if len(comps) != 2 || comps[0].Class != ClassTrustedHardware || comps[1].Class != ClassRuntime {
		t.Fatalf("components out of canonical order: %v", comps)
	}
}

func TestCatalogAddIdempotent(t *testing.T) {
	cat := NewCatalog()
	c := Component{Class: ClassDatabase, Name: "sqlite", Version: "3"}
	if err := cat.Add(c); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(c); err != nil {
		t.Fatal(err)
	}
	if cat.ClassCount(ClassDatabase) != 1 {
		t.Fatalf("duplicate add grew catalog: %d", cat.ClassCount(ClassDatabase))
	}
}

func TestCatalogAddValidation(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Add(Component{Class: Class(77), Name: "x"}); err == nil {
		t.Fatal("invalid class accepted")
	}
	if err := cat.Add(Component{Class: ClassWallet}); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestCatalogChoicesIsCopy(t *testing.T) {
	cat := NewCatalog()
	cat.Add(Component{Class: ClassWallet, Name: "a", Version: "1"})
	got := cat.Choices(ClassWallet)
	got[0].Name = "mutated"
	if cat.Choices(ClassWallet)[0].Name != "a" {
		t.Fatal("Choices exposed internal slice")
	}
}

func TestSpaceSize(t *testing.T) {
	cat := NewCatalog()
	cat.Add(Component{Class: ClassOperatingSystem, Name: "a", Version: "1"})
	cat.Add(Component{Class: ClassOperatingSystem, Name: "b", Version: "1"})
	cat.Add(Component{Class: ClassWallet, Name: "w", Version: "1"})
	if got := cat.SpaceSize(ClassOperatingSystem, ClassWallet); got != 2 {
		t.Fatalf("SpaceSize = %d, want 2", got)
	}
	if got := cat.SpaceSize(); got != 2 {
		t.Fatalf("SpaceSize() = %d, want 2", got)
	}
	// Empty class contributes factor 1.
	if got := cat.SpaceSize(ClassDatabase); got != 1 {
		t.Fatalf("SpaceSize(empty) = %d, want 1", got)
	}
}

func TestEnumerate(t *testing.T) {
	cat := NewCatalog()
	cat.Add(Component{Class: ClassOperatingSystem, Name: "a", Version: "1"})
	cat.Add(Component{Class: ClassOperatingSystem, Name: "b", Version: "1"})
	cat.Add(Component{Class: ClassWallet, Name: "w1", Version: "1"})
	cat.Add(Component{Class: ClassWallet, Name: "w2", Version: "1"})
	cat.Add(Component{Class: ClassWallet, Name: "w3", Version: "1"})
	configs := cat.Enumerate()
	if len(configs) != 6 {
		t.Fatalf("enumerated %d configs, want 6", len(configs))
	}
	seen := make(map[ID]bool)
	for _, cfg := range configs {
		id := cfg.Digest()
		if seen[id] {
			t.Fatalf("duplicate configuration %s", cfg)
		}
		seen[id] = true
		if cfg.Len() != 2 {
			t.Fatalf("config %s missing classes", cfg)
		}
	}
	// Deterministic order.
	again := cat.Enumerate()
	for i := range configs {
		if !configs[i].Equal(again[i]) {
			t.Fatal("Enumerate order not deterministic")
		}
	}
}

func TestRandomConfigurationCoversClasses(t *testing.T) {
	cat := DefaultCatalog()
	rng := rand.New(rand.NewSource(1))
	cfg := cat.RandomConfiguration(rng)
	for _, class := range Classes() {
		if cat.ClassCount(class) > 0 {
			if _, ok := cfg.Component(class); !ok {
				t.Fatalf("random config missing populated class %s", class)
			}
		}
	}
}

func TestDefaultCatalogShape(t *testing.T) {
	cat := DefaultCatalog()
	// Remark 2: trusted hardware diversity is limited relative to OSes.
	if cat.ClassCount(ClassTrustedHardware) >= cat.ClassCount(ClassOperatingSystem) {
		t.Fatal("catalog should have fewer trusted-hardware choices than OS choices")
	}
	if cat.SpaceSize() < 1000 {
		t.Fatalf("default space suspiciously small: %d", cat.SpaceSize())
	}
	if got := len(cat.Enumerate(ClassTrustedHardware, ClassOperatingSystem)); got != cat.ClassCount(ClassTrustedHardware)*cat.ClassCount(ClassOperatingSystem) {
		t.Fatalf("enumerate size %d mismatch", got)
	}
}

// Property: digests are injective over enumerated spaces (no collisions among
// distinct canonical forms) and Equal agrees with digest equality.
func TestPropDigestConsistency(t *testing.T) {
	cat := DefaultCatalog()
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		a := cat.RandomConfiguration(rng)
		b := cat.RandomConfiguration(rng)
		if a.Equal(b) != (a.Digest() == b.Digest()) {
			return false
		}
		return a.Equal(a) && a.Digest() == a.Digest()
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(func() bool { return f() }, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestConfigAllocations: New of two components allocates its value, its
// component slice and its canonical text, nothing more; every read after
// that allocates nothing.
func TestConfigAllocations(t *testing.T) {
	comps := []Component{
		{Class: ClassOperatingSystem, Name: "debian", Version: "12"},
		{Class: ClassCryptoLibrary, Name: "openssl", Version: "3.0.8"},
	}
	if n := testing.AllocsPerRun(100, func() { MustNew(comps...) }); n > 3 {
		t.Errorf("New of two components: %v objects, ceiling 3", n)
	}
	a, b := MustNew(comps...), MustNew(comps[1], comps[0])
	var sinkDigest ID
	var sinkString string
	var sinkBool bool
	reads := map[string]func(){
		"Digest":             func() { sinkDigest = a.Digest() },
		"Canonical":          func() { sinkString = a.Canonical() },
		"Equal":              func() { sinkBool = a.Equal(b) },
		"Component":          func() { _, sinkBool = a.Component(ClassCryptoLibrary) },
		"Len":                func() { sinkBool = a.Len() == 2 },
		"HasTrustedHardware": func() { sinkBool = a.HasTrustedHardware() },
		"zero Digest":        func() { sinkDigest = Configuration{}.Digest() },
	}
	for name, read := range reads {
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("%s: %v objects, want 0", name, n)
		}
	}
	_, _, _ = sinkDigest, sinkString, sinkBool
}
