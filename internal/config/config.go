// Package config models replica configurations as the paper defines them
// (Sec. III-A): each replica is a machine running a stack of components —
// trusted hardware, system software (operating system), and application
// software (crypto library, consensus module, wallet/key management, plus
// auxiliary COTS components such as databases and language runtimes).
//
// A Configuration is the attestable identity of that stack. Two replicas
// share a fault domain exactly when their configurations share the affected
// component (internal/vuln performs that matching). The complete space of
// attestable configurations D = {d1, ..., dk} from Sec. IV-A is modelled by
// Space.
package config

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cryptoutil"
)

// Class identifies a component class in the replica stack.
type Class uint8

// Component classes, ordered roughly by the paper's presentation:
// trusted hardware first, then system software, then application software.
const (
	ClassTrustedHardware Class = iota // TEE/TPM (Sec. III-A "Trusted hardware")
	ClassOperatingSystem              // system software
	ClassCryptoLibrary                // application software: crypto implementation
	ClassConsensusModule              // application software: consensus implementation
	ClassWallet                       // application software: key/account management
	ClassDatabase                     // auxiliary COTS component
	ClassRuntime                      // language runtime / VM
	numClasses
)

// Classes lists every component class in canonical order.
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// String returns the canonical lowercase name of the class.
func (c Class) String() string {
	switch c {
	case ClassTrustedHardware:
		return "trusted-hardware"
	case ClassOperatingSystem:
		return "operating-system"
	case ClassCryptoLibrary:
		return "crypto-library"
	case ClassConsensusModule:
		return "consensus-module"
	case ClassWallet:
		return "wallet"
	case ClassDatabase:
		return "database"
	case ClassRuntime:
		return "runtime"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Valid reports whether c names a defined class.
func (c Class) Valid() bool { return c < numClasses }

// ParseClass maps a canonical class name (the String form, e.g.
// "operating-system") back to its Class. Serialized configurations — the
// scenario Timeline JSON spec among them — store classes by name so the
// encoding stays readable and stable if the numeric order ever changes.
func ParseClass(s string) (Class, error) {
	for _, c := range Classes() {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("config: unknown component class %q", s)
}

// Component is one concrete product version within a class, e.g.
// {ClassOperatingSystem, "ubuntu", "22.04"}.
type Component struct {
	Class   Class
	Name    string
	Version string
}

// Key returns the canonical string identity of the component. Vulnerability
// matching and configuration digests are computed over this form.
func (c Component) Key() string {
	return c.Class.String() + "/" + c.Name + "@" + c.Version
}

// appendKey appends Key's bytes to b; New builds the canonical text with it.
func (c Component) appendKey(b []byte) []byte {
	b = append(b, c.Class.String()...)
	b = append(b, '/')
	b = append(b, c.Name...)
	b = append(b, '@')
	return append(b, c.Version...)
}

// Product returns the class/name identity ignoring the version, used for
// version-range vulnerability matching.
func (c Component) Product() string {
	return c.Class.String() + "/" + c.Name
}

func (c Component) String() string { return c.Key() }

// Validate reports why New would reject the component: an undefined class or
// an empty name.
func (c Component) Validate() error {
	if !c.Class.Valid() {
		return fmt.Errorf("config: invalid class %d for component %q", c.Class, c.Name)
	}
	if c.Name == "" {
		return fmt.Errorf("config: empty component name in class %s", c.Class)
	}
	return nil
}

// Configuration is a full replica stack: at most one component per class.
// It is a one-word handle to an immutable value that New, the only
// constructor, computes once — the components in class order, their
// canonical text and its digest — so copying a Configuration copies 8 bytes
// and every read is allocation-free. The zero value is the empty
// configuration. Compare configurations with Equal.
type Configuration struct {
	_ [0]func() // not comparable: == would compare identity, not content
	v *value
}

// value is what a Configuration points at; nothing mutates it after New.
type value struct {
	components []Component // present classes only, ascending
	canonical  string
	digest     ID
}

// digestDomain separates configuration digests from every other use of
// cryptoutil.Hash.
const digestDomain = "repro/config/v1"

// empty backs the zero Configuration.
var empty = value{digest: cryptoutil.Hash([]byte(digestDomain), nil)}

func (cfg Configuration) val() *value {
	if cfg.v == nil {
		return &empty
	}
	return cfg.v
}

// New returns a configuration holding the given components. Later components
// of the same class overwrite earlier ones. A component that fails Validate
// is rejected. New keeps copies of the components, not the argument slice.
func New(components ...Component) (Configuration, error) {
	var byClass [numClasses]Component // Name == "" marks an absent class
	n := 0
	for _, c := range components {
		if err := c.Validate(); err != nil {
			return Configuration{}, err
		}
		if byClass[c.Class].Name == "" {
			n++
		}
		byClass[c.Class] = c
	}
	if n == 0 {
		return Configuration{}, nil
	}
	v := &value{components: make([]Component, 0, n)}
	var buf [256]byte
	text := buf[:0]
	for _, c := range byClass {
		if c.Name == "" {
			continue
		}
		if len(v.components) > 0 {
			text = append(text, '\n')
		}
		text = c.appendKey(text)
		v.components = append(v.components, c)
	}
	v.digest = cryptoutil.Hash([]byte(digestDomain), text)
	v.canonical = string(text)
	return Configuration{v: v}, nil
}

// MustNew is New for test fixtures and generators with known-good inputs;
// it panics on error.
func MustNew(components ...Component) Configuration {
	cfg, err := New(components...)
	if err != nil {
		panic(err)
	}
	return cfg
}

// Component returns the component of the given class, if present.
func (cfg Configuration) Component(class Class) (Component, bool) {
	for _, c := range cfg.val().components {
		if c.Class == class {
			return c, true
		}
	}
	return Component{}, false
}

// Components returns a copy of all components in canonical class order.
func (cfg Configuration) Components() []Component {
	cs := cfg.val().components
	out := make([]Component, len(cs))
	copy(out, cs)
	return out
}

// Len reports the number of populated classes.
func (cfg Configuration) Len() int { return len(cfg.val().components) }

// HasTrustedHardware reports whether the configuration includes a trusted
// hardware component, which the registry uses for the paper's two-tier
// (attestable vs not) replica model.
func (cfg Configuration) HasTrustedHardware() bool {
	_, ok := cfg.Component(ClassTrustedHardware)
	return ok
}

// Canonical returns the canonical textual encoding: class-ordered component
// keys joined by newlines. Digest and equality are defined over this form.
func (cfg Configuration) Canonical() string { return cfg.val().canonical }

// ID is the attestable identity of a configuration: the SHA-256 digest of
// its canonical encoding. This is the value a TPM/TEE quote covers.
type ID = cryptoutil.Digest

// Digest returns the configuration's attestable identity.
func (cfg Configuration) Digest() ID { return cfg.val().digest }

// Equal reports whether two configurations contain identical components.
func (cfg Configuration) Equal(other Configuration) bool {
	return cfg.v == other.v || cfg.Canonical() == other.Canonical()
}

func (cfg Configuration) String() string {
	if cfg.Len() == 0 {
		return "config{}"
	}
	return "config{" + strings.ReplaceAll(cfg.Canonical(), "\n", ", ") + "}"
}

// Catalog is the set of available component choices per class — the raw
// material from which the configuration space D is formed. It models the
// paper's observation that some classes offer little variety (trusted
// hardware, Remark 2) and others more (operating systems).
type Catalog struct {
	choices map[Class][]Component
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{choices: make(map[Class][]Component)}
}

// Add registers a component choice. Duplicate keys within a class are
// ignored so catalogs can be assembled idempotently.
func (cat *Catalog) Add(c Component) error {
	if err := c.Validate(); err != nil {
		return err
	}
	for _, existing := range cat.choices[c.Class] {
		if existing.Key() == c.Key() {
			return nil
		}
	}
	cat.choices[c.Class] = append(cat.choices[c.Class], c)
	return nil
}

// Choices returns the available components of a class in registration order.
func (cat *Catalog) Choices(class Class) []Component {
	return append([]Component(nil), cat.choices[class]...)
}

// ClassCount reports the number of choices available in a class.
func (cat *Catalog) ClassCount(class Class) int { return len(cat.choices[class]) }

// SpaceSize returns the size of the full configuration space over the given
// classes: the product of per-class choice counts. Classes with no choices
// contribute a factor of 1 (the class is simply absent).
func (cat *Catalog) SpaceSize(classes ...Class) int {
	if len(classes) == 0 {
		classes = Classes()
	}
	size := 1
	for _, class := range classes {
		if n := len(cat.choices[class]); n > 0 {
			size *= n
		}
	}
	return size
}

// Enumerate generates every configuration over the given classes (or all
// classes with at least one choice, if none given), in deterministic order.
// It is intended for small spaces; callers should check SpaceSize first.
func (cat *Catalog) Enumerate(classes ...Class) []Configuration {
	if len(classes) == 0 {
		for _, class := range Classes() {
			if len(cat.choices[class]) > 0 {
				classes = append(classes, class)
			}
		}
	}
	sets := [][]Component{nil}
	for _, class := range classes {
		choices := cat.choices[class]
		if len(choices) == 0 {
			continue
		}
		next := make([][]Component, 0, len(sets)*len(choices))
		for _, base := range sets {
			for _, c := range choices {
				next = append(next, append(slices.Clip(base), c))
			}
		}
		sets = next
	}
	configs := make([]Configuration, len(sets))
	for i, set := range sets {
		configs[i] = MustNew(set...)
	}
	slices.SortFunc(configs, func(a, b Configuration) int {
		return strings.Compare(a.Canonical(), b.Canonical())
	})
	return configs
}

// Rand is the minimal random interface the generator needs, satisfied by
// *math/rand.Rand; accepting the interface keeps call sites testable.
type Rand interface {
	Intn(n int) int
}

// RandomConfiguration draws one component uniformly per populated class.
func (cat *Catalog) RandomConfiguration(rng Rand) Configuration {
	var buf [numClasses]Component
	picked := buf[:0]
	for _, class := range Classes() {
		choices := cat.choices[class]
		if len(choices) == 0 {
			continue
		}
		picked = append(picked, choices[rng.Intn(len(choices))])
	}
	return MustNew(picked...)
}

// DefaultCatalog returns a realistic catalog mirroring the diversity the
// paper discusses: few trusted-hardware options (Remark 2: "the diversity of
// trusted hardware is limited"), several operating systems, a handful of
// crypto libraries, consensus modules and wallets.
func DefaultCatalog() *Catalog {
	cat := NewCatalog()
	add := func(class Class, name, version string) {
		// Inputs below are static and valid; Add only fails on bad input.
		if err := cat.Add(Component{Class: class, Name: name, Version: version}); err != nil {
			panic(err)
		}
	}
	// Trusted hardware: deliberately scarce.
	add(ClassTrustedHardware, "intel-sgx", "2.19")
	add(ClassTrustedHardware, "arm-trustzone", "1.0")
	add(ClassTrustedHardware, "amd-psp", "5.0")
	add(ClassTrustedHardware, "tpm2", "01.59")
	// Operating systems.
	add(ClassOperatingSystem, "ubuntu", "22.04")
	add(ClassOperatingSystem, "debian", "12")
	add(ClassOperatingSystem, "fedora", "38")
	add(ClassOperatingSystem, "freebsd", "13.2")
	add(ClassOperatingSystem, "openbsd", "7.3")
	add(ClassOperatingSystem, "windows-server", "2022")
	// Crypto libraries.
	add(ClassCryptoLibrary, "openssl", "3.0.8")
	add(ClassCryptoLibrary, "boringssl", "2023.02")
	add(ClassCryptoLibrary, "libsodium", "1.0.18")
	add(ClassCryptoLibrary, "golang-crypto", "1.21")
	// Consensus modules (clients).
	add(ClassConsensusModule, "bitcoin-core", "24.0")
	add(ClassConsensusModule, "btcd", "0.23")
	add(ClassConsensusModule, "bcoin", "2.2")
	add(ClassConsensusModule, "tendermint", "0.37")
	add(ClassConsensusModule, "hotstuff-ref", "1.0")
	// Wallets / key management.
	add(ClassWallet, "builtin", "1.0")
	add(ClassWallet, "hw-ledger", "2.1")
	add(ClassWallet, "hw-trezor", "1.12")
	add(ClassWallet, "remote-custodian", "1.0")
	// Databases.
	add(ClassDatabase, "leveldb", "1.23")
	add(ClassDatabase, "rocksdb", "7.9")
	add(ClassDatabase, "sqlite", "3.41")
	// Runtimes.
	add(ClassRuntime, "glibc", "2.37")
	add(ClassRuntime, "musl", "1.2.3")
	return cat
}
