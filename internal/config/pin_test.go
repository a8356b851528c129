package config

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestCanonicalDigestPins fixes the bytes a configuration's identity is made
// of: the canonical text and the hex SHA-256 digest an attestation quote
// covers. A change to either is a change of every recorded measurement.
func TestCanonicalDigestPins(t *testing.T) {
	const emptyDigest = "1448841caad751b62c5778cdd1448119002ba9d516c6e275e4f76b8d6b5d0640"
	cases := []struct {
		name      string
		cfg       Configuration
		canonical string
		digest    string
	}{
		{"zero value", Configuration{}, "", emptyDigest},
		{"New()", MustNew(), "", emptyDigest},
		{"one component", MustNew(Component{ClassOperatingSystem, "ubuntu", "22.04"}),
			"operating-system/ubuntu@22.04",
			"af307909af3b5ca427821e36fba3afd2980b78aee88ee74be1a8c566b0a9443c"},
		{"all seven classes", MustNew(
			Component{ClassRuntime, "glibc", "2.37"},
			Component{ClassDatabase, "rocksdb", "7.9"},
			Component{ClassWallet, "hw-ledger", "2.1"},
			Component{ClassConsensusModule, "tendermint", "0.37"},
			Component{ClassCryptoLibrary, "boringssl", "2023.02"},
			Component{ClassOperatingSystem, "debian", "12"},
			Component{ClassTrustedHardware, "intel-sgx", "2.19"},
		),
			"trusted-hardware/intel-sgx@2.19\noperating-system/debian@12\ncrypto-library/boringssl@2023.02\n" +
				"consensus-module/tendermint@0.37\nwallet/hw-ledger@2.1\ndatabase/rocksdb@7.9\nruntime/glibc@2.37",
			"551e740931cbf1687138c576aba79aae3f2bafb2f3e4cbcd9a0d32c8c630d4dd"},
		{"class overwritten", MustNew(
			Component{ClassOperatingSystem, "ubuntu", "22.04"},
			Component{ClassCryptoLibrary, "openssl", "3.0.8"},
			Component{ClassOperatingSystem, "freebsd", "13.2"},
		),
			"operating-system/freebsd@13.2\ncrypto-library/openssl@3.0.8",
			"7b001c6ce0d9b6c27df9d822998bf98f562dc5f63e31660c77605c0cb119943d"},
	}
	for _, tc := range cases {
		if got := tc.cfg.Canonical(); got != tc.canonical {
			t.Errorf("%s: Canonical = %q, want %q", tc.name, got, tc.canonical)
		}
		if got := tc.cfg.Digest().String(); got != tc.digest {
			t.Errorf("%s: Digest = %s, want %s", tc.name, got, tc.digest)
		}
	}

	enumerated := [][2]string{
		{"trusted-hardware/amd-psp@5.0\noperating-system/debian@12", "b9c489123a8cbe6414d59d69173904f36efbc3f58e520d83274c674341243115"},
		{"trusted-hardware/amd-psp@5.0\noperating-system/fedora@38", "0d4aa1677597cf0eb9eced8809edbb7ecb8b2888a9b9c29d474ea7efea44c58b"},
		{"trusted-hardware/amd-psp@5.0\noperating-system/freebsd@13.2", "13a68c4f201f2a966d23824774dd95a8bdd9f249c961405bfc8d3df089701df2"},
		{"trusted-hardware/amd-psp@5.0\noperating-system/openbsd@7.3", "e249cc9ab1df65288b369a655fcde79586f96364abb88948265ad6a7650c6423"},
		{"trusted-hardware/amd-psp@5.0\noperating-system/ubuntu@22.04", "500bb66afed186149250aff2aaed7cd2e96bb608e7488ffc774fa1e1cfd1a690"},
		{"trusted-hardware/amd-psp@5.0\noperating-system/windows-server@2022", "8c8126564cb57f4cf482bd9e90c5f52c85ff6ac768d717d0bfe3f8e5d12dfd2a"},
		{"trusted-hardware/arm-trustzone@1.0\noperating-system/debian@12", "2aa5e309379ee18176bc3ee00319bc92ecf42c7499892b61716af30ef0db498e"},
		{"trusted-hardware/arm-trustzone@1.0\noperating-system/fedora@38", "017d37d04310c26e964ccee3e891d4d7ebda00929b0fbb75c43db7fb0ee20bda"},
		{"trusted-hardware/arm-trustzone@1.0\noperating-system/freebsd@13.2", "01d820d3ed05660e7f59415a31ec15cc3fc6ddaa66878b210db7bfa6f5a20c08"},
		{"trusted-hardware/arm-trustzone@1.0\noperating-system/openbsd@7.3", "4e01e48bb5d059e3f578d8955d447907d66f2d4dbaab8bb0768660b5f2e59db6"},
		{"trusted-hardware/arm-trustzone@1.0\noperating-system/ubuntu@22.04", "13bfa4a20d8be0995cf46b07a6754681a8b612b08b0b560c22ef078f88663159"},
		{"trusted-hardware/arm-trustzone@1.0\noperating-system/windows-server@2022", "e32cf89cc7f11cc74b46728dbd811bbc84e1fb1ded10dddebbb4f9f5005a1305"},
		{"trusted-hardware/intel-sgx@2.19\noperating-system/debian@12", "0004f795ba7d296f1c5aa33d009f770493b0136417f7b76500a00e6fe61d8745"},
		{"trusted-hardware/intel-sgx@2.19\noperating-system/fedora@38", "f7af7d3f45fa5c42c2adc83cfe2ef96a2a8509412bc0b1e102f23418d245e3ec"},
		{"trusted-hardware/intel-sgx@2.19\noperating-system/freebsd@13.2", "3881e5c79c4ef20cb6679e18a112415b4be131f0fc937e8549ee8e1a16329e2d"},
		{"trusted-hardware/intel-sgx@2.19\noperating-system/openbsd@7.3", "24386994d359188e0dbf0410da70285b6c90ce508db8d11b01eac37076e19fad"},
		{"trusted-hardware/intel-sgx@2.19\noperating-system/ubuntu@22.04", "e51db1b6d9968611f7e389efd8b9595738a7c055e7f247147e7ba388c8f7bb32"},
		{"trusted-hardware/intel-sgx@2.19\noperating-system/windows-server@2022", "31c7d738db0fc22c385e841ae758d13291bf222c8d60dd1f450918199ad81aee"},
		{"trusted-hardware/tpm2@01.59\noperating-system/debian@12", "6fb377df0bcd9ccc8b85bd8ff5473f02d7c829fd88ac65c0e64a99537666338c"},
		{"trusted-hardware/tpm2@01.59\noperating-system/fedora@38", "e3b0e72ec54771335b6b66a7f002ce3a728ac54f4e40054b1e1a8a0e14ab954b"},
		{"trusted-hardware/tpm2@01.59\noperating-system/freebsd@13.2", "ea0f4818793ab8f7c8fa39c5685694e29e9e74d545e5d5fb06ae3c28ecee8ba7"},
		{"trusted-hardware/tpm2@01.59\noperating-system/openbsd@7.3", "e33514fa9e1f5d85c100b7e4b71f2183404b80e731619946ea332c9e1769fe3e"},
		{"trusted-hardware/tpm2@01.59\noperating-system/ubuntu@22.04", "0b70e96349a52b7c03ce5168b310b0724194d4146d924c59bec5800de9115fde"},
		{"trusted-hardware/tpm2@01.59\noperating-system/windows-server@2022", "4930ba2637217b4d1d486f45338d145985fdf0ee3a43dd7fe638bf964ac9a273"},
	}
	got := DefaultCatalog().Enumerate(ClassTrustedHardware, ClassOperatingSystem)
	if len(got) != len(enumerated) {
		t.Fatalf("Enumerate returned %d configurations, want %d", len(got), len(enumerated))
	}
	for i, want := range enumerated {
		if c, d := got[i].Canonical(), got[i].Digest().String(); c != want[0] || d != want[1] {
			t.Errorf("Enumerate[%d] = %q %s, want %q %s", i, c, d, want[0], want[1])
		}
	}
}

// refConfig is the reference model of a configuration: a map from class to
// component, with every derived form recomputed from it on demand.
type refConfig map[Class]Component

func refNew(components []Component) (refConfig, error) {
	m := make(refConfig, len(components))
	for _, c := range components {
		if !c.Class.Valid() {
			return nil, fmt.Errorf("config: invalid class %d for component %q", c.Class, c.Name)
		}
		if c.Name == "" {
			return nil, fmt.Errorf("config: empty component name in class %s", c.Class)
		}
		m[c.Class] = c
	}
	return m, nil
}

func (m refConfig) components() []Component {
	var out []Component
	for class := Class(0); class < numClasses; class++ {
		if c, ok := m[class]; ok {
			out = append(out, c)
		}
	}
	return out
}

func (m refConfig) canonical() string {
	var keys []string
	for _, c := range m.components() {
		keys = append(keys, c.Class.String()+"/"+c.Name+"@"+c.Version)
	}
	return strings.Join(keys, "\n")
}

// digest streams the length-prefixed framing through sha256 directly, so
// the model does not share cryptoutil.Hash with the code under test.
func (m refConfig) digest() ID {
	h := sha256.New()
	for _, p := range []string{"repro/config/v1", m.canonical()} {
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(len(p))))
		h.Write([]byte(p))
	}
	var d ID
	h.Sum(d[:0])
	return d
}

func (m refConfig) String() string {
	if len(m) == 0 {
		return "config{}"
	}
	return "config{" + strings.ReplaceAll(m.canonical(), "\n", ", ") + "}"
}

// randomComponents draws a component list that New may reject: duplicate
// classes are common, and an invalid class or an empty name turn up now and
// then.
func randomComponents(rng *rand.Rand) []Component {
	// The long name pushes a full stack's canonical text past the 256 bytes
	// New encodes it into on the stack.
	names := []string{"a", "b", "ubuntu", "openssl", strings.Repeat("long-", 10)}
	versions := []string{"", "1", "22.04"}
	out := make([]Component, rng.Intn(9))
	for i := range out {
		class := Class(rng.Intn(int(numClasses)))
		switch rng.Intn(20) {
		case 0:
			class = numClasses
		case 1:
			class = 200
		}
		name := names[rng.Intn(len(names))]
		if rng.Intn(15) == 0 {
			name = ""
		}
		out[i] = Component{Class: class, Name: name, Version: versions[rng.Intn(len(versions))]}
	}
	return out
}

// Property: New agrees with the map-based reference model on every reading —
// the error text, the canonical text, the digest, the component list, each
// class lookup (an undefined class included), the size, equality and the
// printed form.
func TestPropNewMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var prev Configuration
	var prevRef refConfig
	for i := 0; i < 5000; i++ {
		comps := randomComponents(rng)
		if i%7 == 0 {
			// The same content listed in another order: Equal must hold.
			comps = prev.Components()
			slices.Reverse(comps)
		}
		cfg, err := New(comps...)
		ref, refErr := refNew(comps)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("New(%v): error %v, model %v", comps, err, refErr)
		}
		if err != nil {
			continue
		}
		if got, want := cfg.Canonical(), ref.canonical(); got != want {
			t.Fatalf("New(%v): Canonical %q, model %q", comps, got, want)
		}
		if got, want := cfg.Digest(), ref.digest(); got != want {
			t.Fatalf("New(%v): Digest %s, model %s", comps, got, want)
		}
		if got, want := cfg.Components(), ref.components(); !slices.Equal(got, want) {
			t.Fatalf("New(%v): Components %v, model %v", comps, got, want)
		}
		for _, class := range append(Classes(), Class(200)) {
			c, ok := cfg.Component(class)
			rc, rok := ref[class]
			if c != rc || ok != rok {
				t.Fatalf("New(%v): Component(%s) = %v %v, model %v %v", comps, class, c, ok, rc, rok)
			}
		}
		if cfg.Len() != len(ref) {
			t.Fatalf("New(%v): Len %d, model %d", comps, cfg.Len(), len(ref))
		}
		if _, th := ref[ClassTrustedHardware]; cfg.HasTrustedHardware() != th {
			t.Fatalf("New(%v): HasTrustedHardware %v, model %v", comps, !th, th)
		}
		if got, want := cfg.Equal(prev), ref.canonical() == prevRef.canonical(); got != want || prev.Equal(cfg) != want {
			t.Fatalf("New(%v).Equal(%s) = %v, model %v", comps, prev, got, want)
		}
		if !cfg.Equal(cfg) {
			t.Fatalf("New(%v) not Equal to itself", comps)
		}
		if got, want := cfg.String(), ref.String(); got != want {
			t.Fatalf("New(%v): String %q, model %q", comps, got, want)
		}
		prev, prevRef = cfg, ref
	}
}
