package cryptoutil

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

func TestHashDeterministic(t *testing.T) {
	a := Hash([]byte("hello"), []byte("world"))
	b := Hash([]byte("hello"), []byte("world"))
	if a != b {
		t.Fatal("same input hashed differently")
	}
}

func TestHashFramingUnambiguous(t *testing.T) {
	// Without length-prefixing these two would collide.
	a := Hash([]byte("ab"), []byte("c"))
	b := Hash([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("framing ambiguity: Hash(ab,c) == Hash(a,bc)")
	}
}

// streamHash is Hash's definition, written out as a stream: each part's
// big-endian length, then the part, through one sha256.
func streamHash(parts ...[]byte) Digest {
	h := sha256.New()
	for _, p := range parts {
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(len(p))))
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// TestHashMatchesStream: Hash equals the framing written out part by part,
// at totals from empty to 4 KiB, whether the total counts the length
// prefixes (framed) or only the parts (payload), with an empty part in
// every list of two or more.
func TestHashMatchesStream(t *testing.T) {
	for _, total := range []int{0, 255, 256, 257, 4096} {
		for nparts := 0; nparts <= 4; nparts++ {
			for _, framed := range []bool{false, true} {
				payload := total
				if framed {
					payload -= 8 * nparts
				}
				if payload < 0 || (nparts == 0 && payload > 0) {
					continue
				}
				parts := make([][]byte, nparts)
				for i := range parts {
					if i == 1 {
						continue // the empty part
					}
					n := payload
					if i+1 < nparts {
						n = payload / 2
					}
					parts[i] = bytes.Repeat([]byte{byte(total + i)}, n)
					payload -= n
				}
				if got, want := Hash(parts...), streamHash(parts...); got != want {
					t.Errorf("total %d, %d parts, framed %v: Hash %s, stream %s", total, nparts, framed, got, want)
				}
			}
		}
	}
}

// TestHashAllocations: an input of up to 256 framed bytes, the size of a
// configuration's digest input, allocates nothing.
func TestHashAllocations(t *testing.T) {
	domain, small, fill := []byte("repro/config/v1"), make([]byte, 100), make([]byte, 256-2*8-15)
	var sink Digest
	for name, parts := range map[string][][]byte{
		"none":           nil,
		"one empty":      {nil},
		"two parts":      {domain, small},
		"256 bytes":      {domain, fill},
		"three, 1 empty": {domain, nil, small},
	} {
		if n := testing.AllocsPerRun(100, func() { sink = Hash(parts...) }); n != 0 {
			t.Errorf("%s: %v objects, want 0", name, n)
		}
	}
	_ = sink
}

func TestDigestHelpers(t *testing.T) {
	if !ZeroDigest.IsZero() {
		t.Fatal("ZeroDigest.IsZero() = false")
	}
	d := Hash([]byte("x"))
	if d.IsZero() {
		t.Fatal("nonzero digest reported zero")
	}
	if len(d.String()) != 64 {
		t.Fatalf("String length = %d, want 64", len(d.String()))
	}
	if len(d.Short()) != 8 {
		t.Fatalf("Short length = %d, want 8", len(d.Short()))
	}
	if d.String() != hex.EncodeToString(d[:]) || d.Short() != hex.EncodeToString(d[:4]) {
		t.Fatalf("String %s / Short %s are not the digest's hex", d, d.Short())
	}
}

func TestDeriveKeyPairDeterministic(t *testing.T) {
	a := DeriveKeyPair("replica", 7)
	b := DeriveKeyPair("replica", 7)
	if !bytes.Equal(a.Public, b.Public) {
		t.Fatal("same (domain,index) produced different keys")
	}
	c := DeriveKeyPair("replica", 8)
	if bytes.Equal(a.Public, c.Public) {
		t.Fatal("different index produced same key")
	}
	d := DeriveKeyPair("miner", 7)
	if bytes.Equal(a.Public, d.Public) {
		t.Fatal("different domain produced same key")
	}
}

func TestSignVerify(t *testing.T) {
	kp := DeriveKeyPair("test", 1)
	msg := []byte("vote for block 42")
	sig := kp.Sign(msg)
	if !Verify(kp.Public, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(kp.Public, []byte("vote for block 43"), sig) {
		t.Fatal("signature accepted for wrong message")
	}
	other := DeriveKeyPair("test", 2)
	if Verify(other.Public, msg, sig) {
		t.Fatal("signature accepted under wrong key")
	}
}

func TestVerifyMalformedInputs(t *testing.T) {
	kp := DeriveKeyPair("test", 1)
	if Verify(nil, []byte("m"), []byte("sig")) {
		t.Fatal("nil key accepted")
	}
	if Verify(kp.Public, []byte("m"), nil) {
		t.Fatal("nil signature accepted")
	}
	if Verify(kp.Public[:16], []byte("m"), kp.Sign([]byte("m"))) {
		t.Fatal("truncated key accepted")
	}
}

func TestMerkleRootEmpty(t *testing.T) {
	if _, err := MerkleRoot(nil); err != ErrEmptyTree {
		t.Fatalf("err = %v, want ErrEmptyTree", err)
	}
}

func TestMerkleRootSingleLeaf(t *testing.T) {
	root, err := MerkleRoot([][]byte{[]byte("only")})
	if err != nil {
		t.Fatal(err)
	}
	if root != Hash([]byte{0x00}, []byte("only")) {
		t.Fatal("single-leaf root is not the leaf hash")
	}
}

func TestMerkleRootOrderSensitive(t *testing.T) {
	a, _ := MerkleRoot([][]byte{[]byte("1"), []byte("2")})
	b, _ := MerkleRoot([][]byte{[]byte("2"), []byte("1")})
	if a == b {
		t.Fatal("root insensitive to leaf order")
	}
}

// An odd node is promoted unpaired, not duplicated: over three leaves the
// third leaf's hash meets the first pair's node directly.
func TestMerkleRootPromotesOddNode(t *testing.T) {
	leaves := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	root, err := MerkleRoot(leaves)
	if err != nil {
		t.Fatal(err)
	}
	h := func(leaf []byte) Digest { return Hash([]byte{0x00}, leaf) }
	ha, hb, hc := h(leaves[0]), h(leaves[1]), h(leaves[2])
	ab := Hash([]byte{0x01}, ha[:], hb[:])
	if want := Hash([]byte{0x01}, ab[:], hc[:]); root != want {
		t.Fatalf("root %x, want %x", root, want)
	}
}

func TestMerkleDomainSeparation(t *testing.T) {
	// An interior node value must not be forgeable as a leaf.
	leaves := [][]byte{[]byte("a"), []byte("b")}
	root, _ := MerkleRoot(leaves)
	forged, _ := MerkleRoot([][]byte{root[:]})
	if forged == root {
		t.Fatal("interior node reusable as leaf")
	}
}
