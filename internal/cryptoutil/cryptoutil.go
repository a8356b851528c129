// Package cryptoutil provides the cryptographic substrate used throughout
// the repository: ed25519 key management with deterministic derivation,
// SHA-256 digests, and Merkle trees for block bodies.
//
// The paper assumes "the security of the used cryptographic primitives and
// protocols, but not their implementations" (Sec. II-B). Accordingly this
// package models primitives as sound, while internal/vuln models *library
// implementations* (e.g. a flawed crypto library version) as a component
// class that a vulnerability can target.
package cryptoutil

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
)

// DigestSize is the size of a Digest in bytes.
const DigestSize = sha256.Size

// Digest is a SHA-256 hash value.
type Digest [DigestSize]byte

// ZeroDigest is the all-zero digest, used as the parent of genesis blocks.
var ZeroDigest Digest

// Hash returns the SHA-256 digest of the given byte slices, each preceded by
// its length as a big-endian uint64, so distinct part lists never frame to
// the same bytes.
func Hash(parts ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// String returns the hex encoding of the digest.
func (d Digest) String() string {
	var buf [2 * DigestSize]byte
	return string(hex.AppendEncode(buf[:0], d[:]))
}

// Short returns the first 8 hex characters, for logs and tables.
func (d Digest) Short() string {
	var buf [8]byte
	return string(hex.AppendEncode(buf[:0], d[:4]))
}

// IsZero reports whether the digest is all zeroes.
func (d Digest) IsZero() bool { return d == ZeroDigest }

// KeyPair is an ed25519 signing key pair.
type KeyPair struct {
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// DeriveKeyPair deterministically derives a key pair from a domain label and
// an index. Distinct (domain, index) pairs yield independent keys; the same
// pair always yields the same key, which keeps simulations replayable.
func DeriveKeyPair(domain string, index uint64) KeyPair {
	var idx [8]byte
	binary.BigEndian.PutUint64(idx[:], index)
	seed := Hash([]byte("repro/keyseed/v1"), []byte(domain), idx[:])
	priv := ed25519.NewKeyFromSeed(seed[:ed25519.SeedSize])
	return KeyPair{Public: priv.Public().(ed25519.PublicKey), private: priv}
}

// Sign signs msg with the private key.
func (k KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.private, msg)
}

// Verify reports whether sig is a valid signature on msg under pub.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(pub, msg, sig)
}

// ErrEmptyTree is returned when building a Merkle tree over zero leaves.
var ErrEmptyTree = errors.New("cryptoutil: merkle tree over zero leaves")

// MerkleRoot computes the root of a Merkle tree over the given leaves.
// Leaves are hashed with a 0x00 domain-separation prefix and interior nodes
// with 0x01, preventing second-preimage splices between levels. An odd node
// at any level is promoted unpaired (Bitcoin-style duplication is avoided
// because duplication admits CVE-2012-2459-style mutations).
func MerkleRoot(leaves [][]byte) (Digest, error) {
	if len(leaves) == 0 {
		return ZeroDigest, ErrEmptyTree
	}
	level := make([]Digest, len(leaves))
	for i, leaf := range leaves {
		level[i] = Hash([]byte{0x00}, leaf)
	}
	for len(level) > 1 {
		next := make([]Digest, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			next = append(next, Hash([]byte{0x01}, level[i][:], level[i+1][:]))
		}
		level = next
	}
	return level[0], nil
}

// MerkleProof is an inclusion proof for one leaf.
type MerkleProof struct {
	Index    int      // leaf position
	Siblings []Digest // bottom-up sibling hashes
	// Rights[i] reports whether Siblings[i] is the right-hand child at
	// level i (i.e. the proven path is the left child there).
	Rights []bool
}

// BuildMerkleProof returns an inclusion proof for leaves[index].
func BuildMerkleProof(leaves [][]byte, index int) (MerkleProof, error) {
	if len(leaves) == 0 {
		return MerkleProof{}, ErrEmptyTree
	}
	if index < 0 || index >= len(leaves) {
		return MerkleProof{}, fmt.Errorf("cryptoutil: proof index %d out of range [0,%d)", index, len(leaves))
	}
	level := make([]Digest, len(leaves))
	for i, leaf := range leaves {
		level[i] = Hash([]byte{0x00}, leaf)
	}
	proof := MerkleProof{Index: index}
	pos := index
	for len(level) > 1 {
		next := make([]Digest, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			next = append(next, Hash([]byte{0x01}, level[i][:], level[i+1][:]))
		}
		sib := pos ^ 1
		if sib < len(level) {
			proof.Siblings = append(proof.Siblings, level[sib])
			proof.Rights = append(proof.Rights, sib > pos)
		}
		pos /= 2
		level = next
	}
	return proof, nil
}

// VerifyMerkleProof reports whether proof demonstrates that leaf is included
// under root.
func VerifyMerkleProof(root Digest, leaf []byte, proof MerkleProof) bool {
	if len(proof.Siblings) != len(proof.Rights) {
		return false
	}
	cur := Hash([]byte{0x00}, leaf)
	for i, sib := range proof.Siblings {
		if proof.Rights[i] {
			cur = Hash([]byte{0x01}, cur[:], sib[:])
		} else {
			cur = Hash([]byte{0x01}, sib[:], cur[:])
		}
	}
	return cur == root
}
