// Package attest simulates the remote-attestation machinery of Sec. III-B:
// trusted devices (TPM/TEE) measure a replica's configuration and produce
// signed quotes; an attestation authority verifies quotes against trusted
// vendors and revocation state.
//
// Two concerns from the paper's Remark 3 are modelled explicitly:
//
//   - Key binding: a quote covers both the configuration digest and the
//     replica's vote public key, proving that votes signed with that key
//     come from a machine with the attested configuration.
//   - Configuration privacy: a replica may attest a salted commitment to
//     its configuration instead of the digest itself, revealing the actual
//     configuration only to an auditor (otherwise the public registry would
//     hand attackers a target list when new vulnerabilities drop).
//
// What the paper's deployments would realise with Intel SGX, ARM TrustZone,
// TPM 2.0 or Azure Attestation is realised here with ed25519 endorsement
// keys; the protocol surface (measure → quote → verify → bind) is the same.
package attest

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/config"
	"repro/internal/cryptoutil"
)

// Errors returned by quote verification.
var (
	ErrUntrustedVendor = errors.New("attest: device vendor not trusted")
	ErrRevokedDevice   = errors.New("attest: device endorsement key revoked")
	ErrBadSignature    = errors.New("attest: quote signature invalid")
	ErrNonceMismatch   = errors.New("attest: nonce unknown or already used")
	ErrBadOpening      = errors.New("attest: commitment opening does not match")
)

const quoteDomain = "repro/attest/quote/v1"

// Device is a simulated trusted component (TPM or TEE) with a vendor
// identity and an endorsement key pair. In production the endorsement key
// would be fused at manufacture; here it is derived deterministically from
// (vendor, serial) so simulations are replayable.
type Device struct {
	Vendor string
	Serial uint64
	ek     cryptoutil.KeyPair
}

// NewDevice manufactures a device of the given vendor (which should match a
// config.ClassTrustedHardware component name, e.g. "tpm2" or "intel-sgx").
func NewDevice(vendor string, serial uint64) (*Device, error) {
	if vendor == "" {
		return nil, errors.New("attest: empty vendor")
	}
	return &Device{
		Vendor: vendor,
		Serial: serial,
		ek:     cryptoutil.DeriveKeyPair("attest/"+vendor, serial),
	}, nil
}

// PublicKey returns the device's endorsement public key.
func (d *Device) PublicKey() ed25519.PublicKey { return d.ek.Public }

// Quote is a signed attestation statement binding a measured configuration
// (or a commitment to one) and a vote public key to a fresh nonce.
type Quote struct {
	Vendor        string
	DevicePublic  ed25519.PublicKey
	Measurement   cryptoutil.Digest // config digest, or commitment in private mode
	Committed     bool              // true when Measurement is a salted commitment
	VotePublicKey ed25519.PublicKey
	Nonce         uint64
	Signature     []byte
}

func quoteMessage(q *Quote) []byte {
	var buf bytes.Buffer
	buf.WriteString(quoteDomain)
	buf.WriteString(q.Vendor)
	buf.Write(q.DevicePublic)
	buf.Write(q.Measurement[:])
	if q.Committed {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	buf.Write(q.VotePublicKey)
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], q.Nonce)
	buf.Write(nb[:])
	return buf.Bytes()
}

// QuoteConfig produces a quote over the plain configuration digest.
func (d *Device) QuoteConfig(cfg config.Configuration, votePub ed25519.PublicKey, nonce uint64) (Quote, error) {
	if len(votePub) != ed25519.PublicKeySize {
		return Quote{}, fmt.Errorf("attest: vote key size %d", len(votePub))
	}
	q := Quote{
		Vendor:        d.Vendor,
		DevicePublic:  d.ek.Public,
		Measurement:   cfg.Digest(),
		VotePublicKey: votePub,
		Nonce:         nonce,
	}
	q.Signature = d.ek.Sign(quoteMessage(&q))
	return q, nil
}

// Commitment computes the salted configuration commitment used in private
// mode: H(domain || config digest || salt).
func Commitment(cfg config.Configuration, salt []byte) cryptoutil.Digest {
	digest := cfg.Digest()
	return cryptoutil.Hash([]byte("repro/attest/commit/v1"), digest[:], salt)
}

// QuoteCommitted produces a privacy-preserving quote: the measurement is a
// salted commitment to the configuration. The replica keeps salt secret and
// opens the commitment only to auditors (see VerifyOpening).
func (d *Device) QuoteCommitted(cfg config.Configuration, salt []byte, votePub ed25519.PublicKey, nonce uint64) (Quote, error) {
	if len(salt) == 0 {
		return Quote{}, errors.New("attest: empty salt defeats commitment hiding")
	}
	if len(votePub) != ed25519.PublicKeySize {
		return Quote{}, fmt.Errorf("attest: vote key size %d", len(votePub))
	}
	q := Quote{
		Vendor:        d.Vendor,
		DevicePublic:  d.ek.Public,
		Measurement:   Commitment(cfg, salt),
		Committed:     true,
		VotePublicKey: votePub,
		Nonce:         nonce,
	}
	q.Signature = d.ek.Sign(quoteMessage(&q))
	return q, nil
}

// VerifyOpening checks a commitment opening: that the quote's committed
// measurement is the commitment to cfg under salt.
func VerifyOpening(q Quote, cfg config.Configuration, salt []byte) error {
	if !q.Committed {
		return errors.New("attest: quote is not in committed mode")
	}
	if Commitment(cfg, salt) != q.Measurement {
		return ErrBadOpening
	}
	return nil
}

// Authority verifies quotes. It trusts a set of vendors, tracks revoked
// endorsement keys (compromised devices), and issues single-use nonces to
// prevent quote replay.
type Authority struct {
	trusted   map[string]bool
	revoked   map[string]bool // hex of endorsement public key
	nonces    map[uint64]bool // outstanding (unused) nonces
	nextNonce uint64
}

// NewAuthority returns an authority trusting the given vendors.
func NewAuthority(vendors ...string) *Authority {
	a := &Authority{
		trusted: make(map[string]bool, len(vendors)),
		revoked: make(map[string]bool),
		nonces:  make(map[uint64]bool),
	}
	for _, v := range vendors {
		a.trusted[v] = true
	}
	return a
}

// Revoke marks a device endorsement key as compromised; subsequent quotes
// from it fail verification. This models the paper's concern that trusted
// hardware itself is attackable (Remark 2, SGX.Fail).
func (a *Authority) Revoke(devicePub ed25519.PublicKey) {
	a.revoked[string(devicePub)] = true
}

// IssueNonce returns a fresh single-use nonce for a challenger-verifier
// exchange.
func (a *Authority) IssueNonce() uint64 {
	a.nextNonce++
	a.nonces[a.nextNonce] = true
	return a.nextNonce
}

// Verify checks a quote end-to-end: vendor trust, revocation, nonce
// freshness (consuming the nonce), and signature validity. On success the
// caller may trust that VotePublicKey belongs to a replica whose
// configuration measurement is Quote.Measurement.
func (a *Authority) Verify(q Quote) error {
	if !a.trusted[q.Vendor] {
		return fmt.Errorf("%w: %s", ErrUntrustedVendor, q.Vendor)
	}
	if a.revoked[string(q.DevicePublic)] {
		return ErrRevokedDevice
	}
	if !a.nonces[q.Nonce] {
		return ErrNonceMismatch
	}
	if !cryptoutil.Verify(q.DevicePublic, quoteMessage(&q), q.Signature) {
		return ErrBadSignature
	}
	delete(a.nonces, q.Nonce) // consume only after full success
	return nil
}

// VerifyVoteBinding checks that a protocol vote signature was produced by
// the key bound in an (already verified) quote — the Remark 3 property that
// "a vote indeed comes from a replica with the attested configuration".
func VerifyVoteBinding(q Quote, voteMsg, voteSig []byte) error {
	if !cryptoutil.Verify(q.VotePublicKey, voteMsg, voteSig) {
		return ErrBadSignature
	}
	return nil
}
