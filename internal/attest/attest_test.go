package attest

import (
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/cryptoutil"
)

func testConfig(t *testing.T) config.Configuration {
	t.Helper()
	return config.MustNew(
		config.Component{Class: config.ClassTrustedHardware, Name: "tpm2", Version: "01.59"},
		config.Component{Class: config.ClassOperatingSystem, Name: "debian", Version: "12"},
		config.Component{Class: config.ClassConsensusModule, Name: "tendermint", Version: "0.37"},
	)
}

func TestNewDeviceValidation(t *testing.T) {
	if _, err := NewDevice("", 1); err == nil {
		t.Fatal("empty vendor accepted")
	}
}

func TestDeviceDeterministic(t *testing.T) {
	a, _ := NewDevice("tpm2", 7)
	b, _ := NewDevice("tpm2", 7)
	if string(a.PublicKey()) != string(b.PublicKey()) {
		t.Fatal("same device derived different keys")
	}
	c, _ := NewDevice("tpm2", 8)
	if string(a.PublicKey()) == string(c.PublicKey()) {
		t.Fatal("different serials share a key")
	}
}

func TestQuoteVerifyRoundTrip(t *testing.T) {
	dev, _ := NewDevice("tpm2", 1)
	auth := NewAuthority("tpm2")
	vote := cryptoutil.DeriveKeyPair("vote", 1)
	nonce := auth.IssueNonce()
	q, err := dev.QuoteConfig(testConfig(t), vote.Public, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := auth.Verify(q); err != nil {
		t.Fatalf("valid quote rejected: %v", err)
	}
	if q.Measurement != testConfig(t).Digest() {
		t.Fatal("measurement is not the config digest")
	}
}

func TestQuoteNonceSingleUse(t *testing.T) {
	dev, _ := NewDevice("tpm2", 1)
	auth := NewAuthority("tpm2")
	vote := cryptoutil.DeriveKeyPair("vote", 1)
	nonce := auth.IssueNonce()
	q, _ := dev.QuoteConfig(testConfig(t), vote.Public, nonce)
	if err := auth.Verify(q); err != nil {
		t.Fatal(err)
	}
	if err := auth.Verify(q); !errors.Is(err, ErrNonceMismatch) {
		t.Fatalf("replay err = %v, want ErrNonceMismatch", err)
	}
}

func TestQuoteUnknownNonce(t *testing.T) {
	dev, _ := NewDevice("tpm2", 1)
	auth := NewAuthority("tpm2")
	vote := cryptoutil.DeriveKeyPair("vote", 1)
	q, _ := dev.QuoteConfig(testConfig(t), vote.Public, 424242)
	if err := auth.Verify(q); !errors.Is(err, ErrNonceMismatch) {
		t.Fatalf("err = %v, want ErrNonceMismatch", err)
	}
}

func TestQuoteUntrustedVendor(t *testing.T) {
	dev, _ := NewDevice("shady-tee", 1)
	auth := NewAuthority("tpm2")
	vote := cryptoutil.DeriveKeyPair("vote", 1)
	q, _ := dev.QuoteConfig(testConfig(t), vote.Public, auth.IssueNonce())
	if err := auth.Verify(q); !errors.Is(err, ErrUntrustedVendor) {
		t.Fatalf("err = %v, want ErrUntrustedVendor", err)
	}
	trusting := NewAuthority("tpm2", "shady-tee")
	q2, _ := dev.QuoteConfig(testConfig(t), vote.Public, trusting.IssueNonce())
	if err := trusting.Verify(q2); err != nil {
		t.Fatalf("vendor in the trust set: %v", err)
	}
}

func TestQuoteRevokedDevice(t *testing.T) {
	dev, _ := NewDevice("tpm2", 1)
	auth := NewAuthority("tpm2")
	auth.Revoke(dev.PublicKey())
	vote := cryptoutil.DeriveKeyPair("vote", 1)
	q, _ := dev.QuoteConfig(testConfig(t), vote.Public, auth.IssueNonce())
	if err := auth.Verify(q); !errors.Is(err, ErrRevokedDevice) {
		t.Fatalf("err = %v, want ErrRevokedDevice", err)
	}
}

func TestQuoteTamperingDetected(t *testing.T) {
	dev, _ := NewDevice("tpm2", 1)
	auth := NewAuthority("tpm2")
	vote := cryptoutil.DeriveKeyPair("vote", 1)
	evil := cryptoutil.DeriveKeyPair("vote", 666)

	tamper := []struct {
		name string
		mut  func(*Quote)
	}{
		{"measurement", func(q *Quote) { q.Measurement[0] ^= 1 }},
		{"vote key swap", func(q *Quote) { q.VotePublicKey = evil.Public }},
		{"nonce", func(q *Quote) { q.Nonce++ }},
		{"committed flag", func(q *Quote) { q.Committed = true }},
		{"signature", func(q *Quote) { q.Signature[0] ^= 1 }},
	}
	for _, tc := range tamper {
		nonce := auth.IssueNonce()
		q, _ := dev.QuoteConfig(testConfig(t), vote.Public, nonce)
		tc.mut(&q)
		if q.Nonce != nonce {
			// Nonce tampering also needs the new nonce to exist to reach
			// the signature check.
			auth.nonces[q.Nonce] = true
		}
		err := auth.Verify(q)
		if !errors.Is(err, ErrBadSignature) {
			t.Errorf("%s: err = %v, want ErrBadSignature", tc.name, err)
		}
		// A failed verification must not consume the nonce.
		if q.Nonce == nonce && !auth.nonces[nonce] {
			t.Errorf("%s: nonce consumed by failed verification", tc.name)
		}
	}
}

func TestQuoteVoteKeySize(t *testing.T) {
	dev, _ := NewDevice("tpm2", 1)
	if _, err := dev.QuoteConfig(testConfig(t), []byte("short"), 1); err == nil {
		t.Fatal("short vote key accepted")
	}
	if _, err := dev.QuoteCommitted(testConfig(t), []byte("salt"), []byte("short"), 1); err == nil {
		t.Fatal("short vote key accepted (committed)")
	}
}

func TestCommittedQuotePrivacy(t *testing.T) {
	dev, _ := NewDevice("intel-sgx", 1)
	auth := NewAuthority("intel-sgx")
	vote := cryptoutil.DeriveKeyPair("vote", 2)
	cfg := testConfig(t)
	salt := []byte("high-entropy-salt")
	q, err := dev.QuoteCommitted(cfg, salt, vote.Public, auth.IssueNonce())
	if err != nil {
		t.Fatal(err)
	}
	if err := auth.Verify(q); err != nil {
		t.Fatalf("committed quote rejected: %v", err)
	}
	// The measurement must not leak the config digest.
	if q.Measurement == cfg.Digest() {
		t.Fatal("committed measurement equals plain digest")
	}
	// Opening verifies with the right (cfg, salt) and rejects others.
	if err := VerifyOpening(q, cfg, salt); err != nil {
		t.Fatalf("valid opening rejected: %v", err)
	}
	if err := VerifyOpening(q, cfg, []byte("wrong")); !errors.Is(err, ErrBadOpening) {
		t.Fatalf("wrong salt: err = %v", err)
	}
	other := config.MustNew(config.Component{Class: config.ClassOperatingSystem, Name: "fedora", Version: "38"})
	if err := VerifyOpening(q, other, salt); !errors.Is(err, ErrBadOpening) {
		t.Fatalf("wrong config: err = %v", err)
	}
}

func TestCommittedQuoteRequiresSalt(t *testing.T) {
	dev, _ := NewDevice("intel-sgx", 1)
	vote := cryptoutil.DeriveKeyPair("vote", 2)
	if _, err := dev.QuoteCommitted(testConfig(t), nil, vote.Public, 1); err == nil {
		t.Fatal("empty salt accepted")
	}
}

func TestOpeningOnPlainQuoteRejected(t *testing.T) {
	dev, _ := NewDevice("tpm2", 1)
	vote := cryptoutil.DeriveKeyPair("vote", 1)
	q, _ := dev.QuoteConfig(testConfig(t), vote.Public, 1)
	if err := VerifyOpening(q, testConfig(t), []byte("s")); err == nil {
		t.Fatal("opening accepted on non-committed quote")
	}
}

func TestVerifyVoteBinding(t *testing.T) {
	dev, _ := NewDevice("tpm2", 1)
	auth := NewAuthority("tpm2")
	vote := cryptoutil.DeriveKeyPair("vote", 3)
	q, _ := dev.QuoteConfig(testConfig(t), vote.Public, auth.IssueNonce())
	if err := auth.Verify(q); err != nil {
		t.Fatal(err)
	}
	msg := []byte("PREPARE view=1 seq=9 digest=abc")
	sig := vote.Sign(msg)
	if err := VerifyVoteBinding(q, msg, sig); err != nil {
		t.Fatalf("bound vote rejected: %v", err)
	}
	// A vote from a different key must fail the binding.
	impostor := cryptoutil.DeriveKeyPair("vote", 4)
	if err := VerifyVoteBinding(q, msg, impostor.Sign(msg)); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("impostor vote err = %v", err)
	}
}

func TestCommitmentSaltSensitivity(t *testing.T) {
	cfg := testConfig(t)
	a := Commitment(cfg, []byte("salt-a"))
	b := Commitment(cfg, []byte("salt-b"))
	if a == b {
		t.Fatal("different salts collide")
	}
}

func TestIssueNonceUnique(t *testing.T) {
	auth := NewAuthority()
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		n := auth.IssueNonce()
		if seen[n] {
			t.Fatalf("nonce %d repeated", n)
		}
		seen[n] = true
	}
}

// Fuzz-flavoured property: flipping any single byte of the signed quote
// surface (measurement, vote key, or signature) must fail verification.
func TestPropQuoteBitFlips(t *testing.T) {
	dev, _ := NewDevice("tpm2", 99)
	auth := NewAuthority("tpm2")
	vote := cryptoutil.DeriveKeyPair("fuzz", 0)
	cfg := testConfig(t)
	for trial := 0; trial < 64; trial++ {
		nonce := auth.IssueNonce()
		q, err := dev.QuoteConfig(cfg, vote.Public, nonce)
		if err != nil {
			t.Fatal(err)
		}
		switch trial % 3 {
		case 0:
			q.Measurement[trial%len(q.Measurement)] ^= 1 << (trial % 8)
		case 1:
			mut := append([]byte(nil), q.VotePublicKey...)
			mut[trial%len(mut)] ^= 1 << (trial % 8)
			q.VotePublicKey = mut
		case 2:
			mut := append([]byte(nil), q.Signature...)
			mut[trial%len(mut)] ^= 1 << (trial % 8)
			q.Signature = mut
		}
		if err := auth.Verify(q); err == nil {
			t.Fatalf("trial %d: tampered quote verified", trial)
		}
	}
}
