package ledger

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cryptoutil"
)

func genesis() *Block {
	return NewBlock(cryptoutil.ZeroDigest, 0, "genesis", 0, nil)
}

func mkTx(i int) Tx {
	return Tx{From: "alice", To: "bob", Amount: uint64(i), Nonce: uint64(i)}
}

func TestTxDigestDistinct(t *testing.T) {
	a, b := mkTx(1), mkTx(2)
	if string(a.Encode()) == string(b.Encode()) {
		t.Fatal("distinct txs share a digest")
	}
	if string(a.Encode()) != string(mkTx(1).Encode()) {
		t.Fatal("digest not deterministic")
	}
}

func TestComputeTxRoot(t *testing.T) {
	if ComputeTxRoot(nil) != cryptoutil.ZeroDigest {
		t.Fatal("empty body root not zero")
	}
	r1 := ComputeTxRoot([]Tx{mkTx(1), mkTx(2)})
	r2 := ComputeTxRoot([]Tx{mkTx(2), mkTx(1)})
	if r1 == r2 {
		t.Fatal("root insensitive to order")
	}
}

func TestBlockValidateBody(t *testing.T) {
	b := NewBlock(cryptoutil.ZeroDigest, 1, "p", 0, []Tx{mkTx(1)})
	if err := b.ValidateBody(); err != nil {
		t.Fatal(err)
	}
	b.Txs = append(b.Txs, mkTx(2)) // tamper with body
	if err := b.ValidateBody(); err == nil {
		t.Fatal("tampered body accepted")
	}
}

func TestBlockDigestSensitivity(t *testing.T) {
	g := genesis()
	a := NewBlock(g.Digest(), 1, "p", time.Second, nil)
	b := NewBlock(g.Digest(), 1, "q", time.Second, nil) // different proposer
	if a.Digest() == b.Digest() {
		t.Fatal("proposer not covered by digest")
	}
	c := NewBlock(g.Digest(), 1, "p", 2*time.Second, nil) // different time
	if a.Digest() == c.Digest() {
		t.Fatal("time not covered by digest")
	}
}

func TestNewChainValidation(t *testing.T) {
	if _, err := NewChain(nil); err == nil {
		t.Fatal("nil genesis accepted")
	}
	bad := genesis()
	bad.Header.TxRoot = cryptoutil.Hash([]byte("bogus"))
	if _, err := NewChain(bad); err == nil {
		t.Fatal("invalid genesis body accepted")
	}
}

func TestChainAppendLinear(t *testing.T) {
	g := genesis()
	c, err := NewChain(g)
	if err != nil {
		t.Fatal(err)
	}
	b1 := NewBlock(g.Digest(), 1, "p", time.Second, []Tx{mkTx(1)})
	if err := c.Append(b1); err != nil {
		t.Fatal(err)
	}
	if c.Tip() != b1.Digest() {
		t.Fatal("tip not advanced")
	}
	if c.TipBlock().Header.Height != 1 {
		t.Fatal("tip block wrong")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	got, err := c.Get(b1.Digest())
	if err != nil || got != b1 {
		t.Fatalf("Get: %v", err)
	}
}

func TestChainAppendErrors(t *testing.T) {
	g := genesis()
	c, _ := NewChain(g)
	if err := c.Append(nil); err == nil {
		t.Fatal("nil block accepted")
	}
	orphan := NewBlock(cryptoutil.Hash([]byte("nowhere")), 1, "p", 0, nil)
	if err := c.Append(orphan); !errors.Is(err, ErrUnknownParent) {
		t.Fatalf("orphan err = %v", err)
	}
	wrongHeight := NewBlock(g.Digest(), 5, "p", 0, nil)
	if err := c.Append(wrongHeight); !errors.Is(err, ErrBadHeight) {
		t.Fatalf("height err = %v", err)
	}
	b1 := NewBlock(g.Digest(), 1, "p", 0, nil)
	if err := c.Append(b1); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(b1); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup err = %v", err)
	}
	tampered := NewBlock(g.Digest(), 1, "q", 0, []Tx{mkTx(1)})
	tampered.Txs = nil // body no longer matches root
	if err := c.Append(tampered); err == nil {
		t.Fatal("tampered body accepted")
	}
	if _, err := c.Get(cryptoutil.Hash([]byte("missing"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get missing err = %v", err)
	}
}

func TestForkChoiceLongestChain(t *testing.T) {
	g := genesis()
	c, _ := NewChain(g)
	// Two competing height-1 blocks: first seen keeps the tip.
	a1 := NewBlock(g.Digest(), 1, "a", 1, nil)
	b1 := NewBlock(g.Digest(), 1, "b", 2, nil)
	c.Append(a1)
	c.Append(b1)
	if c.Tip() != a1.Digest() {
		t.Fatal("equal-height fork displaced first-seen tip")
	}
	// Extending the b-fork to height 2 reorgs.
	b2 := NewBlock(b1.Digest(), 2, "b", 3, nil)
	c.Append(b2)
	if c.Tip() != b2.Digest() {
		t.Fatal("longer fork did not win")
	}
}

func TestPathFromGenesis(t *testing.T) {
	g := genesis()
	c, _ := NewChain(g)
	prev := g
	var blocks []*Block
	for h := uint64(1); h <= 5; h++ {
		b := NewBlock(prev.Digest(), h, "p", time.Duration(h), nil)
		if err := c.Append(b); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		prev = b
	}
	path, err := c.PathFromGenesis(c.Tip())
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 6 || path[0] != g.Digest() || path[5] != c.Tip() {
		t.Fatalf("path = %v", path)
	}
	for i, b := range blocks {
		if path[i+1] != b.Digest() {
			t.Fatalf("path[%d] is not the block at height %d", i+1, i+1)
		}
	}
	if _, err := c.PathFromGenesis(cryptoutil.Hash([]byte("missing"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("path to an unknown block: err = %v", err)
	}
}

// Property: any sequence of appends preserves the invariant that the tip is
// a stored block of maximal height.
func TestPropTipMaximalHeight(t *testing.T) {
	f := func(choices []bool) bool {
		g := genesis()
		c, err := NewChain(g)
		if err != nil {
			return false
		}
		tips := []*Block{g}
		for i, extendTip := range choices {
			var parent *Block
			if extendTip {
				parent = c.TipBlock()
			} else {
				parent = tips[i%len(tips)]
			}
			b := NewBlock(parent.Digest(), parent.Header.Height+1, "p", time.Duration(i), nil)
			if err := c.Append(b); err != nil {
				return false
			}
			tips = append(tips, b)
		}
		best := c.TipBlock().Header.Height
		for _, b := range tips {
			if b.Header.Height > best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
