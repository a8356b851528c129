// Package ledger provides the blockchain data structures shared by the
// consensus substrates: transactions, Merkle-rooted blocks and a
// tree-shaped block store with longest-chain selection (for Nakamoto
// forks).
package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/cryptoutil"
)

// Tx is a minimal transaction: a transfer with an anti-replay nonce and an
// opaque payload.
type Tx struct {
	From    string
	To      string
	Amount  uint64
	Nonce   uint64
	Payload []byte
}

// Encode returns the canonical byte encoding of the transaction.
func (tx Tx) Encode() []byte {
	var nums [16]byte
	binary.BigEndian.PutUint64(nums[:8], tx.Amount)
	binary.BigEndian.PutUint64(nums[8:], tx.Nonce)
	d := cryptoutil.Hash([]byte("repro/tx/v1"), []byte(tx.From), []byte(tx.To), nums[:], tx.Payload)
	return d[:]
}

// Header is a block header.
type Header struct {
	Parent   cryptoutil.Digest
	Height   uint64
	TxRoot   cryptoutil.Digest // Merkle root over transaction encodings
	Proposer string            // replica/miner identity
	Time     time.Duration     // virtual timestamp
}

// Block is a header plus its transaction body.
type Block struct {
	Header Header
	Txs    []Tx
}

// ComputeTxRoot returns the Merkle root over the transactions; the empty
// body has the zero root by convention.
func ComputeTxRoot(txs []Tx) cryptoutil.Digest {
	if len(txs) == 0 {
		return cryptoutil.ZeroDigest
	}
	leaves := make([][]byte, len(txs))
	for i, tx := range txs {
		leaves[i] = tx.Encode()
	}
	root, err := cryptoutil.MerkleRoot(leaves)
	if err != nil {
		// Unreachable: len(txs) > 0.
		panic(err)
	}
	return root
}

// NewBlock assembles a block with a correct TxRoot.
func NewBlock(parent cryptoutil.Digest, height uint64, proposer string, at time.Duration, txs []Tx) *Block {
	return &Block{
		Header: Header{
			Parent:   parent,
			Height:   height,
			TxRoot:   ComputeTxRoot(txs),
			Proposer: proposer,
			Time:     at,
		},
		Txs: txs,
	}
}

// Digest returns the block id (hash of the header).
func (b *Block) Digest() cryptoutil.Digest {
	var nums [16]byte
	binary.BigEndian.PutUint64(nums[:8], b.Header.Height)
	binary.BigEndian.PutUint64(nums[8:], uint64(b.Header.Time))
	return cryptoutil.Hash([]byte("repro/block/v1"),
		b.Header.Parent[:], b.Header.TxRoot[:], []byte(b.Header.Proposer), nums[:])
}

// ValidateBody checks the header's TxRoot commits to the body.
func (b *Block) ValidateBody() error {
	if got := ComputeTxRoot(b.Txs); got != b.Header.TxRoot {
		return fmt.Errorf("ledger: tx root mismatch: header %s, body %s", b.Header.TxRoot.Short(), got.Short())
	}
	return nil
}

// Errors returned by the chain store.
var (
	ErrUnknownParent = errors.New("ledger: unknown parent block")
	ErrDuplicate     = errors.New("ledger: duplicate block")
	ErrBadHeight     = errors.New("ledger: height is not parent height + 1")
	ErrNotFound      = errors.New("ledger: block not found")
)

// Chain is a block tree rooted at a genesis block, with longest-chain tip
// selection (height, then earliest-received as tie-breaker — the Nakamoto
// "first seen" rule). BFT uses it as a linear chain by only ever extending
// the tip.
type Chain struct {
	genesis  cryptoutil.Digest
	blocks   map[cryptoutil.Digest]*Block
	order    map[cryptoutil.Digest]int // arrival order for tie-breaks
	children map[cryptoutil.Digest][]cryptoutil.Digest
	tip      cryptoutil.Digest
	arrivals int
}

// NewChain creates a chain containing only the given genesis block.
func NewChain(genesis *Block) (*Chain, error) {
	if genesis == nil {
		return nil, errors.New("ledger: nil genesis")
	}
	if err := genesis.ValidateBody(); err != nil {
		return nil, err
	}
	id := genesis.Digest()
	return &Chain{
		genesis:  id,
		blocks:   map[cryptoutil.Digest]*Block{id: genesis},
		order:    map[cryptoutil.Digest]int{id: 0},
		children: make(map[cryptoutil.Digest][]cryptoutil.Digest),
		tip:      id,
	}, nil
}

// Tip returns the current best tip id.
func (c *Chain) Tip() cryptoutil.Digest { return c.tip }

// TipBlock returns the current best tip block.
func (c *Chain) TipBlock() *Block { return c.blocks[c.tip] }

// Len reports the number of stored blocks (across all forks).
func (c *Chain) Len() int { return len(c.blocks) }

// Get returns a stored block.
func (c *Chain) Get(id cryptoutil.Digest) (*Block, error) {
	b, ok := c.blocks[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id.Short())
	}
	return b, nil
}

// Append validates and stores a block, updating the tip under the
// longest-chain rule (strictly greater height wins; equal height keeps the
// first-seen tip).
func (c *Chain) Append(b *Block) error {
	if b == nil {
		return errors.New("ledger: nil block")
	}
	id := b.Digest()
	if _, dup := c.blocks[id]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, id.Short())
	}
	parent, ok := c.blocks[b.Header.Parent]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownParent, b.Header.Parent.Short())
	}
	if b.Header.Height != parent.Header.Height+1 {
		return fmt.Errorf("%w: parent %d, block %d", ErrBadHeight, parent.Header.Height, b.Header.Height)
	}
	if err := b.ValidateBody(); err != nil {
		return err
	}
	c.arrivals++
	c.blocks[id] = b
	c.order[id] = c.arrivals
	c.children[b.Header.Parent] = append(c.children[b.Header.Parent], id)
	if b.Header.Height > c.blocks[c.tip].Header.Height {
		c.tip = id
	}
	return nil
}

// PathFromGenesis returns the block ids from genesis to the given block,
// inclusive.
func (c *Chain) PathFromGenesis(id cryptoutil.Digest) ([]cryptoutil.Digest, error) {
	var rev []cryptoutil.Digest
	cur := id
	for {
		b, ok := c.blocks[cur]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, cur.Short())
		}
		rev = append(rev, cur)
		if cur == c.genesis {
			break
		}
		cur = b.Header.Parent
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}
