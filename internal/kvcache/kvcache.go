// Package kvcache implements vLLM-style paged KV cache management: the
// cache is one contiguous device reservation carved into fixed-size
// blocks, each sequence's block table lives in a Seq its caller owns
// (the Manager keeps no per-sequence state and knows no sequence ids),
// and blocks recycle through a free list. Sizing the reservation
// requires knowing the residual free GPU memory after a worst-case
// forwarding — the quantity the paper's §6 materializes to skip
// profiling at cold start.
package kvcache

import (
	"fmt"
)

// TokensPerBlock is the paged-attention block size (vLLM default 16).
const TokensPerBlock = 16

// BlockBytes returns the device size of one block: TokensPerBlock
// token slots of `hidden` elements for both K and V.
func BlockBytes(hidden, elemBytes int) uint64 {
	return uint64(TokensPerBlock) * uint64(hidden) * uint64(elemBytes) * 2
}

// NumBlocksFor returns how many blocks fit in freeBytes.
func NumBlocksFor(freeBytes, blockBytes uint64) int {
	if blockBytes == 0 {
		return 0
	}
	return int(freeBytes / blockBytes)
}

// BlocksForTokens returns the number of blocks needed to hold n tokens.
func BlocksForTokens(n int) int {
	return (n + TokensPerBlock - 1) / TokensPerBlock
}

// OutOfBlocksError reports block exhaustion: how many blocks the
// operation needed, how many were free, and the shortfall
// (Needed − Free) — the quantity a preemption policy must reclaim
// before retrying.
type OutOfBlocksError struct {
	Needed    int
	Free      int
	Shortfall int
}

func (e *OutOfBlocksError) Error() string {
	return fmt.Sprintf("kvcache: sequence needs %d blocks, %d free (short %d)",
		e.Needed, e.Free, e.Shortfall)
}

// Seq is one sequence's KV state: its block table and cached token
// count. The caller owns it and passes it to the Manager by pointer;
// the zero value is a sequence that holds no blocks, and Release
// returns a Seq to that state with its table capacity kept for reuse.
type Seq struct {
	table  []int
	tokens int
	// held counts blocks the sequence holds without naming them (Hold).
	held int
}

// Len returns the sequence's cached token count.
func (q *Seq) Len() int { return q.tokens }

// Table returns the sequence's block table. Callers must not mutate
// it; the Manager reuses its storage after Release.
func (q *Seq) Table() []int { return q.table }

// SizeFor makes q's block table hold a lifetime of tokens tokens
// without growing again: callers that know a sequence's prompt and
// output lengths size it once at admission, instead of letting the
// table grow by append as blocks arrive. A recycled Seq whose kept
// capacity already suffices is left alone, so a steady stream of
// sequences through recycled handles allocates nothing. Size to the
// sequence, not the pool: a pool-sized table per handle wastes bytes.
func (q *Seq) SizeFor(tokens int) {
	if need := BlocksForTokens(tokens); need > cap(q.table) {
		table := make([]int, len(q.table), need)
		copy(table, q.table)
		q.table = table
	}
}

// blocksNeeded computes the additional blocks to extend q by n tokens.
func (q *Seq) blocksNeeded(n int) int {
	return BlocksForTokens(q.tokens+n) - len(q.table)
}

// reservation records one uncommitted Reserve so Rollback can restore
// the manager byte-for-byte: the sequence, the tokens added and the
// number of blocks popped from the free tail.
type reservation struct {
	seq    *Seq
	tokens int
	blocks int
}

// Manager tracks block ownership. It is not safe for concurrent use;
// the engine serializes access like vLLM's scheduler does. The block
// tables live in the callers' Seqs, so the manager itself holds only
// the free list and the open reservation.
//
// The free list is lazy, so a manager costs nothing per block until
// blocks are returned: conceptually it is [numBlocks−1 … fresh] ++
// returned, and every pop, rollback push and release acts on its tail.
// Blocks below fresh have been handed out at least once since the last
// reset; pops take from returned first, then issue fresh and raise it.
type Manager struct {
	numBlocks int
	fresh     int   // blocks [fresh, numBlocks) have never been popped
	returned  []int // blocks pushed back since the last reset, in push order
	pending   []reservation
	held      int // blocks Seqs hold without naming them (Hold)
}

// NewManager creates a manager over numBlocks blocks.
// A fresh manager pops blocks in order 0, 1, 2, ….
func NewManager(numBlocks int) *Manager {
	return &Manager{numBlocks: numBlocks}
}

// NumBlocks returns the total block count.
func (m *Manager) NumBlocks() int { return m.numBlocks }

// NumFreeBlocks returns the free block count.
func (m *Manager) NumFreeBlocks() int { return len(m.returned) + m.numBlocks - m.fresh - m.held }

// needed returns the blocks q needs to grow by n tokens, or an error
// when n is negative or those blocks are not free.
func (m *Manager) needed(q *Seq, n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("kvcache: negative token count %d", n)
	}
	need := q.blocksNeeded(n)
	if free := m.NumFreeBlocks(); need > free {
		return 0, &OutOfBlocksError{Needed: need, Free: free, Shortfall: need - free}
	}
	return need, nil
}

// Append extends a sequence by n tokens, allocating blocks as needed.
// On exhaustion it returns OutOfBlocksError and changes nothing.
func (m *Manager) Append(q *Seq, n int) error {
	need, err := m.needed(q, n)
	if err != nil {
		return err
	}
	m.grow(q, n, need)
	return nil
}

// grow pops need blocks from the free tail onto q's table and extends
// its length by n tokens. Callers have already checked capacity.
func (m *Manager) grow(q *Seq, n, need int) {
	k := min(need, len(m.returned))
	for i := len(m.returned) - 1; i >= len(m.returned)-k; i-- {
		q.table = append(q.table, m.returned[i])
	}
	m.returned = m.returned[:len(m.returned)-k]
	for ; k < need; k++ {
		q.table = append(q.table, m.fresh)
		m.fresh++
	}
	q.tokens += n
}

// Reserve extends a sequence like Append but logs the allocation in an
// open reservation, so a batch of per-sequence admissions can be
// checked atomically: reserve each member in turn, and on the first
// OutOfBlocksError call Rollback to restore the manager and every
// reserved Seq byte-for-byte (free-list order included) before
// choosing a preemption victim. Commit closes the reservation and makes
// the allocations permanent. Close an open reservation before any
// Append or Release: Rollback undoes the most recent blocks of each
// reserved sequence, and each reserved Seq must stay live until then.
func (m *Manager) Reserve(q *Seq, n int) error {
	need, err := m.needed(q, n)
	if err != nil {
		return err
	}
	m.pending = append(m.pending, reservation{seq: q, tokens: n, blocks: need})
	m.grow(q, n, need)
	return nil
}

// Rollback undoes every uncommitted Reserve in reverse order, pushing
// blocks back onto the free list in the exact positions they were
// popped from, so the manager state (and therefore every downstream
// deterministic allocation) is byte-identical to before the first
// Reserve.
func (m *Manager) Rollback() {
	for i := len(m.pending) - 1; i >= 0; i-- {
		r := m.pending[i]
		q := r.seq
		for j := 0; j < r.blocks; j++ {
			last := len(q.table) - 1
			m.returned = append(m.returned, q.table[last])
			q.table = q.table[:last]
		}
		q.tokens -= r.tokens
	}
	m.pending = m.pending[:0]
}

// Commit makes every uncommitted Reserve permanent.
func (m *Manager) Commit() {
	m.pending = m.pending[:0]
}

// Reset restores the manager to the state NewManager(numBlocks)
// constructs, keeping the capacity of its returned blocks and open
// reservation, so pooled managers can be recycled across instances of
// any pool size. It takes back every block without touching the Seqs
// that held them: Release those first, or drop them, since their tables
// name blocks the manager now hands out afresh.
func (m *Manager) Reset(numBlocks int) {
	m.numBlocks = numBlocks
	m.returned = m.returned[:0]
	m.fresh = 0
	m.pending = m.pending[:0]
	m.held = 0
}

// Hold gives q, which must hold no blocks, the blocks n tokens need
// without naming them: a lifetime reserved whole, for a caller that
// never reads its block table. They leave the free pool until Release;
// no block moves on the free list, so named blocks go out in the order
// they would without the hold. On exhaustion it returns
// OutOfBlocksError and changes nothing.
func (m *Manager) Hold(q *Seq, n int) error {
	need, err := m.needed(q, n)
	if err != nil {
		return err
	}
	q.held, q.tokens = need, n
	m.held += need
	return nil
}

// Release frees all blocks of a sequence and empties it, keeping its
// table's capacity. Releasing an empty Seq does nothing.
func (m *Manager) Release(q *Seq) {
	m.returned = append(m.returned, q.table...)
	m.held -= q.held
	q.table = q.table[:0]
	q.tokens, q.held = 0, 0
}
