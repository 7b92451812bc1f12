// Package kvcache implements vLLM-style paged KV cache management: the
// cache is one contiguous device reservation carved into fixed-size
// blocks, sequences hold per-sequence block tables, and blocks recycle
// through a free list. Sizing the reservation requires knowing the
// residual free GPU memory after a worst-case forwarding — the quantity
// the paper's §6 materializes to skip profiling at cold start.
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

// OutOfBlocksError reports block exhaustion: the requesting sequence,
// how many blocks the operation needed, how many were free, and the
// shortfall (Needed − Free) — the quantity a preemption policy must
// reclaim before retrying.
type OutOfBlocksError struct {
	Seq       uint64
	Needed    int
	Free      int
	Shortfall int
}

func (e *OutOfBlocksError) Error() string {
	return fmt.Sprintf("kvcache: sequence %d needs %d blocks, %d free (short %d)",
		e.Seq, e.Needed, e.Free, e.Shortfall)
}

// seqState is one live sequence: its block table and token count.
type seqState struct {
	table  []int
	tokens int
}

// reservation records one uncommitted Reserve so Rollback can restore
// the manager byte-for-byte: the tokens added, the number of blocks
// popped from the free tail, and whether the sequence existed before.
type reservation struct {
	seq     uint64
	st      *seqState
	tokens  int
	blocks  int
	existed bool
}

// Manager tracks block ownership. It is not safe for concurrent use;
// the engine serializes access like vLLM's scheduler does.
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
	seqs      map[uint64]*seqState
	// spare holds released sequence states, tables emptied but with
	// their capacity kept, for the next new sequence.
	spare   []*seqState
	pending []reservation
}

// NewManager creates a manager over numBlocks blocks.
// A fresh manager pops blocks in order 0, 1, 2, ….
func NewManager(numBlocks int) *Manager {
	return &Manager{
		numBlocks: numBlocks,
		seqs:      make(map[uint64]*seqState),
	}
}

// NumBlocks returns the total block count.
func (m *Manager) NumBlocks() int { return m.numBlocks }

// NumFreeBlocks returns the free block count.
func (m *Manager) NumFreeBlocks() int { return len(m.returned) + m.numBlocks - m.fresh }

// SeqLen returns the cached token count of a sequence.
func (m *Manager) SeqLen(seq uint64) int {
	if st := m.seqs[seq]; st != nil {
		return st.tokens
	}
	return 0
}

// Sequences returns the number of live sequences.
func (m *Manager) Sequences() int { return len(m.seqs) }

// BlockTable returns the sequence's block table. The slice is the
// manager's own: callers must not mutate it, and it is valid only until
// the next Release or Reset, which recycle its storage.
func (m *Manager) BlockTable(seq uint64) []int {
	if st := m.seqs[seq]; st != nil {
		return st.table
	}
	return nil
}

// blocksNeeded computes additional blocks to extend st (nil for an
// unknown sequence) by n tokens.
func blocksNeeded(st *seqState, n int) int {
	if st == nil {
		return BlocksForTokens(n)
	}
	return BlocksForTokens(st.tokens+n) - len(st.table)
}

// CanAppend reports whether n more tokens fit without exhausting the
// pool.
func (m *Manager) CanAppend(seq uint64, n int) bool {
	return blocksNeeded(m.seqs[seq], n) <= m.NumFreeBlocks()
}

// Append extends a sequence by n tokens, allocating blocks as needed.
// On exhaustion it returns OutOfBlocksError and changes nothing.
func (m *Manager) Append(seq uint64, n int) error {
	if n < 0 {
		return fmt.Errorf("kvcache: negative append %d", n)
	}
	st := m.seqs[seq]
	need := blocksNeeded(st, n)
	if free := m.NumFreeBlocks(); need > free {
		return &OutOfBlocksError{Seq: seq, Needed: need, Free: free, Shortfall: need - free}
	}
	if st == nil {
		st = m.newSeq(seq)
	}
	m.grow(st, n, need)
	return nil
}

// newSeq registers a sequence, recycling a released state if one is
// spare.
func (m *Manager) newSeq(seq uint64) *seqState {
	var st *seqState
	if k := len(m.spare); k > 0 {
		st = m.spare[k-1]
		m.spare = m.spare[:k-1]
	} else {
		st = &seqState{}
	}
	m.seqs[seq] = st
	return st
}

// dropSeq unregisters a sequence whose blocks are already back on the
// free list and keeps its state for reuse.
func (m *Manager) dropSeq(seq uint64, st *seqState) {
	delete(m.seqs, seq)
	st.table = st.table[:0]
	st.tokens = 0
	m.spare = append(m.spare, st)
}

// grow pops need blocks from the free tail onto st's table and extends
// its length by n tokens. Callers have already checked capacity.
func (m *Manager) grow(st *seqState, n, need int) {
	k := min(need, len(m.returned))
	for i := len(m.returned) - 1; i >= len(m.returned)-k; i-- {
		st.table = append(st.table, m.returned[i])
	}
	m.returned = m.returned[:len(m.returned)-k]
	for ; k < need; k++ {
		st.table = append(st.table, m.fresh)
		m.fresh++
	}
	st.tokens += n
}

// Reserve extends a sequence like Append but logs the allocation in an
// open reservation, so a batch of per-sequence admissions can be
// checked atomically: reserve each member in turn, and on the first
// OutOfBlocksError call Rollback to restore the manager byte-for-byte
// (free-list order included) before choosing a preemption victim.
// Commit closes the reservation and makes the allocations permanent.
// Close an open reservation before any Append or Release: Rollback
// undoes the most recent blocks of each reserved sequence.
func (m *Manager) Reserve(seq uint64, n int) error {
	if n < 0 {
		return fmt.Errorf("kvcache: negative reserve %d", n)
	}
	st := m.seqs[seq]
	need := blocksNeeded(st, n)
	if free := m.NumFreeBlocks(); need > free {
		return &OutOfBlocksError{Seq: seq, Needed: need, Free: free, Shortfall: need - free}
	}
	existed := st != nil
	if !existed {
		st = m.newSeq(seq)
	}
	m.pending = append(m.pending, reservation{seq: seq, st: st, tokens: n, blocks: need, existed: existed})
	m.grow(st, n, need)
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
		st := r.st
		for j := 0; j < r.blocks; j++ {
			last := len(st.table) - 1
			m.returned = append(m.returned, st.table[last])
			st.table = st.table[:last]
		}
		st.tokens -= r.tokens
		if !r.existed && len(st.table) == 0 {
			m.dropSeq(r.seq, st)
		}
	}
	m.pending = m.pending[:0]
}

// Commit makes every uncommitted Reserve permanent.
func (m *Manager) Commit() {
	m.pending = m.pending[:0]
}

// Reset restores the manager to its freshly constructed state, keeping
// the capacity of its returned blocks and spare sequence states, so
// pooled managers can be recycled across instances.
func (m *Manager) Reset() {
	m.returned = m.returned[:0]
	m.fresh = 0
	clear(m.seqs)
	m.pending = m.pending[:0]
}

// Release frees all blocks of a sequence.
func (m *Manager) Release(seq uint64) {
	st := m.seqs[seq]
	if st == nil {
		return
	}
	m.returned = append(m.returned, st.table...)
	m.dropSeq(seq, st)
}

// UsedBlocks returns allocated block count.
func (m *Manager) UsedBlocks() int { return m.numBlocks - m.NumFreeBlocks() }
