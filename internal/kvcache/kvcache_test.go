package kvcache

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// freeList materializes the manager's lazy free list in pop-from-tail
// order: the never-popped blocks high to low, then the returned ones.
func freeList(m *Manager) []int {
	free := make([]int, 0, m.NumFreeBlocks())
	for b := m.numBlocks - 1; b >= m.fresh; b-- {
		free = append(free, b)
	}
	return append(free, m.returned...)
}

func TestSizingHelpers(t *testing.T) {
	if BlockBytes(4096, 2) != 16*4096*2*2 {
		t.Fatalf("BlockBytes = %d", BlockBytes(4096, 2))
	}
	if NumBlocksFor(10<<30, BlockBytes(4096, 2)) != int((10<<30)/(16*4096*2*2)) {
		t.Fatal("NumBlocksFor wrong")
	}
	if NumBlocksFor(100, 0) != 0 {
		t.Fatal("NumBlocksFor zero block size")
	}
	cases := map[int]int{0: 0, 1: 1, 16: 1, 17: 2, 32: 2, 33: 3}
	for n, want := range cases {
		if got := BlocksForTokens(n); got != want {
			t.Errorf("BlocksForTokens(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestAppendAllocatesLazily(t *testing.T) {
	m := NewManager(4)
	if err := m.Append(1, 10); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 1 || m.SeqLen(1) != 10 {
		t.Fatalf("after 10 tokens: used=%d len=%d", m.UsedBlocks(), m.SeqLen(1))
	}
	if err := m.Append(1, 6); err != nil { // fills block 0 exactly
		t.Fatal(err)
	}
	if m.UsedBlocks() != 1 {
		t.Fatalf("16 tokens should still use 1 block, used=%d", m.UsedBlocks())
	}
	if err := m.Append(1, 1); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 2 {
		t.Fatalf("17th token should open block 2, used=%d", m.UsedBlocks())
	}
	if bt := m.BlockTable(1); len(bt) != 2 || bt[0] == bt[1] {
		t.Fatalf("block table = %v", bt)
	}
}

func TestExhaustionAtomic(t *testing.T) {
	m := NewManager(2)
	if err := m.Append(1, 32); err != nil { // exactly 2 blocks
		t.Fatal(err)
	}
	if m.CanAppend(2, 1) {
		t.Fatal("CanAppend with empty pool")
	}
	err := m.Append(2, 1)
	var oob *OutOfBlocksError
	if !errors.As(err, &oob) {
		t.Fatalf("Append on empty pool = %v", err)
	}
	if m.SeqLen(2) != 0 || len(m.BlockTable(2)) != 0 {
		t.Fatal("failed Append mutated state")
	}
	// A multi-block request that cannot be fully served must not
	// partially allocate.
	m2 := NewManager(2)
	if err := m2.Append(7, 100); err == nil {
		t.Fatal("oversized Append succeeded")
	}
	if m2.NumFreeBlocks() != 2 {
		t.Fatal("failed multi-block Append leaked blocks")
	}
}

func TestReleaseRecyclesBlocks(t *testing.T) {
	m := NewManager(3)
	m.Append(1, 40) // 3 blocks
	if m.NumFreeBlocks() != 0 {
		t.Fatal("pool should be empty")
	}
	m.Release(1)
	if m.NumFreeBlocks() != 3 || m.Sequences() != 0 {
		t.Fatalf("after release: free=%d seqs=%d", m.NumFreeBlocks(), m.Sequences())
	}
	if err := m.Append(2, 48); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseUnknownSeqIsNoop(t *testing.T) {
	m := NewManager(2)
	m.Release(99)
	if m.NumFreeBlocks() != 2 {
		t.Fatal("Release of unknown sequence changed pool")
	}
}

func TestNegativeAppendRejected(t *testing.T) {
	m := NewManager(2)
	if err := m.Append(1, -1); err == nil {
		t.Fatal("negative append succeeded")
	}
}

func TestReserveRollbackRestoresState(t *testing.T) {
	m := NewManager(4)
	if err := m.Append(1, 20); err != nil { // 2 blocks committed
		t.Fatal(err)
	}
	freeBefore := freeList(m)
	if err := m.Reserve(1, 13); err != nil { // extends into block 3
		t.Fatal(err)
	}
	if err := m.Reserve(2, 10); err != nil { // new sequence, block 4
		t.Fatal(err)
	}
	err := m.Reserve(3, 1)
	var oob *OutOfBlocksError
	if !errors.As(err, &oob) {
		t.Fatalf("Reserve on empty pool = %v", err)
	}
	if oob.Seq != 3 || oob.Shortfall != 1 {
		t.Fatalf("OutOfBlocksError = %+v, want seq 3 shortfall 1", oob)
	}
	m.Rollback()
	if m.SeqLen(1) != 20 || m.SeqLen(2) != 0 || m.Sequences() != 1 {
		t.Fatalf("rollback left len1=%d len2=%d seqs=%d", m.SeqLen(1), m.SeqLen(2), m.Sequences())
	}
	if free := freeList(m); !slices.Equal(free, freeBefore) {
		t.Fatalf("rollback reordered free list: %v != %v", free, freeBefore)
	}
}

func TestReserveCommitIsPermanent(t *testing.T) {
	m := NewManager(4)
	if err := m.Reserve(1, 20); err != nil {
		t.Fatal(err)
	}
	m.Commit()
	m.Rollback() // must be a no-op after Commit
	if m.SeqLen(1) != 20 || m.UsedBlocks() != 2 {
		t.Fatalf("commit not permanent: len=%d used=%d", m.SeqLen(1), m.UsedBlocks())
	}
}

func TestResetRestoresFreshState(t *testing.T) {
	m := NewManager(3)
	m.Append(1, 40)
	m.Reserve(2, 1)
	m.Reset()
	fresh := NewManager(3)
	if m.NumFreeBlocks() != 3 || m.Sequences() != 0 || len(m.pending) != 0 {
		t.Fatalf("Reset left free=%d seqs=%d pending=%d", m.NumFreeBlocks(), m.Sequences(), len(m.pending))
	}
	if free, want := freeList(m), freeList(fresh); !slices.Equal(free, want) {
		t.Fatalf("Reset free-list order %v != fresh %v", free, want)
	}
}

// Property: under admit/preempt/resume churn expressed through the
// reservation API — reserve-batches that either commit or roll back,
// interleaved with releases (preemption) and re-appends (resume) —
// block accounting stays exact, no block has two owners, and every
// table length matches BlocksForTokens of its sequence length.
func TestReserveConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const blocks = 24
		m := NewManager(blocks)
		for _, op := range ops {
			seq := uint64(op % 6)
			switch op % 5 {
			case 0: // preempt: recompute-on-resume drops all blocks
				m.Release(seq)
			case 1: // resume: re-append the recomputed prefix
				n := int(op%17) + 1
				if m.CanAppend(seq, n) {
					if m.Append(seq, n) != nil {
						return false
					}
				}
			default: // admission batch of 1–3 sequences, commit or roll back
				batch := int(op%3) + 1
				ok := true
				for i := 0; i < batch; i++ {
					if m.Reserve((seq+uint64(i))%6, int(op%13)+1) != nil {
						ok = false
						break
					}
				}
				if ok && op%2 == 0 {
					m.Commit()
				} else {
					m.Rollback()
				}
			}
			owned := map[int]uint64{}
			total := 0
			for s := uint64(0); s < 8; s++ {
				bt := m.BlockTable(s)
				if len(bt) != BlocksForTokens(m.SeqLen(s)) {
					return false
				}
				for _, b := range bt {
					if prev, dup := owned[b]; dup && prev != s {
						return false
					}
					owned[b] = s
				}
				total += len(bt)
			}
			if total+m.NumFreeBlocks() != blocks {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: under any interleaving of appends and releases, block
// accounting is exact and no block is owned by two sequences.
func TestBlockAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const blocks = 32
		m := NewManager(blocks)
		for _, op := range ops {
			seq := uint64(op % 5)
			if op%7 == 0 {
				m.Release(seq)
			} else {
				n := int(op%20) + 1
				if m.CanAppend(seq, n) {
					if m.Append(seq, n) != nil {
						return false
					}
				} else if m.Append(seq, n) == nil {
					return false // CanAppend said no but Append worked
				}
			}
			// Invariants.
			owned := map[int]uint64{}
			total := 0
			for s := uint64(0); s < 5; s++ {
				bt := m.BlockTable(s)
				if len(bt) != BlocksForTokens(m.SeqLen(s)) {
					return false
				}
				for _, b := range bt {
					if prev, dup := owned[b]; dup && prev != s {
						return false
					}
					owned[b] = s
				}
				total += len(bt)
			}
			if total+m.NumFreeBlocks() != blocks {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// refManager is the two-map manager Manager replaced (block tables and
// token counts in separate maps, tables regrown from nil), kept as the
// oracle for byte-exact free-list order.
type refManager struct {
	free    []int
	tables  map[uint64][]int
	seqLens map[uint64]int
	pending []reservation
}

func newRefManager(numBlocks int) *refManager {
	r := &refManager{tables: map[uint64][]int{}, seqLens: map[uint64]int{}}
	for i := 0; i < numBlocks; i++ {
		r.free = append(r.free, numBlocks-1-i)
	}
	return r
}

func (r *refManager) need(seq uint64, n int) int {
	return BlocksForTokens(r.seqLens[seq]+n) - len(r.tables[seq])
}

func (r *refManager) grow(seq uint64, n, need int) {
	for i := 0; i < need; i++ {
		b := r.free[len(r.free)-1]
		r.free = r.free[:len(r.free)-1]
		r.tables[seq] = append(r.tables[seq], b)
	}
	r.seqLens[seq] += n
}

func (r *refManager) append(seq uint64, n int) bool {
	need := r.need(seq, n)
	if need > len(r.free) {
		return false
	}
	r.grow(seq, n, need)
	return true
}

func (r *refManager) reserve(seq uint64, n int) bool {
	need := r.need(seq, n)
	if need > len(r.free) {
		return false
	}
	_, existed := r.seqLens[seq]
	r.pending = append(r.pending, reservation{seq: seq, tokens: n, blocks: need, existed: existed})
	r.grow(seq, n, need)
	return true
}

func (r *refManager) rollback() {
	for i := len(r.pending) - 1; i >= 0; i-- {
		p := r.pending[i]
		table := r.tables[p.seq]
		for j := 0; j < p.blocks; j++ {
			r.free = append(r.free, table[len(table)-1])
			table = table[:len(table)-1]
		}
		if len(table) == 0 && !p.existed {
			delete(r.tables, p.seq)
			delete(r.seqLens, p.seq)
			continue
		}
		r.tables[p.seq] = table
		r.seqLens[p.seq] -= p.tokens
	}
	r.pending = r.pending[:0]
}

func (r *refManager) release(seq uint64) {
	r.free = append(r.free, r.tables[seq]...)
	delete(r.tables, seq)
	delete(r.seqLens, seq)
}

// TestManagerMatchesTwoMapOracle drives the manager and the two-map
// oracle through the same random appends, reservation batches that
// commit or roll back, releases and resets, and requires the free list
// (order included), every block table and token count, and every
// success or failure to agree after each step.
func TestManagerMatchesTwoMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		blocks := 4 + rng.Intn(40)
		m, ref := NewManager(blocks), newRefManager(blocks)
		for step := 0; step < 400; step++ {
			seq := uint64(rng.Intn(8))
			n := 1 + rng.Intn(40)
			switch op := rng.Intn(20); {
			case op < 3:
				m.Release(seq)
				ref.release(seq)
			case op < 6:
				if (m.Append(seq, n) == nil) != ref.append(seq, n) {
					t.Fatalf("trial %d step %d: Append(%d, %d) disagrees", trial, step, seq, n)
				}
			case op == 6:
				m.Reset()
				ref = newRefManager(blocks)
			default:
				ok := true
				for i := 0; i < 1+rng.Intn(4) && ok; i++ {
					s, k := uint64(rng.Intn(8)), 1+rng.Intn(20)
					got := m.Reserve(s, k) == nil
					if got != ref.reserve(s, k) {
						t.Fatalf("trial %d step %d: Reserve(%d, %d) disagrees", trial, step, s, k)
					}
					ok = got
				}
				if ok && rng.Intn(3) > 0 {
					m.Commit()
					ref.pending = ref.pending[:0]
				} else {
					m.Rollback()
					ref.rollback()
				}
			}
			checkMatchesOracle(t, m, ref, "trial %d step %d", trial, step)
		}
	}
}

// checkMatchesOracle requires the manager and the oracle to agree on
// the free list (order included), the live sequence count, and every
// block table and token count of sequences 0–7. The oracle counts
// sequences by their token counts: an empty Append registers a
// sequence that owns no table.
func checkMatchesOracle(t *testing.T, m *Manager, ref *refManager, format string, args ...any) {
	t.Helper()
	what := func() string { return fmt.Sprintf(format, args...) }
	if free := freeList(m); !slices.Equal(free, ref.free) || m.Sequences() != len(ref.seqLens) {
		t.Fatalf("%s: free %v seqs %d, oracle free %v seqs %d",
			what(), free, m.Sequences(), ref.free, len(ref.seqLens))
	}
	for s := uint64(0); s < 8; s++ {
		if !slices.Equal(m.BlockTable(s), ref.tables[s]) || m.SeqLen(s) != ref.seqLens[s] {
			t.Fatalf("%s: seq %d table %v len %d, oracle %v len %d",
				what(), s, m.BlockTable(s), m.SeqLen(s), ref.tables[s], ref.seqLens[s])
		}
	}
}

// FuzzManagerOps drives the lazy manager and the materialized-list
// oracle through the same Append, Reserve, Commit, Rollback, Release
// and Reset sequence, decoded from the input two bytes per operation,
// and requires identical outcomes, free lists and block tables after
// every step. As Reserve requires, an open reservation batch is closed
// (committed or rolled back) before an Append or Release.
func FuzzManagerOps(f *testing.F) {
	f.Add(uint8(8), []byte{0x10, 20, 0x21, 13, 0x22, 10, 0x33, 1, 0x04, 0, 0x15, 40})
	f.Add(uint8(3), []byte{0x00, 40, 0x51, 1, 0x12, 0, 0x06, 0, 0x10, 17})
	f.Add(uint8(1), []byte{0x10, 16, 0x11, 1, 0x14, 0, 0x10, 1})
	f.Fuzz(func(t *testing.T, blocks uint8, ops []byte) {
		m, ref := NewManager(int(blocks)), newRefManager(int(blocks))
		for i := 0; i+1 < len(ops); i += 2 {
			seq, n := uint64(ops[i]>>4&7), int(ops[i+1])
			op := ops[i] % 7
			if (op < 2 || op == 6 && n%4 != 0) && len(ref.pending) > 0 {
				if n%2 == 0 {
					m.Commit()
					ref.pending = ref.pending[:0]
				} else {
					m.Rollback()
					ref.rollback()
				}
			}
			switch op {
			case 0, 1:
				if (m.Append(seq, n) == nil) != ref.append(seq, n) {
					t.Fatalf("op %d: Append(%d, %d) disagrees", i/2, seq, n)
				}
			case 2, 3:
				if (m.Reserve(seq, n) == nil) != ref.reserve(seq, n) {
					t.Fatalf("op %d: Reserve(%d, %d) disagrees", i/2, seq, n)
				}
			case 4:
				m.Commit()
				ref.pending = ref.pending[:0]
			case 5:
				m.Rollback()
				ref.rollback()
			default:
				if n%4 == 0 {
					m.Reset()
					ref = newRefManager(int(blocks))
				} else {
					m.Release(seq)
					ref.release(seq)
				}
			}
			checkMatchesOracle(t, m, ref, "op %d (%#x, %d)", i/2, ops[i], n)
		}
	})
}

// TestNewManagerAllocatesLittle: a manager costs nothing per block
// until blocks are returned, so even a million-block one allocates
// under a KiB.
func TestNewManagerAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	var sink *Manager
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = NewManager(1 << 20)
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 1024 {
		t.Fatalf("NewManager(1<<20) allocates %d bytes, want under 1024", got)
	}
	if sink.NumFreeBlocks() != 1<<20 {
		t.Fatalf("NumFreeBlocks = %d, want %d", sink.NumFreeBlocks(), 1<<20)
	}
}

// TestSteadyStateCycleAllocatesNothing: once a sequence's state and
// table capacity have been recycled, admitting it (Reserve + Commit),
// decoding it one token at a time and releasing it allocates nothing.
func TestSteadyStateCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	m := NewManager(64)
	var next uint64
	cycle := func() {
		seqs := [3]uint64{next, next + 1, next + 2}
		next = (next + 3) % 6 // a few live IDs, as a small batch
		for _, s := range seqs {
			if m.Reserve(s, 20) != nil {
				t.Fatal("prompt reservation failed")
			}
		}
		m.Commit()
		for step := 0; step < 40; step++ {
			for _, s := range seqs {
				if m.Reserve(s, 1) != nil {
					t.Fatal("decode reservation failed")
				}
			}
			m.Commit()
		}
		for _, s := range seqs {
			m.Release(s)
		}
	}
	cycle()
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("steady-state Reserve/Commit/Release cycle allocated %v times, want 0", n)
	}
}
