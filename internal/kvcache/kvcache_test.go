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

// usedBlocks counts the blocks allocated from m.
func usedBlocks(m *Manager) int { return m.numBlocks - m.NumFreeBlocks() }

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
	var q Seq
	if err := m.Append(&q, 10); err != nil {
		t.Fatal(err)
	}
	if usedBlocks(m) != 1 || q.Len() != 10 {
		t.Fatalf("after 10 tokens: used=%d len=%d", usedBlocks(m), q.Len())
	}
	if err := m.Append(&q, 6); err != nil { // fills block 0 exactly
		t.Fatal(err)
	}
	if usedBlocks(m) != 1 {
		t.Fatalf("16 tokens should still use 1 block, used=%d", usedBlocks(m))
	}
	if err := m.Append(&q, 1); err != nil {
		t.Fatal(err)
	}
	if usedBlocks(m) != 2 {
		t.Fatalf("17th token should open block 2, used=%d", usedBlocks(m))
	}
	if bt := q.Table(); len(bt) != 2 || bt[0] == bt[1] {
		t.Fatalf("block table = %v", bt)
	}
}

func TestExhaustionAtomic(t *testing.T) {
	m := NewManager(2)
	var a, b Seq
	if err := m.Append(&a, 32); err != nil { // exactly 2 blocks
		t.Fatal(err)
	}
	err := m.Append(&b, 1)
	var oob *OutOfBlocksError
	if !errors.As(err, &oob) || oob.Needed != 1 || oob.Free != 0 || oob.Shortfall != 1 {
		t.Fatalf("Append on empty pool = %v", err)
	}
	if b.Len() != 0 || len(b.Table()) != 0 {
		t.Fatal("failed Append mutated state")
	}
	// A multi-block request that cannot be fully served must not
	// partially allocate.
	m2 := NewManager(2)
	var c Seq
	if err := m2.Append(&c, 100); err == nil {
		t.Fatal("oversized Append succeeded")
	}
	if m2.NumFreeBlocks() != 2 || len(c.Table()) != 0 {
		t.Fatal("failed multi-block Append leaked blocks")
	}
}

func TestReleaseRecyclesBlocks(t *testing.T) {
	m := NewManager(3)
	var a, b Seq
	m.Append(&a, 40) // 3 blocks
	if m.NumFreeBlocks() != 0 {
		t.Fatal("pool should be empty")
	}
	m.Release(&a)
	if m.NumFreeBlocks() != 3 || a.Len() != 0 || len(a.Table()) != 0 {
		t.Fatalf("after release: free=%d len=%d table=%v", m.NumFreeBlocks(), a.Len(), a.Table())
	}
	if cap(a.Table()) < 3 {
		t.Fatalf("Release dropped the table's capacity: cap %d", cap(a.Table()))
	}
	if err := m.Append(&b, 48); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseUnknownSeqIsNoop releases a sequence the manager never saw.
func TestReleaseUnknownSeqIsNoop(t *testing.T) {
	m := NewManager(2)
	var q Seq
	m.Release(&q)
	if m.NumFreeBlocks() != 2 {
		t.Fatal("Release of an empty sequence changed pool")
	}
}

func TestNegativeAppendRejected(t *testing.T) {
	m := NewManager(2)
	var q Seq
	if err := m.Append(&q, -1); err == nil {
		t.Fatal("negative append succeeded")
	}
	if err := m.Reserve(&q, -1); err == nil {
		t.Fatal("negative reserve succeeded")
	}
}

func TestReserveRollbackRestoresState(t *testing.T) {
	m := NewManager(4)
	var a, b, c Seq
	if err := m.Append(&a, 20); err != nil { // 2 blocks committed
		t.Fatal(err)
	}
	tableBefore := slices.Clone(a.Table())
	freeBefore := freeList(m)
	if err := m.Reserve(&a, 13); err != nil { // extends into block 3
		t.Fatal(err)
	}
	if err := m.Reserve(&b, 10); err != nil { // new sequence, block 4
		t.Fatal(err)
	}
	err := m.Reserve(&c, 1)
	var oob *OutOfBlocksError
	if !errors.As(err, &oob) {
		t.Fatalf("Reserve on empty pool = %v", err)
	}
	if oob.Needed != 1 || oob.Free != 0 || oob.Shortfall != 1 {
		t.Fatalf("OutOfBlocksError = %+v, want needed 1, free 0, shortfall 1", oob)
	}
	m.Rollback()
	if a.Len() != 20 || !slices.Equal(a.Table(), tableBefore) || b.Len() != 0 || len(b.Table()) != 0 {
		t.Fatalf("rollback left a=%d %v, b=%d %v", a.Len(), a.Table(), b.Len(), b.Table())
	}
	if free := freeList(m); !slices.Equal(free, freeBefore) {
		t.Fatalf("rollback reordered free list: %v != %v", free, freeBefore)
	}
}

func TestReserveCommitIsPermanent(t *testing.T) {
	m := NewManager(4)
	var q Seq
	if err := m.Reserve(&q, 20); err != nil {
		t.Fatal(err)
	}
	m.Commit()
	m.Rollback() // must be a no-op after Commit
	if q.Len() != 20 || usedBlocks(m) != 2 {
		t.Fatalf("commit not permanent: len=%d used=%d", q.Len(), usedBlocks(m))
	}
}

func TestResetRestoresFreshState(t *testing.T) {
	m := NewManager(3)
	var a, b Seq
	m.Append(&a, 40)
	m.Reserve(&b, 1)
	m.Reset(3)
	fresh := NewManager(3)
	if m.NumFreeBlocks() != 3 || len(m.pending) != 0 {
		t.Fatalf("Reset left free=%d pending=%d", m.NumFreeBlocks(), len(m.pending))
	}
	if free, want := freeList(m), freeList(fresh); !slices.Equal(free, want) {
		t.Fatalf("Reset free-list order %v != fresh %v", free, want)
	}
	// Resetting to another pool size matches a fresh manager of it.
	a, b = Seq{}, Seq{}
	m.Append(&a, 20)
	m.Release(&a)
	m.Reset(5)
	if free, want := freeList(m), freeList(NewManager(5)); m.NumBlocks() != 5 || !slices.Equal(free, want) {
		t.Fatalf("Reset(5): %d blocks, free list %v, want %v", m.NumBlocks(), free, want)
	}
}

// checkOwnership requires every block to have at most one owner among
// seqs, every table length to match BlocksForTokens of its sequence
// length, and the owned and free blocks to add up to the pool.
func checkOwnership(m *Manager, seqs []Seq) bool {
	owned := map[int]int{}
	total := 0
	for s := range seqs {
		bt := seqs[s].Table()
		if len(bt) != BlocksForTokens(seqs[s].Len()) {
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
	return total+m.NumFreeBlocks() == m.NumBlocks()
}

// Property: under admit/preempt/resume churn expressed through the
// reservation API — reserve-batches that either commit or roll back,
// interleaved with releases (preemption) and re-appends (resume) —
// block accounting stays exact, no block has two owners, and every
// table length matches BlocksForTokens of its sequence length.
func TestReserveConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewManager(24)
		var seqs [6]Seq
		for _, op := range ops {
			seq := int(op % 6)
			switch op % 5 {
			case 0: // preempt: recompute-on-resume drops all blocks
				m.Release(&seqs[seq])
			case 1: // resume: re-append the recomputed prefix
				var oob *OutOfBlocksError
				if err := m.Append(&seqs[seq], int(op%17)+1); err != nil && !errors.As(err, &oob) {
					return false
				}
			default: // admission batch of 1–3 sequences, commit or roll back
				batch := int(op%3) + 1
				ok := true
				for i := 0; i < batch; i++ {
					if m.Reserve(&seqs[(seq+i)%6], int(op%13)+1) != nil {
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
			if !checkOwnership(m, seqs[:]) {
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
// accounting is exact, no block is owned by two sequences, and an
// Append succeeds exactly when the blocks it needs are free.
func TestBlockAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewManager(32)
		var seqs [5]Seq
		for _, op := range ops {
			q := &seqs[op%5]
			if op%7 == 0 {
				m.Release(q)
			} else {
				n := int(op%20) + 1
				fits := BlocksForTokens(q.Len()+n)-len(q.Table()) <= m.NumFreeBlocks()
				if (m.Append(q, n) == nil) != fits {
					return false
				}
			}
			if !checkOwnership(m, seqs[:]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// refManager is the two-map manager keyed by sequence id that the
// handle-based Manager replaced (block tables and token counts in
// separate maps, tables regrown from nil), kept as the oracle for
// byte-exact free-list order.
type refManager struct {
	free    []int
	tables  map[uint64][]int
	seqLens map[uint64]int
	pending []refReservation
}

// refReservation is one uncommitted reserve of the oracle.
type refReservation struct {
	seq            uint64
	tokens, blocks int
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
	r.pending = append(r.pending, refReservation{seq: seq, tokens: n, blocks: need})
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

// TestManagerMatchesTwoMapOracle drives the manager, through one handle
// per sequence id, and the id-keyed two-map oracle through the same
// random appends, reservation batches that commit or roll back,
// releases and resets, and requires the free list (order included),
// every block table and token count, and every success or failure to
// agree after each step.
func TestManagerMatchesTwoMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		blocks := 4 + rng.Intn(40)
		m, ref := NewManager(blocks), newRefManager(blocks)
		var seqs [8]Seq
		for step := 0; step < 400; step++ {
			seq := uint64(rng.Intn(8))
			n := 1 + rng.Intn(40)
			switch op := rng.Intn(20); {
			case op < 3:
				m.Release(&seqs[seq])
				ref.release(seq)
			case op < 6:
				if (m.Append(&seqs[seq], n) == nil) != ref.append(seq, n) {
					t.Fatalf("trial %d step %d: Append(%d, %d) disagrees", trial, step, seq, n)
				}
			case op == 6:
				m.Reset(blocks)
				seqs = [8]Seq{}
				ref = newRefManager(blocks)
			default:
				ok := true
				for i := 0; i < 1+rng.Intn(4) && ok; i++ {
					s, k := uint64(rng.Intn(8)), 1+rng.Intn(20)
					got := m.Reserve(&seqs[s], k) == nil
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
			checkMatchesOracle(t, m, &seqs, ref, "trial %d step %d", trial, step)
		}
	}
}

// checkMatchesOracle requires the manager and the oracle to agree on
// the free list (order included) and on the block table and token
// count of every sequence id 0–7, seqs[id] being that id's handle.
func checkMatchesOracle(t *testing.T, m *Manager, seqs *[8]Seq, ref *refManager, format string, args ...any) {
	t.Helper()
	what := func() string { return fmt.Sprintf(format, args...) }
	if free := freeList(m); !slices.Equal(free, ref.free) {
		t.Fatalf("%s: free %v, oracle free %v", what(), free, ref.free)
	}
	for s := range seqs {
		q := &seqs[s]
		if !slices.Equal(q.Table(), ref.tables[uint64(s)]) || q.Len() != ref.seqLens[uint64(s)] {
			t.Fatalf("%s: seq %d table %v len %d, oracle %v len %d",
				what(), s, q.Table(), q.Len(), ref.tables[uint64(s)], ref.seqLens[uint64(s)])
		}
	}
}

// FuzzManagerOps drives the lazy manager, through one handle per
// sequence id, and the id-keyed materialized-list oracle through the
// same Append, Reserve, Commit, Rollback, Release and Reset sequence,
// decoded from the input two bytes per operation, and requires
// identical outcomes, free lists and block tables after every step. As
// Reserve requires, an open reservation batch is closed (committed or
// rolled back) before an Append or Release.
func FuzzManagerOps(f *testing.F) {
	f.Add(uint8(8), []byte{0x10, 20, 0x21, 13, 0x22, 10, 0x33, 1, 0x04, 0, 0x15, 40})
	f.Add(uint8(3), []byte{0x00, 40, 0x51, 1, 0x12, 0, 0x06, 0, 0x10, 17})
	f.Add(uint8(1), []byte{0x10, 16, 0x11, 1, 0x14, 0, 0x10, 1})
	f.Fuzz(func(t *testing.T, blocks uint8, ops []byte) {
		m, ref := NewManager(int(blocks)), newRefManager(int(blocks))
		var seqs [8]Seq
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
				if (m.Append(&seqs[seq], n) == nil) != ref.append(seq, n) {
					t.Fatalf("op %d: Append(%d, %d) disagrees", i/2, seq, n)
				}
			case 2, 3:
				if (m.Reserve(&seqs[seq], n) == nil) != ref.reserve(seq, n) {
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
					m.Reset(int(blocks))
					seqs = [8]Seq{}
					ref = newRefManager(int(blocks))
				} else {
					m.Release(&seqs[seq])
					ref.release(seq)
				}
			}
			checkMatchesOracle(t, m, &seqs, ref, "op %d (%#x, %d)", i/2, ops[i], n)
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

// TestSteadyStateCycleAllocatesNothing: once a sequence's table
// capacity has been kept by Release, admitting it (Reserve + Commit),
// decoding it one token at a time and releasing it allocates nothing.
func TestSteadyStateCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	m := NewManager(64)
	var live [6]Seq
	next := 0
	cycle := func() {
		seqs := live[next : next+3]
		next = (next + 3) % 6 // a few live handles, as a small batch
		for i := range seqs {
			if m.Reserve(&seqs[i], 20) != nil {
				t.Fatal("prompt reservation failed")
			}
		}
		m.Commit()
		for step := 0; step < 40; step++ {
			for i := range seqs {
				if m.Reserve(&seqs[i], 1) != nil {
					t.Fatal("decode reservation failed")
				}
			}
			m.Commit()
		}
		for i := range seqs {
			m.Release(&seqs[i])
		}
	}
	cycle()
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("steady-state Reserve/Commit/Release cycle allocated %v times, want 0", n)
	}
}

// lifetime admits q with a prompt, decodes it one token at a time to
// its output length and releases it: one sequence's whole life.
func lifetime(tb testing.TB, m *Manager, q *Seq, prompt, output int) {
	if err := m.Reserve(q, prompt); err != nil {
		tb.Fatal(err)
	}
	m.Commit()
	for i := 1; i < output; i++ {
		if err := m.Reserve(q, 1); err != nil {
			tb.Fatal(err)
		}
		m.Commit()
	}
	m.Release(q)
}

// TestSizedSeqAllocatesNothing: a Seq sized by SizeFor for its prompt
// and output lives through Reserve/Commit/Release without allocating,
// even on its first use; an unsized one grows its table by append.
func TestSizedSeqAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const prompt, output, runs = 70, 90, 20
	m := NewManager(64)
	seqs := make([]Seq, runs+1) // AllocsPerRun makes one extra, warm-up, call
	for i := range seqs {
		seqs[i].SizeFor(prompt + output)
	}
	i := 0
	if n := testing.AllocsPerRun(runs, func() {
		lifetime(t, m, &seqs[i], prompt, output)
		i++
	}); n != 0 {
		t.Fatalf("a sized Seq's lifetime allocated %v times, want 0", n)
	}
	if got, want := cap(seqs[0].Table()), BlocksForTokens(prompt+output); got != want {
		t.Fatalf("sized table capacity = %d, want %d", got, want)
	}
	var unsized Seq
	if n := testing.AllocsPerRun(1, func() {
		unsized = Seq{}
		lifetime(t, m, &unsized, prompt, output)
	}); n == 0 {
		t.Fatal("an unsized Seq's lifetime allocated nothing; the sized gate proves nothing")
	}
}

// TestSizeForKeepsLargerTable: SizeFor never shrinks a table or drops
// the blocks it holds.
func TestSizeForKeepsLargerTable(t *testing.T) {
	m := NewManager(16)
	var q Seq
	q.SizeFor(100)
	if err := m.Append(&q, 40); err != nil {
		t.Fatal(err)
	}
	before := q.Table()
	q.SizeFor(10)
	if cap(q.Table()) != BlocksForTokens(100) || &q.Table()[0] != &before[0] {
		t.Fatal("SizeFor for fewer tokens reallocated the table")
	}
	q.SizeFor(400)
	if cap(q.Table()) != BlocksForTokens(400) || !slices.Equal(q.Table(), before) {
		t.Fatalf("SizeFor(400) = %v (cap %d), want %v kept", q.Table(), cap(q.Table()), before)
	}
}

func BenchmarkSizedSeqLifetime(b *testing.B) {
	m := NewManager(64)
	var q Seq
	q.SizeFor(160)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lifetime(b, m, &q, 70, 90)
	}
}

// TestHoldCountsWithoutNaming: held blocks leave the free count until
// Release returns them, name no block, and leave the free list's order
// to the named blocks alone: a sequence appended after a hold gets the
// blocks it would get without it.
func TestHoldCountsWithoutNaming(t *testing.T) {
	m, ref := NewManager(8), NewManager(8)
	var held, a, b Seq
	if err := m.Hold(&held, 50); err != nil { // 4 blocks
		t.Fatal(err)
	}
	if m.NumFreeBlocks() != 4 || held.Len() != 50 || len(held.Table()) != 0 {
		t.Fatalf("after Hold: %d free, %d tokens held in %v", m.NumFreeBlocks(), held.Len(), held.Table())
	}
	var oversized Seq
	if err := m.Hold(&oversized, 80); err == nil || m.NumFreeBlocks() != 4 || oversized.Len() != 0 {
		t.Fatalf("Hold beyond the free count: err %v, %d free, %d tokens", err, m.NumFreeBlocks(), oversized.Len())
	}
	if err := m.Append(&a, 40); err != nil {
		t.Fatal(err)
	}
	if err := ref.Append(&b, 40); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Table(), b.Table()) {
		t.Fatalf("named blocks %v after a hold, %v without", a.Table(), b.Table())
	}
	m.Release(&held)
	if m.NumFreeBlocks() != 5 || held.Len() != 0 {
		t.Fatalf("after Release: %d free, %d tokens held", m.NumFreeBlocks(), held.Len())
	}
	m.Release(&a)
	ref.Release(&b)
	if !slices.Equal(freeList(m), freeList(ref)) {
		t.Fatalf("free list %v, without the hold %v", freeList(m), freeList(ref))
	}
}
