// Package kvpair's testdata mirrors the kvcache.Manager reservation
// API by shape: Reserve opens a speculative allocation on a
// caller-owned sequence handle that Commit publishes or Rollback
// abandons. Queue's Reserve only pre-sizes capacity and must NOT be
// matched.
package kvpair

// Seq mimics kvcache.Seq: the caller-owned handle a Reserve extends.
type Seq struct{ tokens int }

// Manager mimics kvcache.Manager: Reserve/Commit/Rollback triple.
type Manager struct{}

func (m *Manager) Reserve(q *Seq, n int) error { return nil }
func (m *Manager) Commit()                     {}
func (m *Manager) Rollback()                   {}

// Queue is a container whose Reserve pre-sizes capacity: Reserve
// alone, no transaction to pair.
type Queue struct{}

func (q *Queue) Reserve(n int) {}

func cond() bool { return false }
func work()      {}

// GoodPairedBothBranches pairs the reservation on every path: the
// error branch rolls back, the success path commits.
func GoodPairedBothBranches(m *Manager, q *Seq) error {
	if err := m.Reserve(q, 4); err != nil {
		m.Rollback()
		return err
	}
	m.Commit()
	return nil
}

// GoodDeferRollback registers the rollback before any branching; every
// downstream return is paired by the defer.
func GoodDeferRollback(m *Manager, q *Seq) error {
	err := m.Reserve(q, 4)
	defer m.Rollback()
	if err != nil {
		return err
	}
	if cond() {
		return nil
	}
	work()
	return nil
}

// GoodLoopPaired reserves per iteration and pairs before both the
// continue back edge and the fallthrough to the next iteration.
func GoodLoopPaired(m *Manager, seqs []Seq) {
	for i := range seqs {
		if err := m.Reserve(&seqs[i], 1); err != nil {
			m.Rollback()
			continue
		}
		m.Commit()
	}
}

// GoodPanicPath never returns after the reservation; panic paths are
// not returns, so nothing escapes.
func GoodPanicPath(m *Manager, q *Seq) {
	if err := m.Reserve(q, 2); err != nil {
		m.Rollback()
		panic("reserve failed")
	}
	m.Commit()
}

// GoodQueueReserve is capacity pre-sizing, not a transaction: the
// duck-typed match requires Commit and Rollback on the receiver.
func GoodQueueReserve(q *Queue) {
	q.Reserve(1024)
}

// BadNoPairing never commits or rolls back.
func BadNoPairing(m *Manager, q *Seq) error {
	if err := m.Reserve(q, 4); err != nil { // want `Reserve can reach return without Commit or Rollback`
		return err
	}
	work()
	return nil
}

// BadErrorBranchLeaks pairs the success path but returns the error
// with the reservation still open.
func BadErrorBranchLeaks(m *Manager, q *Seq) error {
	if err := m.Reserve(q, 4); err != nil { // want `Reserve can reach return without Commit or Rollback`
		return err
	}
	m.Commit()
	return nil
}

// BadBreakLeaks escapes the loop between Reserve and Commit.
func BadBreakLeaks(m *Manager, seqs []Seq) {
	for i := range seqs {
		if err := m.Reserve(&seqs[i], 1); err != nil { // want `Reserve can reach return without Commit or Rollback`
			break
		}
		m.Commit()
	}
}

// AllowedHandoff demonstrates the escape hatch for deliberate
// cross-function handoff, which the intraprocedural pass cannot see.
func AllowedHandoff(m *Manager, q *Seq) error {
	err := m.Reserve(q, 8) //medusalint:allow kvpair(reservation ownership transfers to the caller, which commits after planning)
	return err
}
