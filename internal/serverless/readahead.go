package serverless

import "github.com/medusa-repro/medusa/internal/workload"

// Arrival generation depends on no simulation state, so simulate runs
// the ArrivalSource on a producer goroutine of its own that fills a
// fixed ring of arrival blocks ahead of the event loop. The loop reads
// arrivals out of the current block and hands each drained block back
// for refilling; everything it does with an arrival is unchanged, so
// outputs are byte-identical to pulling the source directly.

const (
	// readAheadBlocks is the ring size and readAheadBlock the arrivals
	// per block: the producer runs at most this far ahead of the loop.
	readAheadBlocks = 4
	readAheadBlock  = 512
)

// arrival is one (deployment, request) pair read ahead of the loop.
type arrival struct {
	dep int
	req workload.Request
}

// arrivalBlock is one ring slot. The producer's final block is marked
// last and carries how the stream ended: the source's Err, or the
// value a panicking Next raised.
type arrivalBlock struct {
	arr      [readAheadBlock]arrival
	n        int
	last     bool
	err      error
	panicked bool
	panicVal any
}

// readAhead is the loop's side of the ring: an ArrivalSource whose Next
// and Err deliver exactly what the wrapped source produced, in order.
// Blocks travel producer → full → loop → free → producer, so at most
// readAheadBlocks·readAheadBlock arrivals are ever buffered and the
// ring allocates nothing after start.
type readAhead struct {
	full, free chan *arrivalBlock
	stop       chan struct{}
	exited     chan struct{}
	// cur is the block being read: arrivals [i, n) are undelivered.
	cur  *arrivalBlock
	i, n int
}

// startReadAhead launches the producer on src. The caller must call
// close once it is done with the stream, on every path.
func startReadAhead(src ArrivalSource) *readAhead {
	// Both channels hold the whole ring, so handing a block on never
	// waits; only the producer waits, for a free block.
	ra := &readAhead{
		full:   make(chan *arrivalBlock, readAheadBlocks),
		free:   make(chan *arrivalBlock, readAheadBlocks),
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	for range readAheadBlocks {
		ra.free <- new(arrivalBlock)
	}
	go ra.produce(src)
	return ra
}

// produce fills free blocks from src until the stream ends or close is
// called.
func (ra *readAhead) produce(src ArrivalSource) {
	defer close(ra.exited)
	var b *arrivalBlock
	defer func() {
		if p := recover(); p != nil {
			b.last, b.panicked, b.panicVal = true, true, p
			ra.full <- b
		}
	}()
	for {
		select {
		case b = <-ra.free:
		case <-ra.stop:
			return
		}
		b.n = 0
		for b.n < readAheadBlock {
			dep, req, ok := src.Next()
			if !ok {
				b.last, b.err = true, src.Err()
				break
			}
			b.arr[b.n] = arrival{dep: dep, req: req}
			b.n++
		}
		ra.full <- b
		if b.last {
			return
		}
	}
}

// Next returns the next arrival the producer read. At the end of the
// stream it re-raises a panic from the source's Next on this goroutine.
func (ra *readAhead) Next() (int, workload.Request, bool) {
	if ra.i < ra.n {
		a := &ra.cur.arr[ra.i]
		ra.i++
		return a.dep, a.req, true
	}
	return ra.nextBlock()
}

// nextBlock hands the drained block back to the producer and takes the
// next full one.
func (ra *readAhead) nextBlock() (int, workload.Request, bool) {
	for ra.i == ra.n {
		if ra.cur != nil {
			if ra.cur.last {
				if ra.cur.panicked {
					panic(ra.cur.panicVal)
				}
				return 0, workload.Request{}, false
			}
			ra.free <- ra.cur
		}
		ra.cur = <-ra.full
		ra.i, ra.n = 0, ra.cur.n
	}
	return ra.Next()
}

// Err reports the source's error once Next has returned false.
func (ra *readAhead) Err() error {
	if ra.cur == nil || !ra.cur.last {
		return nil
	}
	return ra.cur.err
}

// close stops the producer and waits for it to exit. After close
// returns the producer touches neither the source nor the ring, so the
// caller may read any state the source keeps.
func (ra *readAhead) close() {
	close(ra.stop)
	<-ra.exited
}
