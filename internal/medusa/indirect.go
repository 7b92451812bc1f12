package medusa

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"github.com/medusa-repro/medusa/internal/cuda"
)

// §8 of the paper scopes Medusa to host-side allocations and direct
// pointers, noting that indirect pointers — device buffers whose
// *contents* are pointers to other buffers — would escape the indirect
// index pointer table and silently survive restoration with stale
// addresses. The paper reports finding none across 139364 nodes but
// keeps validation as the safety net. This scanner makes the check
// explicit: it inspects the contents of every buffer a graph references
// and flags 8-byte-aligned words that decode to addresses inside other
// live allocations.

// IndirectPointerWarning flags a suspected pointer stored inside a
// referenced buffer.
type IndirectPointerWarning struct {
	// AllocIndex is the buffer holding the suspicious word.
	AllocIndex int
	// Offset is the word's byte offset within the buffer.
	Offset uint64
	// Value is the suspicious word.
	Value uint64
	// TargetIndex is the live allocation the value points into.
	TargetIndex int
}

// String renders the warning the way the offline report prints it.
func (w IndirectPointerWarning) String() string {
	return fmt.Sprintf("allocation %d offset %d holds %#x, which points into allocation %d",
		w.AllocIndex, w.Offset, w.Value, w.TargetIndex)
}

// liveSpan is one allocation live at capture end, keyed by its address
// range.
type liveSpan struct {
	index int
	addr  uint64
	size  uint64
}

// ScanIndirectPointers inspects the contents of every allocation that a
// captured graph references through a pointer parameter, looking for
// stored device addresses. It requires a functional device (contents
// exist only there) and should run at the end of the offline capturing
// stage, before the process state is torn down.
//
// The scan checks every 8-byte word of every referenced buffer, so the
// live-span lookup is a binary search over address-sorted spans (live
// ranges are disjoint, so at most one span can contain a value) and the
// per-buffer scans fan out across GOMAXPROCS workers. Warnings come
// back sorted by (AllocIndex, Offset) regardless of worker count.
func ScanIndirectPointers(rec *Recorder, proc *cuda.Process, art *Artifact) ([]IndirectPointerWarning, error) {
	if err := rec.check(); err != nil {
		return nil, err
	}
	// Live allocations at capture end, sorted by address.
	freed := make(map[int]bool)
	addrOf := make(map[int]liveSpan)
	for _, ev := range rec.events[:rec.captureStageEnd] {
		if ev.free {
			freed[ev.allocIndex] = true
			continue
		}
		freed[ev.allocIndex] = false
		addrOf[ev.allocIndex] = liveSpan{index: ev.allocIndex, addr: ev.addr, size: ev.size}
	}
	var live []liveSpan
	for idx, sp := range addrOf {
		if !freed[idx] {
			live = append(live, sp)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].addr < live[j].addr })
	locate := func(v uint64) (int, bool) {
		i := sort.Search(len(live), func(i int) bool { return live[i].addr > v }) - 1
		if i < 0 || v >= live[i].addr+live[i].size {
			return 0, false
		}
		return live[i].index, true
	}

	// Buffers referenced by any graph pointer parameter, in index order
	// so the scan output is deterministic.
	referenced := make(map[int]bool)
	for _, g := range art.Graphs {
		for _, n := range g.Nodes {
			for _, p := range n.Params {
				if p.Pointer {
					referenced[int(p.AllocIndex)] = true
				}
			}
		}
	}
	var targets []int
	for idx := range referenced {
		if !freed[idx] {
			targets = append(targets, idx)
		}
	}
	sort.Ints(targets)

	perBuffer := make([][]IndirectPointerWarning, len(targets))
	errs := make([]error, len(targets))
	scan := func(ti int) {
		idx := targets[ti]
		sp := addrOf[idx]
		buf, ok := proc.Device().Buffer(sp.addr)
		if !ok {
			return
		}
		contents, err := buf.Snapshot()
		if err != nil {
			errs[ti] = fmt.Errorf("medusa: indirect scan of allocation %d: %w", idx, err)
			return
		}
		for off := 0; off+8 <= len(contents); off += 8 {
			v := binary.LittleEndian.Uint64(contents[off:])
			if v < ptrPrefixLo || v >= ptrPrefixHi {
				continue
			}
			if target, hit := locate(v); hit {
				perBuffer[ti] = append(perBuffer[ti], IndirectPointerWarning{
					AllocIndex:  idx,
					Offset:      uint64(off),
					Value:       v,
					TargetIndex: target,
				})
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(targets) {
		workers = len(targets)
	}
	if workers > 1 {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ti := range jobs {
					scan(ti)
				}
			}()
		}
		for ti := range targets {
			jobs <- ti
		}
		close(jobs)
		wg.Wait()
	} else {
		for ti := range targets {
			scan(ti)
		}
	}

	var warnings []IndirectPointerWarning
	for ti := range targets {
		if errs[ti] != nil {
			return nil, errs[ti]
		}
		warnings = append(warnings, perBuffer[ti]...)
	}
	return warnings, nil
}
