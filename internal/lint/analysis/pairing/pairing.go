// Package pairing is the path-sensitive query engine the flow-aware
// medusalint analyzers share. Given a cfg.Graph, it answers the two
// questions resource-pairing invariants reduce to, in the spirit of
// x/tools' lostcancel:
//
//   - EscapesToExit: starting just after an acquisition node, does SOME
//     path reach the function exit without passing a node that releases
//     the resource? If yes, the acquisition is unpaired on at least one
//     return path (kvpair: a Reserve that can return without Commit or
//     Rollback; spanpair: a span that can return without End).
//
//   - Unkilled: starting from a point, which "use" nodes are reachable
//     on SOME path that has not passed a "kill" node? (poolescape: uses
//     of a pointer after freeReq with no reassignment in between.)
//
// Both queries are exists-path, not all-paths: they deliberately ignore
// branch conditions (path feasibility), which makes them conservative —
// every real violation is on some CFG path, and the //medusalint:allow
// escape hatch covers the rare infeasible-path report. Classification
// is per CFG node via a caller-supplied function, so the engine knows
// nothing about what a resource is.
package pairing

import (
	"go/ast"

	"github.com/medusa-repro/medusa/internal/lint/analysis/cfg"
)

// Class is a CFG node's role in one query.
type Class int

const (
	// ClassNone nodes are transparent: paths pass through them.
	ClassNone Class = iota
	// ClassKill nodes stop path propagation: the resource was released,
	// the pointer reassigned, the guard evaluated.
	ClassKill
	// ClassUse nodes are what Unkilled collects when reached on an
	// unkilled path. EscapesToExit treats them as transparent.
	ClassUse
)

// Pos addresses one node inside a graph: Block.Nodes[Index]. Index -1
// addresses the point before the block's first node (used to start a
// traversal at function entry).
type Pos struct {
	Block *cfg.Block
	Index int
}

// Find locates the CFG node containing target (by position interval) —
// e.g. the statement node holding a call expression buried in an if
// condition. When intervals nest (a RangeStmt head node spans its whole
// loop, including body statements that are their own nodes), the
// SMALLEST containing node wins: that is the one whose execution point
// actually evaluates the target. Returns ok=false when target is not
// inside any node of a reachable block (dead code).
func Find(g *cfg.Graph, target ast.Node) (Pos, bool) {
	var (
		best     Pos
		bestSpan int64 = -1
	)
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if n.Pos() <= target.Pos() && target.End() <= n.End() {
				span := int64(n.End() - n.Pos())
				if bestSpan < 0 || span < bestSpan {
					best, bestSpan = Pos{Block: b, Index: i}, span
				}
			}
		}
	}
	return best, bestSpan >= 0
}

// EscapesToExit reports whether some path starting just AFTER start
// reaches the function exit without passing a ClassKill node.
// A DeferStmt classified ClassKill counts as a kill immediately: the
// deferred release is registered on this path and will run at every
// subsequent return, so all exits downstream of it are paired.
func EscapesToExit(g *cfg.Graph, start Pos, classify func(ast.Node) Class) bool {
	escaped := false
	walk(g, start, classify, func(ast.Node) {}, func() { escaped = true })
	return escaped
}

// Unkilled returns the ClassUse nodes reachable from the point just
// after start on some path that has not passed a ClassKill node, in
// first-reached order. A node that is both (classify returns ClassKill)
// stops the path without being collected — callers wanting
// use-then-kill semantics classify such nodes ClassUse.
func Unkilled(g *cfg.Graph, start Pos, classify func(ast.Node) Class) []ast.Node {
	var uses []ast.Node
	seen := map[ast.Node]bool{}
	walk(g, start, classify, func(n ast.Node) {
		if !seen[n] {
			seen[n] = true
			uses = append(uses, n)
		}
	}, func() {})
	return uses
}

// walk is the shared traversal: from the point after start, visit nodes
// in path order, stopping each path at a ClassKill node, reporting
// ClassUse nodes via onUse and exit-block arrival via onExit. Blocks
// are visited at most once from their top (the partial start block is
// handled separately), which suffices: classification is path-history
// independent, so reaching a block twice adds nothing.
func walk(g *cfg.Graph, start Pos, classify func(ast.Node) Class, onUse func(ast.Node), onExit func()) {
	visited := make(map[int]bool, len(g.Blocks))
	var visit func(b *cfg.Block, from int)
	visit = func(b *cfg.Block, from int) {
		if from == 0 {
			if visited[b.Index] {
				return
			}
			visited[b.Index] = true
		}
		if b == g.Exit {
			onExit()
			return
		}
		for i := from; i < len(b.Nodes); i++ {
			switch classify(b.Nodes[i]) {
			case ClassKill:
				return
			case ClassUse:
				onUse(b.Nodes[i])
			}
		}
		for _, succ := range b.Succs {
			visit(succ, 0)
		}
	}
	visit(start.Block, start.Index+1)
}
