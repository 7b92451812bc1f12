package pairing

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"github.com/medusa-repro/medusa/internal/lint/analysis/cfg"
)

// build parses src as a function body and returns its CFG.
func build(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	file := "package p\nfunc f() {\n" + src + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", file, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return cfg.New(f.Decls[0].(*ast.FuncDecl).Body)
}

// nodeText renders the source fragment of a statement node for
// classification by substring, which keeps the fixtures readable.
func nodeText(n ast.Node) string {
	switch s := n.(type) {
	case *ast.ExprStmt:
		if c, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok {
				return id.Name
			}
		}
	case *ast.DeferStmt:
		if id, ok := s.Call.Fun.(*ast.Ident); ok {
			return "defer " + id.Name
		}
	case *ast.AssignStmt:
		if id, ok := s.Lhs[0].(*ast.Ident); ok {
			return id.Name + "="
		}
	}
	return ""
}

// classifier builds a classify func from name sets.
func classifier(kills, uses string) func(ast.Node) Class {
	killSet := strings.Fields(kills)
	useSet := strings.Fields(uses)
	return func(n ast.Node) Class {
		txt := nodeText(n)
		for _, k := range killSet {
			if txt == k || txt == "defer "+k {
				return ClassKill
			}
		}
		for _, u := range useSet {
			if txt == u {
				return ClassUse
			}
		}
		return ClassNone
	}
}

// findCall locates the Pos of the statement calling name.
func findCall(t *testing.T, g *cfg.Graph, name string) Pos {
	t.Helper()
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if nodeText(n) == name {
				return Pos{Block: b, Index: i}
			}
		}
	}
	t.Fatalf("no call to %s in graph", name)
	return Pos{}
}

func TestEscapesStraightLinePaired(t *testing.T) {
	g := build(t, "acquire()\nrelease()")
	if EscapesToExit(g, findCall(t, g, "acquire"), classifier("release", "")) {
		t.Fatal("acquire immediately followed by release must not escape")
	}
}

func TestEscapesMissingRelease(t *testing.T) {
	g := build(t, "acquire()\nwork()")
	if !EscapesToExit(g, findCall(t, g, "acquire"), classifier("release", "")) {
		t.Fatal("acquire with no release must escape")
	}
}

func TestEscapesOneBranchLeaks(t *testing.T) {
	g := build(t, `
acquire()
if cond() {
	release()
	return
}
work()`)
	if !EscapesToExit(g, findCall(t, g, "acquire"), classifier("release", "")) {
		t.Fatal("release on only one branch must escape via the other")
	}
}

func TestEscapesBothBranchesPaired(t *testing.T) {
	g := build(t, `
acquire()
if cond() {
	rollback()
	return
}
commit()`)
	if EscapesToExit(g, findCall(t, g, "acquire"), classifier("rollback commit", "")) {
		t.Fatal("rollback-or-commit on every path must not escape")
	}
}

func TestEscapesDeferCountsImmediately(t *testing.T) {
	g := build(t, `
acquire()
defer release()
if cond() {
	return
}
work()`)
	if EscapesToExit(g, findCall(t, g, "acquire"), classifier("release", "")) {
		t.Fatal("deferred release must pair all downstream returns")
	}
}

func TestEscapesPanicPathIsNotAReturn(t *testing.T) {
	g := build(t, "acquire()\npanic(\"boom\")")
	if EscapesToExit(g, findCall(t, g, "acquire"), classifier("release", "")) {
		t.Fatal("a path ending in panic does not reach exit")
	}
}

func TestEscapesLoopReacquire(t *testing.T) {
	// Release inside the loop pairs the acquisition before the back
	// edge; the loop-exit path after release has no live acquisition...
	// but the exists-path query starts AFTER acquire, and the path
	// acquire -> loop-head -> loop-exit (zero iterations) escapes only
	// if the loop can be skipped before release runs.
	g := build(t, `
for iter() {
	acquire()
	if bad() {
		rollback()
		continue
	}
	commit()
}`)
	if EscapesToExit(g, findCall(t, g, "acquire"), classifier("rollback commit", "")) {
		t.Fatal("loop body pairing on both continue and fallthrough must not escape")
	}
}

func TestEscapesLoopBreakLeaks(t *testing.T) {
	g := build(t, `
for iter() {
	acquire()
	if bad() {
		break
	}
	commit()
}`)
	if !EscapesToExit(g, findCall(t, g, "acquire"), classifier("commit", "")) {
		t.Fatal("break between acquire and commit must escape")
	}
}

func TestUnkilledCollectsUseAfterFree(t *testing.T) {
	g := build(t, "free()\nuse()")
	uses := Unkilled(g, findCall(t, g, "free"), classifier("", "use"))
	if len(uses) != 1 {
		t.Fatalf("got %d uses, want 1", len(uses))
	}
}

func TestUnkilledReassignmentKills(t *testing.T) {
	g := build(t, "free()\np=newThing()\nuse()")
	uses := Unkilled(g, findCall(t, g, "free"), classifier("p=", "use"))
	if len(uses) != 0 {
		t.Fatalf("got %d uses after reassignment, want 0", len(uses))
	}
}

func TestUnkilledLoopBackEdge(t *testing.T) {
	// free at the end of a loop body: the back edge reaches use() at
	// the top of the next iteration unless the loop head reassigns.
	g := build(t, `
for iter() {
	use()
	free()
}`)
	uses := Unkilled(g, findCall(t, g, "free"), classifier("", "use"))
	if len(uses) != 1 {
		t.Fatalf("got %d uses via back edge, want 1", len(uses))
	}
}

func TestUnkilledGuardKillsBothBranchJoin(t *testing.T) {
	g := build(t, `
if cond() {
	guard()
} else {
	guard()
}
use()`)
	uses := Unkilled(g, Pos{Block: g.Entry, Index: -1}, classifier("guard", "use"))
	if len(uses) != 0 {
		t.Fatalf("got %d uses with guards on all paths, want 0", len(uses))
	}
}

func TestUnkilledGuardOnOneBranchOnly(t *testing.T) {
	g := build(t, `
if cond() {
	guard()
}
use()`)
	uses := Unkilled(g, Pos{Block: g.Entry, Index: -1}, classifier("guard", "use"))
	if len(uses) != 1 {
		t.Fatalf("got %d uses with guard on one branch, want 1", len(uses))
	}
}

func TestFindLocatesNestedExpr(t *testing.T) {
	g := build(t, `
if acquireCond() {
	work()
}`)
	// Locate the call buried in the if condition: Find must return the
	// node (the IfStmt header entry) containing it.
	var call *ast.CallExpr
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			ast.Inspect(n, func(x ast.Node) bool {
				if c, ok := x.(*ast.CallExpr); ok && call == nil {
					call = c
				}
				return true
			})
		}
	}
	if call == nil {
		t.Fatal("no call found in any block")
	}
	if _, ok := Find(g, call); !ok {
		t.Fatal("Find must locate a call nested in an if condition")
	}
}
