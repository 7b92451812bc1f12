// Package kvpair defines the flow-aware medusalint analyzer that
// checks kvcache reservation pairing: every call to a Reserve method
// must reach a Commit or Rollback on the same manager type on ALL
// paths before the function returns. It is the static mirror of the
// block-conservation property test — an unpaired Reserve leaks
// reserved blocks exactly the way an unpaired speculative allocation
// would leak KV slots in Medusa's materialized startup path.
//
// Matching is duck-typed rather than import-path-based so the testdata
// fixtures (and any future manager) are covered: a call is a
// reservation when the callee is a method named Reserve whose receiver
// type also declares Commit and Rollback methods. This deliberately
// excludes a Reserve that only pre-sizes capacity (no transaction to
// pair).
//
// The check is an exists-path query over the intraprocedural CFG
// (pairing.EscapesToExit): a diagnostic means some branch/loop/return
// path escapes the function with the reservation still open. Paths
// ending in panic are not returns and are not counted. A Commit or
// Rollback inside a defer pairs every return downstream of the defer
// statement.
package kvpair

import (
	"go/ast"
	"go/types"

	"github.com/medusa-repro/medusa/internal/lint/analysis"
	"github.com/medusa-repro/medusa/internal/lint/analysis/cfg"
	"github.com/medusa-repro/medusa/internal/lint/analysis/pairing"
	"github.com/medusa-repro/medusa/internal/lint/lintutil"
)

// Analyzer is the kvpair pass.
var Analyzer = &analysis.Analyzer{
	Name: "kvpair",
	Doc:  "every kvcache Reserve must reach Commit or Rollback on all return paths",
	Run:  run,
}

// receiverNamed unwraps a method's receiver to its *types.Named type.
func receiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// hasMethod reports whether named declares a method with the name.
func hasMethod(named *types.Named, name string) bool {
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// isManagerMethod reports whether fn is the named method of a
// reservation manager: a type declaring Reserve, Commit and Rollback.
func isManagerMethod(fn *types.Func, name string) (*types.Named, bool) {
	if fn == nil || fn.Name() != name {
		return nil, false
	}
	named := receiverNamed(fn)
	if named == nil {
		return nil, false
	}
	if !hasMethod(named, "Reserve") || !hasMethod(named, "Commit") || !hasMethod(named, "Rollback") {
		return nil, false
	}
	return named, true
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || lintutil.IsTestFile(pass.Fset, fd.Pos()) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Collect the Reserve call sites first; most functions have none
	// and never pay for a CFG.
	type site struct {
		call    *ast.CallExpr
		manager *types.Named
	}
	var sites []site
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // function literals are separate flows; keep the pass intraprocedural
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if named, ok := isManagerMethod(lintutil.Callee(pass.TypesInfo, call), "Reserve"); ok {
			sites = append(sites, site{call, named})
		}
		return true
	})
	if len(sites) == 0 {
		return
	}

	g := cfg.New(fd.Body)
	for _, s := range sites {
		start, ok := pairing.Find(g, s.call)
		if !ok {
			continue // dead code
		}
		classify := func(n ast.Node) pairing.Class {
			killed := false
			ast.Inspect(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := lintutil.Callee(pass.TypesInfo, call)
				if fn == nil {
					return true
				}
				if fn.Name() == "Commit" || fn.Name() == "Rollback" {
					if receiverNamed(fn) == s.manager {
						killed = true
						return false
					}
				}
				return true
			})
			if killed {
				return pairing.ClassKill
			}
			return pairing.ClassNone
		}
		if pairing.EscapesToExit(g, start, classify) {
			pass.Reportf(s.call.Pos(), "%s.Reserve can reach return without Commit or Rollback on some path: reserved blocks leak (pair every reservation, kvcache block conservation)", s.manager.Obj().Name())
		}
	}
}
