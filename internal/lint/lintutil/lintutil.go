// Package lintutil holds the small AST/type helpers shared by the
// medusalint analyzers.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// IsTestFile reports whether the file containing pos is a _test.go
// file. The determinism invariants bind the simulator, not its tests:
// tests measure real elapsed time and build throwaway RNGs freely.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// Callee resolves the static *types.Func a call expression invokes, or
// nil for dynamic calls (function values, interface methods resolve to
// the interface method object, which is still returned).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// FuncObj returns the *types.Func declared by a FuncDecl.
func FuncObj(info *types.Info, decl *ast.FuncDecl) *types.Func {
	fn, _ := info.Defs[decl.Name].(*types.Func)
	return fn
}

// LocalCallGraph builds the static, package-local call graph: for each
// function or method declared in the package, the set of
// same-package functions it calls directly. Dynamic calls through
// function values are invisible, which keeps the analyzers
// conservative-by-name rather than conservative-by-supergraph.
func LocalCallGraph(pkg *types.Package, info *types.Info, files []*ast.File) map[*types.Func][]*types.Func {
	graph := make(map[*types.Func][]*types.Func)
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			caller := FuncObj(info, fd)
			if caller == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := Callee(info, call); callee != nil && callee.Pkg() == pkg {
					graph[caller] = append(graph[caller], callee)
				}
				return true
			})
		}
	}
	return graph
}
