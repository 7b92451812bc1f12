// Package testonly is medusalint's module-wide check that keeps
// test-only API out of the program: it fails on any package-level
// function or method declared in a non-test file that no non-test
// file of the loaded packages references. A helper only tests call
// belongs in the owning package's _test.go files, or nowhere.
//
// An analysis.Analyzer sees one package at a time, which cannot
// answer "does anything else call this", so the check runs once over
// every package loader.Load returns for the main module and for
// bench/, whose references count as uses. Functions are named by
// import path, receiver base type and name, so a reference resolved
// through gc export data matches the declaration type-checked from
// source.
//
// Not flagged: main and init; a function's references to itself;
// methods named by reflection (MarshalJSON, UnmarshalJSON, String,
// Error); methods whose receiver's method set satisfies an interface
// in scope (declared in a loaded package or one it imports, or
// written as a literal) that has the method, since a call through
// the interface names the interface method instead; and declarations
// kept with a //medusalint:allow testonly(reason) directive on or
// directly above the line of their name.
package testonly

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/types"

	"github.com/medusa-repro/medusa/internal/lint/lintutil"
	"github.com/medusa-repro/medusa/internal/lint/loader"
	"github.com/medusa-repro/medusa/internal/lint/runner"
)

// Name labels the check's findings and selects it in medusalint -run.
const Name = "testonly"

// Doc is the check's medusalint -list line.
const Doc = "no function or method that only tests reference (module-wide)"

// reflected are method names reached through reflection or the fmt
// and errors verbs rather than by a call in source.
var reflected = map[string]bool{"MarshalJSON": true, "UnmarshalJSON": true, "String": true, "Error": true}

// funcName is the module-wide name of fn: import path, then the
// receiver's base type for a method, then the function name. It is ""
// for functions with no package (the universe's error.Error).
func funcName(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	if fn.Type().(*types.Signature).Recv() != nil {
		named := recvNamed(fn)
		if named == nil {
			return ""
		}
		name = named.Obj().Name() + "." + name
	}
	return fn.Pkg().Path() + "." + name
}

// recvNamed returns the named type of method fn's receiver, pointer
// and aliases removed, or nil for an interface literal's method.
func recvNamed(fn *types.Func) *types.Named {
	t := types.Unalias(fn.Type().(*types.Signature).Recv().Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// Check runs the module-wide pass over pkgs and returns the
// unreferenced functions no allow directive keeps, in package, file
// and declaration order.
func Check(pkgs []*loader.Package) []runner.Finding {
	used := make(map[string]bool)
	eachDecl(pkgs, func(pkg *loader.Package, decl ast.Decl) {
		self := ""
		if fd, ok := decl.(*ast.FuncDecl); ok {
			self = funcName(pkg.TypesInfo.Defs[fd.Name].(*types.Func))
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := pkg.TypesInfo.Uses[id].(*types.Func); ok {
					if name := funcName(fn); name != self {
						used[name] = true
					}
				}
			}
			return true
		})
	})

	ifaces := collectInterfaces(pkgs)
	var findings []runner.Finding
	eachDecl(pkgs, func(pkg *loader.Package, decl ast.Decl) {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Name.Name == "_" || (fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init")) {
			return
		}
		fn := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
		name := funcName(fn)
		if name == "" || used[name] || (fd.Recv != nil && (reflected[fn.Name()] || ifaces.satisfied(fn))) {
			return
		}
		findings = append(findings, runner.Finding{
			Analyzer: Name,
			Pos:      pkg.Fset.Position(fd.Name.Pos()),
			Message:  fmt.Sprintf("%s is referenced by no non-test code: delete it, move it into a _test.go file, or keep it with //medusalint:allow testonly(reason)", name),
		})
	})
	return runner.Filter(pkgs, findings)
}

// eachDecl calls fn for every top-level declaration in the non-test
// files of pkgs.
func eachDecl(pkgs []*loader.Package, fn func(*loader.Package, ast.Decl)) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if lintutil.IsTestFile(pkg.Fset, f.Package) {
				continue
			}
			for _, decl := range f.Decls {
				fn(pkg, decl)
			}
		}
	}
}

// interfaces indexes the interfaces in scope by method name. Method
// signatures are compared as strings qualified by package path, so a
// type checked from source matches an interface read from export data.
type interfaces struct {
	byMethod map[string][]*types.Interface
	seen     map[*types.Interface]bool
	methods  map[*types.Named]map[string]string
}

func collectInterfaces(pkgs []*loader.Package) *interfaces {
	s := &interfaces{
		byMethod: make(map[string][]*types.Interface),
		seen:     make(map[*types.Interface]bool),
		methods:  make(map[*types.Named]map[string]string),
	}
	s.add(types.Universe.Lookup("error").Type())
	visited := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				s.add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.TypesInfo.Types {
			s.add(tv.Type)
		}
	}
	return s
}

func (s *interfaces) add(t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok || s.seen[it] {
		return
	}
	s.seen[it] = true
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i).Name()
		s.byMethod[m] = append(s.byMethod[m], it)
	}
}

// sigString writes a signature's parameter and result types without
// their names, qualified by package path.
func sigString(t types.Type) string {
	sig := t.(*types.Signature)
	var b bytes.Buffer
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			types.WriteType(&b, tuple.At(i).Type(), (*types.Package).Path)
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// satisfied reports whether the method fn's receiver type, through
// its pointer method set, satisfies an interface in scope that
// declares a method of fn's name.
func (s *interfaces) satisfied(fn *types.Func) bool {
	candidates := s.byMethod[fn.Name()]
	if len(candidates) == 0 {
		return false
	}
	named := recvNamed(fn)
	if named == nil {
		return false
	}
	have := s.methods[named]
	if have == nil {
		have = make(map[string]string)
		ms := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < ms.Len(); i++ {
			obj := ms.At(i).Obj()
			have[obj.Name()] = sigString(obj.Type())
		}
		s.methods[named] = have
	}
	for _, it := range candidates {
		ok := true
		for i := 0; i < it.NumMethods() && ok; i++ {
			m := it.Method(i)
			ok = have[m.Name()] == sigString(m.Type())
		}
		if ok {
			return true
		}
	}
	return false
}
