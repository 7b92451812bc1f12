// Package dl simulates the dynamic-link machinery the paper's kernel
// address restoration (§5) depends on: shared libraries with symbol
// tables, per-process address space layout randomization, and CUDA
// modules — groups of kernels that the driver loads as a unit.
//
// Two properties matter to Medusa and are reproduced here faithfully:
//
//   - Kernel addresses are randomized on every process launch (ASLR), so
//     an address captured offline is useless online; only the mangled
//     name is stable.
//   - Some kernels (the simulated cuBLAS ones) are *hidden*: they exist
//     inside a library's modules but are absent from the dlsym-visible
//     symbol table. They can only be located by loading their module and
//     enumerating it — which is exactly what triggering-kernels are for.
package dl

import (
	"fmt"
	"slices"
)

// Symbol is one kernel symbol inside a library image.
type Symbol struct {
	// Name is the kernel's mangled name, unique within the registry.
	Name string
	// Exported reports whether the symbol appears in the dlsym-visible
	// dynamic symbol table. Hidden symbols model closed-source cuBLAS
	// kernels.
	Exported bool
	// Module is the name of the CUDA module (cubin) that contains this
	// kernel within the library.
	Module string
	// Offset is the symbol's fixed offset within the library image; the
	// process-specific address is load base + offset.
	Offset uint64
}

// Library is a shared object "on disk": immutable once registered,
// shared by every simulated process.
type Library struct {
	Name    string
	symbols map[string]*Symbol
	modules map[string][]*Symbol // module name -> kernels, in registration order
	next    uint64               // next symbol offset
}

// Symbol returns the named symbol whether or not it is exported.
// (This is the loader's private view; dlsym only sees exported ones.)
func (l *Library) Symbol(name string) (*Symbol, bool) {
	s, ok := l.symbols[name]
	return s, ok
}

// Module returns the kernels of the named module in registration order.
func (l *Library) Module(name string) ([]*Symbol, bool) {
	m, ok := l.modules[name]
	return m, ok
}

// Registry is the set of installed libraries, analogous to the dynamic
// linker search path. It is immutable after setup and shared across all
// simulated processes.
type Registry struct {
	libs  map[string]*Library
	names []string // library names, kept sorted as libraries are added
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{libs: make(map[string]*Library)}
}

// AddSymbol registers a kernel symbol into lib/module, creating the
// library and module as needed, and returns the symbol. Symbol names
// must be unique within a library.
func (r *Registry) AddSymbol(lib, module, name string, exported bool) (*Symbol, error) {
	l, ok := r.libs[lib]
	if !ok {
		l = &Library{
			Name:    lib,
			symbols: make(map[string]*Symbol),
			modules: make(map[string][]*Symbol),
			next:    0x1000,
		}
		r.libs[lib] = l
		i, _ := slices.BinarySearch(r.names, lib)
		r.names = slices.Insert(r.names, i, lib)
	}
	if _, dup := l.symbols[name]; dup {
		return nil, fmt.Errorf("dl: duplicate symbol %q in %q", name, lib)
	}
	s := &Symbol{Name: name, Exported: exported, Module: module, Offset: l.next}
	l.next += 0x400 // fixed spacing between kernel entry points
	l.symbols[name] = s
	l.modules[module] = append(l.modules[module], s)
	return s, nil
}

// Library returns the named installed library.
func (r *Registry) Library(name string) (*Library, bool) {
	l, ok := r.libs[name]
	return l, ok
}

// FindSymbol locates name across all libraries (loader-private view),
// searching them in name order.
func (r *Registry) FindSymbol(name string) (*Library, *Symbol, bool) {
	for _, ln := range r.names {
		l := r.libs[ln]
		if s, ok := l.symbols[name]; ok {
			return l, s, true
		}
	}
	return nil, nil, false
}
