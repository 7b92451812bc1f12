package dl

import (
	"fmt"
	"math/rand"
)

// NotFoundError is returned by Dlopen and Dlsym lookups that fail. For
// Dlsym, hidden symbols fail exactly like missing ones — a process
// cannot tell the difference, which is why the paper needs module
// enumeration for cuBLAS kernels.
type NotFoundError struct {
	Kind string // "library" or "symbol"
	Name string
}

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("dl: %s %q not found", e.Kind, e.Name)
}

// LoadedLibrary is a library mapped into one process at a randomized
// base address.
type LoadedLibrary struct {
	Lib  *Library
	Base uint64
}

// AddrOf returns the process-specific address of a symbol of this
// library.
func (ll *LoadedLibrary) AddrOf(s *Symbol) uint64 { return ll.Base + s.Offset }

// SymbolHandle is what Dlsym returns: a resolved, process-specific
// function address plus identifying metadata. It corresponds to the
// void* handle passed to cudaGetFuncBySymbol.
type SymbolHandle struct {
	Library string
	Name    string
	Addr    uint64
}

// Linker is one process's dynamic-linker state: which libraries are
// mapped and at which randomized bases.
type Linker struct {
	reg    *Registry
	rng    *rand.Rand
	loaded map[string]*LoadedLibrary
}

// NewLinker creates a process linker. The seed determines the ASLR
// layout: different seeds model different process launches.
func NewLinker(reg *Registry, seed int64) *Linker {
	return &Linker{
		reg:    reg,
		rng:    rand.New(rand.NewSource(seed)),
		loaded: make(map[string]*LoadedLibrary),
	}
}

// Dlopen maps the named library (idempotently) and returns it.
func (l *Linker) Dlopen(name string) (*LoadedLibrary, error) {
	if ll, ok := l.loaded[name]; ok {
		return ll, nil
	}
	lib, ok := l.reg.Library(name)
	if !ok {
		return nil, &NotFoundError{Kind: "library", Name: name}
	}
	// ASLR: high canonical code addresses with per-process, per-library
	// jitter, 4 KiB aligned, in a range disjoint from the device heap.
	base := uint64(0x7fa0_0000_0000) + uint64(l.rng.Int63n(1<<36))&^0xfff
	ll := &LoadedLibrary{Lib: lib, Base: base}
	l.loaded[name] = ll
	return ll, nil
}

// Dlsym resolves an *exported* symbol in a loaded library. Hidden
// symbols return NotFoundError even though they exist in the image.
func (l *Linker) Dlsym(ll *LoadedLibrary, name string) (SymbolHandle, error) {
	s, ok := ll.Lib.Symbol(name)
	if !ok || !s.Exported {
		return SymbolHandle{}, &NotFoundError{Kind: "symbol", Name: name}
	}
	return SymbolHandle{Library: ll.Lib.Name, Name: name, Addr: ll.AddrOf(s)}, nil
}
