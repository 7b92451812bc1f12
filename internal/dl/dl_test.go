package dl

import (
	"errors"
	"testing"
	"testing/quick"
)

func buildRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	mustAdd := func(lib, mod, name string, exported bool) {
		t.Helper()
		if _, err := r.AddSymbol(lib, mod, name, exported); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd("libops.so", "mod_norm", "rmsnorm_f32", true)
	mustAdd("libops.so", "mod_norm", "layernorm_f32", true)
	mustAdd("libops.so", "mod_act", "silu_f32", true)
	mustAdd("libcublas_sim.so", "mod_gemm0", "cublas_gemm_hidden_128", false)
	mustAdd("libcublas_sim.so", "mod_gemm0", "cublas_gemm_public", true)
	return r
}

func TestDuplicateSymbolRejected(t *testing.T) {
	r := buildRegistry(t)
	if _, err := r.AddSymbol("libops.so", "mod_norm", "rmsnorm_f32", true); err == nil {
		t.Fatal("duplicate AddSymbol succeeded")
	}
}

func TestRegistryLookups(t *testing.T) {
	r := buildRegistry(t)
	lib, ok := r.Library("libops.so")
	if !ok {
		t.Fatal("libops.so missing")
	}
	if _, ok := lib.Symbol("rmsnorm_f32"); !ok {
		t.Fatal("rmsnorm_f32 missing from loader-private view")
	}
	if _, ok := lib.Symbol("nope"); ok {
		t.Fatal("unknown symbol found")
	}
	if len(lib.modules) != 2 {
		t.Fatalf("%d modules, want mod_act and mod_norm", len(lib.modules))
	}
	syms, ok := lib.Module("mod_norm")
	if !ok || len(syms) != 2 {
		t.Fatalf("Module(mod_norm) = %v, %v", syms, ok)
	}
	l, s, ok := r.FindSymbol("cublas_gemm_hidden_128")
	if !ok || l.Name != "libcublas_sim.so" || s.Exported {
		t.Fatalf("FindSymbol hidden = %v %v %v", l, s, ok)
	}
}

func TestSymbolOffsetsDistinct(t *testing.T) {
	r := buildRegistry(t)
	lib, _ := r.Library("libops.so")
	seen := map[uint64]string{}
	for _, name := range []string{"rmsnorm_f32", "layernorm_f32", "silu_f32"} {
		s, _ := lib.Symbol(name)
		if prev, dup := seen[s.Offset]; dup {
			t.Fatalf("offset %#x shared by %q and %q", s.Offset, prev, name)
		}
		seen[s.Offset] = name
	}
}

func TestDlopenUnknownLibrary(t *testing.T) {
	l := NewLinker(buildRegistry(t), 1)
	_, err := l.Dlopen("libmissing.so")
	var nf *NotFoundError
	if !errors.As(err, &nf) || nf.Kind != "library" {
		t.Fatalf("Dlopen unknown = %v", err)
	}
}

func TestDlopenIdempotent(t *testing.T) {
	l := NewLinker(buildRegistry(t), 1)
	a, err := l.Dlopen("libops.so")
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Dlopen("libops.so")
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a.Base != b.Base {
		t.Fatal("repeated Dlopen returned a different mapping")
	}
}

func TestDlsymExportedOnly(t *testing.T) {
	l := NewLinker(buildRegistry(t), 1)
	ll, _ := l.Dlopen("libcublas_sim.so")
	h, err := l.Dlsym(ll, "cublas_gemm_public")
	if err != nil {
		t.Fatal(err)
	}
	if h.Addr == 0 || h.Name != "cublas_gemm_public" || h.Library != "libcublas_sim.so" {
		t.Fatalf("Dlsym handle = %+v", h)
	}
	// Hidden symbols are invisible to dlsym — the Challenge II premise.
	if _, err := l.Dlsym(ll, "cublas_gemm_hidden_128"); err == nil {
		t.Fatal("Dlsym resolved a hidden symbol")
	}
	// But the loader-private AddrOf can still compute its address once
	// the module machinery locates it.
	s, _ := ll.Lib.Symbol("cublas_gemm_hidden_128")
	if ll.AddrOf(s) == h.Addr {
		t.Fatal("hidden and public symbols share an address")
	}
}

func TestASLRAcrossProcesses(t *testing.T) {
	r := buildRegistry(t)
	l1 := NewLinker(r, 111)
	l2 := NewLinker(r, 222)
	a, _ := l1.Dlopen("libops.so")
	b, _ := l2.Dlopen("libops.so")
	if a.Base == b.Base {
		t.Fatalf("two processes mapped libops.so at the same base %#x", a.Base)
	}
	// Same seed ⇒ same layout (replayable cold starts in tests).
	l3 := NewLinker(r, 111)
	c, _ := l3.Dlopen("libops.so")
	if a.Base != c.Base {
		t.Fatalf("same seed produced different bases: %#x vs %#x", a.Base, c.Base)
	}
}

// Property: for any set of symbols, per-process addresses preserve
// within-library offsets: addr(sym) - base == registered offset, and
// addresses of distinct symbols never collide inside one process.
func TestAddressLayoutProperty(t *testing.T) {
	f := func(seed int64, rawNames []uint8) bool {
		r := NewRegistry()
		names := make([]string, 0, len(rawNames))
		seen := map[string]bool{}
		for i, b := range rawNames {
			name := string(rune('a'+b%26)) + "_" + string(rune('0'+i%10)) + "_" + itoa(i)
			if seen[name] {
				continue
			}
			seen[name] = true
			if _, err := r.AddSymbol("lib.so", "m", name, b%2 == 0); err != nil {
				return false
			}
			names = append(names, name)
		}
		l := NewLinker(r, seed)
		ll, err := l.Dlopen("lib.so")
		if err != nil {
			return len(names) == 0 // registry empty means lib absent
		}
		addrs := map[uint64]bool{}
		for _, n := range names {
			s, ok := ll.Lib.Symbol(n)
			if !ok {
				return false
			}
			a := ll.AddrOf(s)
			if a-ll.Base != s.Offset || addrs[a] {
				return false
			}
			addrs[a] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}
