package testonly

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/medusa-repro/medusa/internal/lint/loader"
)

// TestFixture runs the check over testdata/src/a: unreferenced
// functions and methods are flagged, a function that only refers to
// itself or that only a test file calls included, and so is one whose
// allow directive names another check; main, init, an interface
// method, a reflected method and a function kept by a testonly allow
// directive are not.
func TestFixture(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join(cwd, "testdata", "src", "a"), filepath.Join(cwd, "..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range Check([]*loader.Package{pkg}) {
		if f.Analyzer != Name {
			t.Errorf("finding from %q, want %q", f.Analyzer, Name)
		}
		msg, _, _ := strings.Cut(f.Message, ":")
		got = append(got, msg)
	}
	want := []string{
		"a.Unused is referenced by no non-test code",
		"a.Recursive is referenced by no non-test code",
		"a.Misdirected is referenced by no non-test code",
		"a.Square.Perimeter is referenced by no non-test code",
		"a.Box.Area is referenced by no non-test code",
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
