// Package analysistest runs a medusalint analyzer over a golden
// testdata package and checks its diagnostics against expectations
// embedded in the source, mirroring the x/tools analysistest
// convention:
//
//	time.Now() // want `wall clock`
//
// A `// want` comment holds one or more quoted regular expressions;
// each must be matched by a diagnostic reported on that line, and every
// diagnostic must be claimed by a want. Testdata lives under
// testdata/src/<pkg>/ next to the analyzer's test. Packages load
// through the same loader and runner as cmd/medusalint, so the
// //medusalint:allow escape hatch is exercised exactly as in
// production.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/medusa-repro/medusa/internal/lint/analysis"
	"github.com/medusa-repro/medusa/internal/lint/loader"
	"github.com/medusa-repro/medusa/internal/lint/runner"
)

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// quoted matches one double-quoted or backquoted expectation string.
var quoted = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// moduleRoot walks up from dir to the directory holding go.mod.
func moduleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysistest: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// collectWants extracts `// want` expectations from a loaded package.
func collectWants(t *testing.T, pkg *loader.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(text, "want ")
				matches := quoted.FindAllStringSubmatch(rest, -1)
				if len(matches) == 0 {
					t.Errorf("%s: want comment with no quoted pattern", pos)
					continue
				}
				for _, m := range matches {
					pat := m[1]
					if m[2] != "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", pos, pat, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}
	return wants
}

// Run loads testdata/src/<pkgname> relative to the calling test's
// working directory, applies the analyzer through the production
// runner, and diffs diagnostics against `// want` comments.
//
//medusalint:allow testonly(the analyzers' shared test harness; every analyzer's test calls it)
func Run(t *testing.T, a *analysis.Analyzer, pkgname string) {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := moduleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(cwd, "testdata", "src", pkgname)
	pkg, err := loader.LoadDir(dir, root)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	wants := collectWants(t, pkg)
	findings, err := runner.Run([]*loader.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}
