// Package runner executes medusalint analyzers over loaded packages
// and applies the //medusalint:allow escape hatch.
//
// An allow directive is written on (or directly above) the offending
// line:
//
//	t := time.Now() //medusalint:allow wallclock(process-level timeout, not simulated time)
//
// The directive names the analyzer it silences and must carry a
// non-empty justification in parentheses; a directive without one is
// itself a finding. Suppression is deliberately narrow — one line per
// directive — so an allowance never silently covers new code.
package runner

import (
	"fmt"
	"go/token"
	"maps"
	"slices"
	"sort"
	"strings"

	"github.com/medusa-repro/medusa/internal/lint/analysis"
	"github.com/medusa-repro/medusa/internal/lint/loader"
)

// Finding is one diagnostic surviving allow-filtering.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// allowKey identifies one (file, line, analyzer) suppression.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

const allowPrefix = "medusalint:allow"

// parseAllow parses "medusalint:allow name(reason)". ok reports whether
// the comment is an allow directive at all; badForm reports a directive
// with a missing analyzer name or empty justification.
func parseAllow(text string) (name, reason string, ok, badForm bool) {
	text = strings.TrimSpace(strings.TrimPrefix(text, "//"))
	if !strings.HasPrefix(text, allowPrefix) {
		return "", "", false, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
	open := strings.IndexByte(rest, '(')
	close := strings.LastIndexByte(rest, ')')
	if open <= 0 || close < open {
		return "", "", true, true
	}
	name = strings.TrimSpace(rest[:open])
	reason = strings.TrimSpace(rest[open+1 : close])
	if name == "" || reason == "" {
		return "", "", true, true
	}
	return name, reason, true, false
}

// collectAllows scans a package's comments. It returns the suppression
// set and findings for malformed directives.
func collectAllows(pkg *loader.Package) (map[allowKey]bool, []Finding) {
	allows := make(map[allowKey]bool)
	var bad []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, _, ok, badForm := parseAllow(c.Text)
				pos := pkg.Fset.Position(c.Pos())
				if !ok {
					continue
				}
				if badForm {
					bad = append(bad, Finding{
						Analyzer: "medusalint",
						Pos:      pos,
						Message:  "malformed allow directive: want //medusalint:allow analyzer(justification)",
					})
					continue
				}
				// The directive covers its own line and the next one
				// (directive-above-the-statement style).
				allows[allowKey{pos.Filename, pos.Line, name}] = true
				allows[allowKey{pos.Filename, pos.Line + 1, name}] = true
			}
		}
	}
	return allows, bad
}

// Filter drops the findings that a //medusalint:allow directive in
// pkgs silences. Module-wide checks, which report outside Run, use it;
// Run reports the malformed directives.
func Filter(pkgs []*loader.Package, findings []Finding) []Finding {
	allows := make(map[allowKey]bool)
	for _, pkg := range pkgs {
		a, _ := collectAllows(pkg)
		maps.Copy(allows, a)
	}
	return slices.DeleteFunc(findings, func(f Finding) bool {
		return allows[allowKey{f.Pos.Filename, f.Pos.Line, f.Analyzer}]
	})
}

// Run applies every analyzer to every package and returns the findings
// that survive //medusalint:allow filtering, sorted by position.
func Run(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		allows, bad := collectAllows(pkg)
		findings = append(findings, bad...)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			pass.Report = func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				if allows[allowKey{pos.Filename, pos.Line, a.Name}] {
					return
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("runner: %s on %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
