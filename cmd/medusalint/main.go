// medusalint is the multichecker driver for the repository's custom
// determinism and capture-safety analyzers. Four are syntactic AST
// passes:
//
//	wallclock   — all timing flows through internal/vclock, never time.Now
//	seededrand  — every RNG derives from a config seed
//	maporder    — no order-dependent map iteration on serialization paths
//	capturesync — no sync / module loading between BeginCapture and EndCapture
//
// and three are flow-aware, built on the intraprocedural CFG and
// path-sensitive pairing engine under internal/lint/analysis:
//
//	kvpair      — every kvcache Reserve reaches Commit or Rollback on all paths
//	poolescape  — no use of a free-listed pointer after freeReq/freeInst/recycle
//	spanpair    — every obs span begun is Ended (or handed off) on all paths
//
// Standalone use (what `make lint` runs):
//
//	medusalint [-run wallclock,maporder] [-json] [packages]
//
// exits 0 when the tree is clean and 1 with file:line:col findings
// otherwise; -json reports the findings as a JSON array of
// {file,line,col,analyzer,message} objects instead of text. A
// justified //medusalint:allow analyzer(reason) directive on or
// directly above a line suppresses one finding.
//
// The binary also speaks the go vet -vettool protocol: invoked with
// -V=full it prints its version, and invoked with a *.cfg argument it
// analyzes the single package the go command described there, so
//
//	go build -o bin/medusalint ./cmd/medusalint
//	go vet -vettool=bin/medusalint ./...
//
// works too and shares vet's caching.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"github.com/medusa-repro/medusa/internal/lint/analysis"
	"github.com/medusa-repro/medusa/internal/lint/capturesync"
	"github.com/medusa-repro/medusa/internal/lint/kvpair"
	"github.com/medusa-repro/medusa/internal/lint/loader"
	"github.com/medusa-repro/medusa/internal/lint/maporder"
	"github.com/medusa-repro/medusa/internal/lint/poolescape"
	"github.com/medusa-repro/medusa/internal/lint/runner"
	"github.com/medusa-repro/medusa/internal/lint/seededrand"
	"github.com/medusa-repro/medusa/internal/lint/spanpair"
	"github.com/medusa-repro/medusa/internal/lint/wallclock"
)

// suite is every analyzer medusalint ships, in report order.
var suite = []*analysis.Analyzer{
	capturesync.Analyzer,
	kvpair.Analyzer,
	maporder.Analyzer,
	poolescape.Analyzer,
	seededrand.Analyzer,
	spanpair.Analyzer,
	wallclock.Analyzer,
}

// jsonFinding is the -json wire form of one diagnostic.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// printJSON writes findings as a JSON array (always an array, [] when
// clean) for machine consumption — CI annotation, editors, dashboards.
func printJSON(findings []runner.Finding) {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func main() {
	flagV := flag.String("V", "", "print version and exit (go vet -vettool handshake)")
	flagFlags := flag.Bool("flags", false, "print flag definitions as JSON and exit (go vet -vettool handshake)")
	flagRun := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flagList := flag.Bool("list", false, "list analyzers and exit")
	flagJSON := flag.Bool("json", false, "report findings as a JSON array of {file,line,col,analyzer,message}")
	flag.Parse()

	if *flagV != "" {
		printVersion()
		return
	}
	if *flagFlags {
		// The go command probes the tool's extra flags; medusalint
		// exposes none to vet.
		fmt.Println("[]")
		return
	}
	if *flagList {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}

	selected, err := selectAnalyzers(*flagRun)
	if err != nil {
		fatal(err)
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vetMode(args[0], selected))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}

	pkgs, err := loader.Load(".", args...)
	if err != nil {
		fatal(err)
	}
	findings, err := runner.Run(pkgs, selected)
	if err != nil {
		fatal(err)
	}
	if *flagJSON {
		printJSON(findings)
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "medusalint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "medusalint: %v\n", err)
	os.Exit(2)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// printVersion implements the -V=full handshake: the go command hashes
// this line into its vet cache key, so it includes a digest of the
// medusalint binary itself.
func printVersion() {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum := sha256.Sum256(data)
			id = fmt.Sprintf("%x", sum[:8])
		}
	}
	fmt.Printf("medusalint version devel buildID=%s\n", id)
}

func selectAnalyzers(runList string) ([]*analysis.Analyzer, error) {
	if runList == "" {
		return suite, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(runList, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// vetConfig is the subset of the go command's vet.cfg the driver needs
// (see cmd/go/internal/work and x/tools' unitchecker for the full
// schema).
type vetConfig struct {
	ID          string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
}

// vetMode analyzes the single package described by a go vet config
// file. Returns the process exit code: 0 clean, 2 findings.
func vetMode(cfgPath string, selected []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatal(fmt.Errorf("parsing %s: %v", cfgPath, err))
	}
	// The go command requires the facts output file to exist for its
	// cache even though medusalint's analyzers exchange no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("medusalint: no facts\n"), 0o666); err != nil {
			fatal(err)
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	exports := make(loader.Exports, len(cfg.PackageFile))
	for path, file := range cfg.PackageFile {
		exports[path] = file
	}
	// Imports written in source resolve through ImportMap first.
	for src, canonical := range cfg.ImportMap {
		if file, ok := exports[canonical]; ok {
			exports[src] = file
		}
	}
	var filenames []string
	for _, f := range cfg.GoFiles {
		if !filepath.IsAbs(f) {
			f = filepath.Join(cfg.Dir, f)
		}
		filenames = append(filenames, f)
	}
	fset := token.NewFileSet()
	pkg, err := loader.CheckFiles(fset, exports.Importer(fset), cfg.ImportPath, filenames)
	if err != nil {
		fatal(err)
	}
	findings, err := runner.Run([]*loader.Package{pkg}, selected)
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
