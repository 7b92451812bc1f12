// Command medusa-inspect materializes a model and dumps the artifact's
// contents: graphs, parameter classification, the kernel name table
// with restoration routes, permanent buffers, and the allocation
// sequence summary. Useful for understanding what Medusa saves.
//
// The `artifacts` subcommand instead lists a set of artifacts with
// per-section wire-format size breakdowns and the weight the cluster
// cache's cost-aware eviction policy assigns each one.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/storage"
)

func main() {
	// Subcommand form: `medusa-inspect artifacts [-models ...]` lists
	// artifacts with per-section size breakdowns and cache weights.
	if len(os.Args) > 1 && os.Args[1] == "artifacts" {
		if err := runArtifacts(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("model", "Qwen1.5-0.5B", "model name")
	maxGraphs := flag.Int("graphs", 3, "how many graphs to detail")
	dotBatch := flag.Int("dot", 0, "emit the captured graph for this batch size as Graphviz DOT and exit")
	flag.Parse()

	cfg, err := model.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	store := storage.NewStore(storage.DefaultArray())
	if *dotBatch > 0 {
		if err := emitDOT(cfg, store, *dotBatch); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	art, report, err := engine.RunOffline(engine.OfflineOptions{Model: cfg, Store: store, Seed: 11})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	raw, _ := store.Peek(report.ArtifactKey)
	version, err := medusa.EnvelopeVersion(raw)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Printf("artifact for %s (format v%d)\n", art.ModelName, version)
	fmt.Printf("  encoded size:     %.2f MB\n", float64(report.ArtifactBytes)/(1<<20))
	fmt.Printf("  graphs:           %d (batch sizes %v ... )\n", len(art.Graphs), art.Batches()[:min(6, len(art.Graphs))])
	fmt.Printf("  total nodes:      %d\n", art.TotalNodes())
	st := art.Stats()
	fmt.Printf("  parameters:       %d pointers (indirect index), %d constants\n", st.Pointers, st.Constants)
	fmt.Printf("  alloc sequence:   %d events (%d allocations), capture stage from event %d\n",
		len(art.AllocSeq), art.AllocCount, art.PrefixLen)
	fmt.Printf("  permanent bufs:   %d (contents rematerialized online)\n", len(art.Permanent))
	fmt.Printf("  KV record:        %d blocks × %d B (free mem %.2f GB)\n",
		art.KV.NumBlocks, art.KV.BlockBytes, float64(art.KV.FreeMemBytes)/(1<<30))

	fmt.Println("\nkernel name table (restoration route):")
	names := make([]string, 0, len(art.Kernels))
	for n := range art.Kernels {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		loc := art.Kernels[n]
		route := "dlsym + cudaGetFuncBySymbol"
		if !loc.Exported {
			route = "triggering-kernels + cuModuleEnumerateFunctions"
		}
		fmt.Printf("  %-44s %-22s %s\n", n, loc.Library, route)
	}

	fmt.Println("\nper-graph node counts:")
	for i, g := range art.Graphs {
		if i >= *maxGraphs {
			fmt.Printf("  ... and %d more graphs\n", len(art.Graphs)-i)
			break
		}
		fmt.Printf("  batch %3d: %d nodes\n", g.Batch, len(g.Nodes))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// emitDOT cold-starts the model, grabs the captured graph for the
// requested batch size, and prints it as Graphviz DOT with kernel names
// resolved.
func emitDOT(cfg model.Config, store *storage.Store, batch int) error {
	inst, err := engine.ColdStart(engine.Options{
		Model: cfg, Strategy: engine.StrategyVLLM, Seed: 12, Store: store,
	})
	if err != nil {
		return err
	}
	g, ok := inst.GraphByBatch(batch)
	if !ok {
		return fmt.Errorf("no captured graph for batch %d", batch)
	}
	fmt.Print(g.DOT(fmt.Sprintf("%s_b%d", cfg.Name, batch), inst.Process().KernelResolver()))
	return nil
}
