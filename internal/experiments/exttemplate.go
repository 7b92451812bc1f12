package experiments

import (
	"fmt"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/vclock"
)

func init() {
	register("ext-template", runExtTemplate)
}

// runExtTemplate measures template-based artifact sharing (wire format
// v3) on the cache-policy fleet: ten zoo models across all three
// architecture families, Zipf popularity, two nodes. Artifacts factor
// into one shared per-family template plus a small per-model delta;
// the sweep compares the registry footprint and the fleet's cold-fetch
// traffic against self-contained v2 artifacts on the same seeded
// trace. The templates+deltas registry must come in at least 5x
// smaller — the acceptance floor; the measured factor lands well above
// it (see docs/ARTIFACT_FORMAT.md for why sibling graphs delta so
// small).
func runExtTemplate(c *Context) (*Report, error) {
	cfgs, err := c.fleetConfigs(cachePolicyModels)
	if err != nil {
		return nil, err
	}

	arts := make([]*medusa.Artifact, len(cfgs))
	fullSizes := make([]uint64, len(cfgs))
	for i, cfg := range cfgs {
		art, size, _, err := c.Artifact(cfg)
		if err != nil {
			return nil, err
		}
		arts[i], fullSizes[i] = art, size
	}
	templates, err := engine.BuildFleetTemplates(c.Store, vclock.New(), cfgs, arts)
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:     "ext-template",
		Title:  "Extension: template-based artifact sharing (10 models, 3 families, Zipf fleet)",
		Header: []string{"model", "family", "full KiB", "delta KiB", "ratio"},
	}

	var fullTotal, sharedTotal uint64
	deltaSizes := make([]uint64, len(cfgs))
	for i, cfg := range cfgs {
		delta, err := arts[i].EncodeDelta(templates[cfg.Family])
		if err != nil {
			return nil, fmt.Errorf("delta-encoding %s: %w", cfg.Name, err)
		}
		deltaSizes[i] = uint64(len(delta))
		fullTotal += fullSizes[i]
		sharedTotal += deltaSizes[i]
		r.AddRow(cfg.Name, string(cfg.Family),
			fmt.Sprintf("%.0f", float64(fullSizes[i])/1024),
			fmt.Sprintf("%.0f", float64(deltaSizes[i])/1024),
			fmt.Sprintf("%.1fx", float64(fullSizes[i])/float64(deltaSizes[i])))
	}
	var tmplTotal uint64
	for _, fam := range []model.Family{model.FamilyStandard, model.FamilyFused, model.FamilyParallel} {
		if t, ok := templates[fam]; ok {
			sz := uint64(len(t.Encode()))
			tmplTotal += sz
			r.AddRow("template/"+string(fam), string(fam),
				"-", fmt.Sprintf("%.0f", float64(sz)/1024), "-")
		}
	}
	sharedTotal += tmplTotal
	dedup := float64(fullTotal) / float64(sharedTotal)
	r.SetMetric("registry_dedup_factor", dedup)
	r.AddNote("registry footprint: %.1f MiB self-contained vs %.2f MiB templates+deltas (%.1fx dedup; acceptance floor 5x)",
		float64(fullTotal)/(1<<20), float64(sharedTotal)/(1<<20), dedup)

	// Fleet comparison: the same seeded Zipf trace served twice — with
	// self-contained v2 artifacts, then template-factored — on the
	// cache-policy fleet geometry (tight tiers, so smaller objects also
	// mean fewer evictions, not just cheaper misses).
	r2 := &Report{
		ID:    "ext-template/fleet",
		Title: "same seeded Zipf trace, self-contained vs template-factored registry",
		Header: []string{"artifacts", "cold fetch MB", "hit rate",
			"ram/ssd/miss", "cold start p50(s)", "cold start p99(s)", "TTFT p99(s)"},
	}
	var fetched [2]uint64
	for mode, withTemplates := range []bool{false, true} {
		deps, arr, err := c.zipfChurn(cfgs)
		if err != nil {
			return nil, err
		}
		if withTemplates {
			for i, cfg := range cfgs {
				deps[i].Config.Cache.Template = templates[cfg.Family]
				deps[i].Config.Cache.ArtifactBytes = deltaSizes[i]
			}
		}
		res, err := serverless.RunFleet(tightFleet(deps, arr))
		if err != nil {
			return nil, err
		}
		cs, ttft := pooled(res, coldStartOf), pooled(res, ttftOf)
		st := res.Cache
		fetched[mode] = st.BytesFetched
		label := "self-contained v2"
		if withTemplates {
			label = "template+delta v3"
		}
		r2.AddRow(label,
			fmt.Sprintf("%.1f", float64(st.BytesFetched)/(1<<20)),
			pct(st.HitRate()),
			fmt.Sprintf("%d/%d/%d", st.RAMHits, st.SSDHits, st.Misses),
			secs(cs.P50()), secs(cs.P99()), secs(ttft.P99()))
	}
	r.AddChart(r2.Render())
	if fetched[1] > 0 {
		r.SetMetric("cold_fetch_reduction", float64(fetched[0])/float64(fetched[1]))
		r.AddNote("cold-fetch traffic: %.1f MiB → %.1f MiB (%.1fx less over the same seeded trace); the shared template transfers once per node and stays resident while deltas stream through",
			float64(fetched[0])/(1<<20), float64(fetched[1])/(1<<20),
			float64(fetched[0])/float64(fetched[1]))
	}
	return r, nil
}
