package engine

import (
	"fmt"
	"time"

	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// Tensor-parallel cold starts — the paper's §8 future-work direction.
// Each rank is an independent simulated process holding 1/TP of the
// weight matrices (Megatron layout); Medusa materializes and restores
// every rank independently, with per-rank indirect index pointer
// tables, exactly as the paper anticipates. The observable cold start
// is the slowest rank plus collective-communication setup.

// tpSyncSetup is the NCCL-style communicator bootstrap cost per
// doubling of the group size.
const tpSyncSetup = 120 * time.Millisecond

// TPOptions configures a tensor-parallel cold start.
type TPOptions struct {
	// Model is the unsharded model.
	Model model.Config
	// Degree is the tensor-parallel width (1, 2, 4, …).
	Degree int
	// Strategy applies to every rank. StrategyMedusa runs (or reuses) a
	// per-rank offline phase automatically.
	Strategy Strategy
	// Store holds weights and per-rank artifacts.
	Store *storage.Store
	// Seed namespaces all rank processes.
	Seed int64
	// CaptureSizes overrides the capture batch sizes.
	CaptureSizes []int
}

// TPResult is the outcome of a tensor-parallel cold start.
type TPResult struct {
	// Degree is the tensor-parallel width.
	Degree int
	// Ranks are the per-rank instances.
	Ranks []*Instance
	// RankLoading is each rank's loading-phase duration.
	RankLoading []time.Duration
	// SyncSetup is the collective bootstrap added on top.
	SyncSetup time.Duration
	// LoadingDuration is the observable loading latency:
	// max(rank loadings) + sync setup.
	LoadingDuration time.Duration
}

// TPColdStart launches all ranks of a tensor-parallel instance.
func TPColdStart(opts TPOptions) (*TPResult, error) {
	if opts.Degree < 1 {
		return nil, fmt.Errorf("engine: tensor-parallel degree %d", opts.Degree)
	}
	res := &TPResult{Degree: opts.Degree}
	var max time.Duration
	for rank := 0; rank < opts.Degree; rank++ {
		shard, err := opts.Model.Shard(rank, opts.Degree)
		if err != nil {
			return nil, err
		}
		o := Options{
			Model:        shard,
			Strategy:     opts.Strategy,
			Seed:         opts.Seed + int64(rank)*1009,
			Store:        opts.Store,
			CaptureSizes: opts.CaptureSizes,
		}
		if opts.Strategy.NeedsArtifact() {
			art, size, err := tpRankArtifact(opts, shard, rank)
			if err != nil {
				return nil, err
			}
			o.Artifact = art
			o.ArtifactBytes = size
		}
		inst, err := ColdStart(o)
		if err != nil {
			return nil, fmt.Errorf("engine: rank %d: %w", rank, err)
		}
		res.Ranks = append(res.Ranks, inst)
		d := inst.LoadingDuration()
		res.RankLoading = append(res.RankLoading, d)
		if d > max {
			max = d
		}
	}
	for g := 1; g < opts.Degree; g *= 2 {
		res.SyncSetup += tpSyncSetup
	}
	res.LoadingDuration = max + res.SyncSetup
	return res, nil
}

// tpRankArtifact runs (or loads) the offline phase for one shard. Each
// rank's artifact is independent: its own allocation sequence, its own
// indirect index pointer table, its own kernel name table.
func tpRankArtifact(opts TPOptions, shard model.Config, rank int) (*medusa.Artifact, uint64, error) {
	key := ArtifactKey(shard.Name)
	if opts.Store.Exists(key) {
		return LoadArtifact(opts.Store, vclock.New(), shard.Name)
	}
	art, report, err := RunOffline(OfflineOptions{
		Model:        shard,
		Store:        opts.Store,
		Seed:         opts.Seed + 7777 + int64(rank),
		CaptureSizes: opts.CaptureSizes,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("offline phase for rank %d: %w", rank, err)
	}
	return art, report.ArtifactBytes, nil
}

// DecodeStepDuration for a TP instance: the slowest rank's step plus
// two all-reduces per layer over the full hidden activation.
func (r *TPResult) DecodeStepDuration(n int) (time.Duration, error) {
	var max time.Duration
	for _, inst := range r.Ranks {
		d, err := inst.DecodeStepDuration(n)
		if err != nil {
			return 0, err
		}
		if d > max {
			max = d
		}
	}
	return max + r.allReduceCost(n), nil
}

// PrefillDuration for a TP instance: the slowest rank's prefill plus
// per-layer all-reduces over the prompt's activations.
func (r *TPResult) PrefillDuration(tokens int) (time.Duration, error) {
	// Each rank prices a prompt longer than MaxSeqLen as MaxSeqLen
	// tokens; the all-reduces carry no more activations than that.
	tokens = min(tokens, r.Ranks[0].Model().MaxSeqLen)
	var max time.Duration
	for _, inst := range r.Ranks {
		d, err := inst.PrefillDuration(tokens)
		if err != nil {
			return 0, err
		}
		if d > max {
			max = d
		}
	}
	return max + r.allReduceCost(tokens), nil
}

// KVRecord returns rank 0's KV sizing (ranks are symmetric).
func (r *TPResult) KVRecord() medusa.KVRecord { return r.Ranks[0].KVRecord() }

// nvlinkBandwidth is per-direction NVLink bandwidth on the paper's
// testbed (A100 SXM4, 300 GB/s effective all-reduce bandwidth).
const nvlinkBandwidth = 300e9

// allReduceCost models 2 all-reduces per layer over batch×hidden fp16
// activations, plus a fixed latency per collective.
func (r *TPResult) allReduceCost(batch int) time.Duration {
	if r.Degree == 1 {
		return 0
	}
	cfg := r.Ranks[0].Model()
	bytes := float64(batch) * float64(cfg.Hidden) * 2
	per := 5*time.Microsecond + time.Duration(bytes/nvlinkBandwidth*float64(time.Second))
	return time.Duration(cfg.Layers*2) * per
}
