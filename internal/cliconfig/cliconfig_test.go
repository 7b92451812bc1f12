package cliconfig

import (
	"errors"
	"flag"
	"reflect"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/workload"
)

// TestRegisterDefaults parses an empty command line and checks the
// canonical defaults — the single source of truth both binaries share.
func TestRegisterDefaults(t *testing.T) {
	fs := flag.NewFlagSet("medusa-simulate", flag.ContinueOnError)
	v := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if v.Model != "Qwen1.5-4B" {
		t.Errorf("Model default = %q, want Qwen1.5-4B", v.Model)
	}
	if v.Strategy != "medusa" {
		t.Errorf("Strategy default = %q, want medusa", v.Strategy)
	}
	if v.RPS != 10 {
		t.Errorf("RPS default = %v, want 10", v.RPS)
	}
	if v.DurationSec != 60 {
		t.Errorf("DurationSec default = %d, want 60", v.DurationSec)
	}
	if v.Seed != 90125 {
		t.Errorf("Seed default = %d, want 90125", v.Seed)
	}
	if v.Think != 8*time.Second {
		t.Errorf("Think default = %v, want 8s", v.Think)
	}
	if v.GPUs != 4 {
		t.Errorf("GPUs default = %d, want 4", v.GPUs)
	}
	if v.CachePolicy != "lru" {
		t.Errorf("CachePolicy default = %q, want lru", v.CachePolicy)
	}
	if v.Zipf != 1.2 {
		t.Errorf("Zipf default = %v, want 1.2", v.Zipf)
	}
	if v.BatchTokens != 0 || v.KVBlocks != 0 || v.ChunkedPrefill {
		t.Errorf("batch knobs must default off, got tokens=%d blocks=%d chunked=%v",
			v.BatchTokens, v.KVBlocks, v.ChunkedPrefill)
	}
	if v.SLOTTFT != 0 || v.SLOTPOT != 0 || v.Diurnal != 0 {
		t.Errorf("fleet deadlines/diurnal must default off, got ttft=%v tpot=%v diurnal=%v",
			v.SLOTTFT, v.SLOTPOT, v.Diurnal)
	}
	if v.Autoscale != "reactive" || v.Router != "fifo" {
		t.Errorf("fleet policies must default to the legacy baselines, got autoscale=%q router=%q",
			v.Autoscale, v.Router)
	}
}

// TestRegisterParsesFlags drives a representative command line through
// the full surface.
func TestRegisterParsesFlags(t *testing.T) {
	fs := flag.NewFlagSet("medusa-simulate", flag.ContinueOnError)
	v := Register(fs)
	err := fs.Parse([]string{
		"-model", "Llama2-7B", "-rps", "3.5", "-duration", "120",
		"-seed", "7", "-nodes", "2", "-models", " Llama2-7B , Qwen1.5-0.5B ",
		"-batch-tokens", "2048", "-chunked-prefill", "-idle", "250ms",
		"-followup", "0.3", "-cache-policy", "costaware",
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Model != "Llama2-7B" || v.RPS != 3.5 || v.DurationSec != 120 || v.Seed != 7 {
		t.Errorf("trace flags misparsed: %+v", v)
	}
	if v.Nodes != 2 || v.CachePolicy != "costaware" {
		t.Errorf("cluster flags misparsed: %+v", v)
	}
	if v.BatchTokens != 2048 || !v.ChunkedPrefill {
		t.Errorf("batch flags misparsed: %+v", v)
	}
	if v.Idle != 250*time.Millisecond || v.Followup != 0.3 {
		t.Errorf("scheduler/workload flags misparsed: %+v", v)
	}
	if got := v.ModelNames(); !reflect.DeepEqual(got, []string{"Llama2-7B", "Qwen1.5-0.5B"}) {
		t.Errorf("ModelNames() = %v, want trimmed split", got)
	}
}

// TestRegisterBatchSubset checks the medusa-bench surface: only the
// batching knobs, with the same names and defaults as the full set.
func TestRegisterBatchSubset(t *testing.T) {
	fs := flag.NewFlagSet("medusa-bench", flag.ContinueOnError)
	v := RegisterBatch(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{"batch-tokens", "chunked-prefill", "kv-blocks"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("RegisterBatch flags = %v, want %v", names, want)
	}
	if err := fs.Parse([]string{"-batch-tokens", "4096", "-kv-blocks", "512"}); err != nil {
		t.Fatal(err)
	}
	p := v.BatchParams()
	if p.BatchTokens != 4096 || p.KVBlocks != 512 || p.ChunkedPrefill {
		t.Errorf("BatchParams() = %+v, want tokens=4096 blocks=512", p)
	}
}

// TestFlagNamesDisjointFromBatch guards the "declared exactly once"
// property: Register must not double-declare a batch knob (flag
// panics on duplicate registration, so Register succeeding IS the
// test) and every batch knob must exist in the full surface.
func TestFlagNamesDisjointFromBatch(t *testing.T) {
	full := flag.NewFlagSet("full", flag.ContinueOnError)
	Register(full)
	batch := flag.NewFlagSet("batch", flag.ContinueOnError)
	RegisterBatch(batch)
	batch.VisitAll(func(f *flag.Flag) {
		if full.Lookup(f.Name) == nil {
			t.Errorf("batch flag -%s missing from the full surface", f.Name)
		}
	})
}

// TestRegisterFleetSubset checks the medusa-bench fleet surface: only
// the control-plane knobs, with the same names and defaults as the
// full set.
func TestRegisterFleetSubset(t *testing.T) {
	fs := flag.NewFlagSet("medusa-bench", flag.ContinueOnError)
	v := RegisterFleet(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{"autoscale", "router", "slo-tpot", "slo-ttft"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("RegisterFleet flags = %v, want %v", names, want)
	}
	if err := fs.Parse([]string{"-slo-ttft", "500ms", "-slo-tpot", "80ms",
		"-autoscale", "predictive", "-router", "score"}); err != nil {
		t.Fatal(err)
	}
	if slo := v.SLO(); slo.TTFT != 500*time.Millisecond || slo.TPOT != 80*time.Millisecond {
		t.Errorf("SLO() = %+v", slo)
	}
	scaler, err := v.AutoscalePolicy()
	if err != nil {
		t.Fatal(err)
	}
	if scaler.Name() != "predictive" {
		t.Errorf("AutoscalePolicy() = %q, want predictive", scaler.Name())
	}
	route, err := v.RouterPolicy()
	if err != nil {
		t.Fatal(err)
	}
	if route == nil || route.Name() != "score" {
		t.Errorf("RouterPolicy() = %v, want score", route)
	}
}

// TestFlagNamesDisjointFromFleet mirrors the batch-subset guard for
// the fleet knobs.
func TestFlagNamesDisjointFromFleet(t *testing.T) {
	full := flag.NewFlagSet("full", flag.ContinueOnError)
	Register(full)
	fleet := flag.NewFlagSet("fleet", flag.ContinueOnError)
	RegisterFleet(fleet)
	fleet.VisitAll(func(f *flag.Flag) {
		if full.Lookup(f.Name) == nil {
			t.Errorf("fleet flag -%s missing from the full surface", f.Name)
		}
	})
}

// TestFleetPolicyDefaultsAreLegacy: the default flag values must
// resolve to the byte-identical legacy behaviors — reactive scaling
// and nil (launch-order) routing — and unknown names must error.
func TestFleetPolicyDefaultsAreLegacy(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	v := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !v.SLO().Zero() {
		t.Errorf("default SLO must be zero, got %+v", v.SLO())
	}
	scaler, err := v.AutoscalePolicy()
	if err != nil {
		t.Fatal(err)
	}
	if scaler.Name() != "reactive" {
		t.Errorf("default autoscaler = %q, want reactive", scaler.Name())
	}
	route, err := v.RouterPolicy()
	if err != nil {
		t.Fatal(err)
	}
	if route != nil {
		t.Errorf("default router must be nil (legacy dispatch), got %v", route)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	v = Register(fs)
	if err := fs.Parse([]string{"-autoscale", "oracle", "-router", "random"}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.AutoscalePolicy(); err == nil {
		t.Error("unknown autoscale policy must fail to parse")
	}
	if _, err := v.RouterPolicy(); err == nil {
		t.Error("unknown router policy must fail to parse")
	}
}

// TestDiurnalConfigAssembly checks the diurnal generator wiring: trace
// flags flow through and the assembled config validates.
func TestDiurnalConfigAssembly(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	v := Register(fs)
	if err := fs.Parse([]string{"-rps", "40", "-duration", "90", "-seed", "13", "-diurnal", "1m"}); err != nil {
		t.Fatal(err)
	}
	dc := v.DiurnalConfig()
	if dc.Seed != 13 || dc.BaseRPS != 40 || dc.Period != time.Minute || dc.Duration != 90*time.Second {
		t.Errorf("DiurnalConfig() = %+v", dc)
	}
	if _, err := workload.NewDiurnal(dc); err != nil {
		t.Errorf("assembled diurnal config must validate, got %v", err)
	}
}

// TestTraceConfigAssembly checks the flag-to-workload translation,
// including the seconds-to-Duration conversion.
func TestTraceConfigAssembly(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	v := Register(fs)
	if err := fs.Parse([]string{"-rps", "5", "-duration", "30", "-seed", "11",
		"-mean-output", "100", "-max-output", "200"}); err != nil {
		t.Fatal(err)
	}
	tc := v.TraceConfig()
	if tc.Seed != 11 || tc.RPS != 5 || tc.Duration != 30*time.Second {
		t.Errorf("TraceConfig() = %+v", tc)
	}
	if tc.MeanOutput != 100 || tc.MaxOutput != 200 {
		t.Errorf("TraceConfig() lengths = %+v", tc)
	}
}

// TestSchedulerConfigAssembly checks the scheduler sub-config embeds
// the batch params.
func TestSchedulerConfigAssembly(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	v := Register(fs)
	if err := fs.Parse([]string{"-prewarm", "2", "-idle", "1s", "-batch-tokens", "1024"}); err != nil {
		t.Fatal(err)
	}
	sc := v.SchedulerConfig()
	if sc.Prewarm != 2 || sc.IdleTimeout != time.Second || sc.Batch.BatchTokens != 1024 {
		t.Errorf("SchedulerConfig() = %+v", sc)
	}
	if err := sc.Validate(); err != nil {
		t.Errorf("assembled scheduler config must validate, got %v", err)
	}
}

// TestWorkloadConfigAssembly checks the follow-up model wiring: off at
// zero probability, populated otherwise.
func TestWorkloadConfigAssembly(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	v := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if w := v.WorkloadConfig(); w.FollowUp != nil {
		t.Errorf("WorkloadConfig() with -followup 0 must have no follow-up model, got %+v", w.FollowUp)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	v = Register(fs)
	if err := fs.Parse([]string{"-followup", "0.25", "-think", "2s"}); err != nil {
		t.Fatal(err)
	}
	w := v.WorkloadConfig()
	if w.FollowUp == nil || w.FollowUp.Probability != 0.25 || w.FollowUp.ThinkTime != 2*time.Second {
		t.Errorf("WorkloadConfig() = %+v", w.FollowUp)
	}
	if err := w.Validate(); err != nil {
		t.Errorf("assembled workload config must validate, got %v", err)
	}
}

// TestCacheParamsAssembly checks MiB-to-byte sizing and policy
// parsing.
func TestCacheParamsAssembly(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	v := Register(fs)
	if err := fs.Parse([]string{"-cache-ram", "3", "-cache-ssd", "6", "-cache-policy", "costaware"}); err != nil {
		t.Fatal(err)
	}
	p, err := v.CacheParams()
	if err != nil {
		t.Fatal(err)
	}
	if p.RAMBytes != 3<<20 || p.SSDBytes != 6<<20 {
		t.Errorf("CacheParams() sizes = ram %d ssd %d, want %d / %d", p.RAMBytes, p.SSDBytes, 3<<20, 6<<20)
	}
	def := artifactcache.DefaultParams()
	if p.RAM != def.RAM || p.SSD != def.SSD {
		t.Errorf("CacheParams() must inherit the default tier timings, got %+v", p)
	}
}

// TestCacheParamsBadPolicy checks the error path surfaces the parse
// failure rather than a zero-valued config.
func TestCacheParamsBadPolicy(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	v := Register(fs)
	if err := fs.Parse([]string{"-cache-policy", "clairvoyant"}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.CacheParams(); err == nil {
		t.Fatal("CacheParams() with an unknown policy must fail")
	}
}

// TestValidationErrorFieldPaths checks that configs assembled from
// hostile flag values surface *serverless.ConfigError with the
// documented dotted field paths — what the CLI prints for operators.
func TestValidationErrorFieldPaths(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		build func(v *Values) error
		field string
	}{
		{
			name: "negative prewarm",
			args: []string{"-prewarm", "-1"},
			build: func(v *Values) error {
				return v.SchedulerConfig().Validate()
			},
			field: "Scheduler.Prewarm",
		},
		{
			name: "negative batch tokens",
			args: []string{"-batch-tokens", "-5"},
			build: func(v *Values) error {
				return v.SchedulerConfig().Validate()
			},
			field: "Scheduler.Batch.BatchTokens",
		},
		{
			name: "negative kv blocks",
			args: []string{"-kv-blocks", "-1"},
			build: func(v *Values) error {
				return v.SchedulerConfig().Validate()
			},
			field: "Scheduler.Batch.KVBlocks",
		},
		{
			name: "follow-up probability above one",
			args: []string{"-followup", "1.5"},
			build: func(v *Values) error {
				return v.WorkloadConfig().Validate()
			},
			field: "Workload.FollowUp.Probability",
		},
		{
			name: "negative think time",
			args: []string{"-followup", "0.5", "-think", "-1s"},
			build: func(v *Values) error {
				return v.WorkloadConfig().Validate()
			},
			field: "Workload.FollowUp.ThinkTime",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("t", flag.ContinueOnError)
			v := Register(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			err := tc.build(v)
			if err == nil {
				t.Fatalf("config built from %v must fail validation", tc.args)
			}
			var ce *serverless.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a *serverless.ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Errorf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
		})
	}
}
