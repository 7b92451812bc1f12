package serverless

import (
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/workload"
)

func TestFollowUpTurnsSpawn(t *testing.T) {
	_, base := simFixture(t, "Qwen1.5-0.5B")
	base.Strategy = engine.StrategyMedusa
	base.Workload.FollowUp = &FollowUpModel{
		Probability: 1.0,
		ThinkTime:   2 * time.Second,
		MaxTurns:    3,
		NewTokens:   32,
	}
	reqs := []workload.Request{
		{ID: 0, Arrival: 0, PromptTokens: 64, OutputTokens: 8},
		{ID: 1, Arrival: time.Second, PromptTokens: 64, OutputTokens: 8},
	}
	res, err := Run(base, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Two conversations × 3 turns each.
	if res.Completed != 6 {
		t.Fatalf("completed = %d, want 6 (2 conversations × 3 turns)", res.Completed)
	}
	if res.TTFT.Len() != 6 {
		t.Fatalf("TTFT samples = %d", res.TTFT.Len())
	}
	// Conversations run for at least 2 think times beyond arrival.
	if res.Makespan < 4*time.Second {
		t.Fatalf("makespan %v too short for 3-turn conversations", res.Makespan)
	}
}

func TestFollowUpContextGrows(t *testing.T) {
	_, base := simFixture(t, "Qwen1.5-0.5B")
	base.Strategy = engine.StrategyMedusa
	base.Workload.FollowUp = &FollowUpModel{Probability: 1, ThinkTime: time.Second, MaxTurns: 2, NewTokens: 10}
	reqs := []workload.Request{{ID: 0, Arrival: 0, PromptTokens: 100, OutputTokens: 20}}
	res, err := Run(base, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
	// Turn 2's prompt = 100 + 20 + 10 tokens ⇒ its prefill (and hence
	// E2E) exceeds turn 1's for equal output length.
	if res.E2E.Max() <= res.E2E.Percentile(50) {
		t.Fatal("follow-up turn not observably heavier")
	}
}

func TestFollowUpDisabledByDefault(t *testing.T) {
	_, base := simFixture(t, "Qwen1.5-0.5B")
	base.Strategy = engine.StrategyMedusa
	reqs := []workload.Request{{ID: 0, Arrival: 0, PromptTokens: 64, OutputTokens: 4}}
	res, err := Run(base, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("completed = %d without follow-ups", res.Completed)
	}
}

func TestFollowUpZeroProbability(t *testing.T) {
	_, base := simFixture(t, "Qwen1.5-0.5B")
	base.Strategy = engine.StrategyMedusa
	base.Workload.FollowUp = &FollowUpModel{Probability: 0, ThinkTime: time.Second, MaxTurns: 10}
	reqs := []workload.Request{{ID: 0, Arrival: 0, PromptTokens: 64, OutputTokens: 4}}
	res, err := Run(base, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("completed = %d with p=0", res.Completed)
	}
}

func TestTensorParallelCluster(t *testing.T) {
	cfg, err := model.ByName("Llama2-13B")
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore(storage.DefaultArray())
	reqs := []workload.Request{
		{ID: 0, Arrival: 0, PromptTokens: 128, OutputTokens: 16},
		{ID: 1, Arrival: time.Second, PromptTokens: 128, OutputTokens: 16},
	}
	res, err := Run(Config{
		Model: cfg, Strategy: engine.StrategyVLLM, Store: store,
		NumGPUs: 4, TPDegree: 2, Seed: 3,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
	// 4 GPUs / TP2 ⇒ at most 2 instances.
	if res.PeakInstances > 2 {
		t.Fatalf("peak instances = %d exceeds GPU budget", res.PeakInstances)
	}
	// TP2 halves per-rank weights: the cold start must beat single-GPU.
	single, err := Run(Config{
		Model: cfg, Strategy: engine.StrategyVLLM, Store: store,
		NumGPUs: 4, Seed: 4,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.TTFT.Max() >= single.TTFT.Max() {
		t.Fatalf("TP2 cold TTFT %v not below single-GPU %v", res.TTFT.Max(), single.TTFT.Max())
	}
}

func TestTPDegreeValidation(t *testing.T) {
	cfg, _ := model.ByName("Llama2-13B")
	_, err := Run(Config{
		Model: cfg, Strategy: engine.StrategyVLLM,
		NumGPUs: 2, TPDegree: 4, Seed: 1,
	}, []workload.Request{{ID: 0, PromptTokens: 1, OutputTokens: 1}})
	if err == nil {
		t.Fatal("TP degree above GPU count accepted")
	}
}
