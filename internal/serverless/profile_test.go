package serverless

import (
	"testing"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/storage"
)

// TestPrefillMemoClampsAtMaxSeqLen pins the prefill memo's key: the
// engine prices a prompt longer than the model's MaxSeqLen as one of
// MaxSeqLen tokens, on one GPU and across tensor-parallel ranks alike,
// so the memo may share that entry. Both the memo and the engine's own
// accessor must agree, whichever length is asked first.
func TestPrefillMemoClampsAtMaxSeqLen(t *testing.T) {
	m, err := model.ByName("Qwen1.5-0.5B")
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []int{1, 2} {
		cfg := Config{Model: m, Strategy: engine.StrategyVLLM, Store: storage.NewStore(storage.DefaultArray()), TPDegree: tp, Seed: 5}
		prof, err := buildProfile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		longer := m.MaxSeqLen + 1000
		memoLong, err := prof.prefillDur(longer) // asked first: fills the clamped entry
		if err != nil {
			t.Fatal(err)
		}
		memoMax, err := prof.prefillDur(m.MaxSeqLen)
		if err != nil {
			t.Fatal(err)
		}
		rawLong, err := prof.prefill(longer)
		if err != nil {
			t.Fatal(err)
		}
		rawMax, err := prof.prefill(m.MaxSeqLen)
		if err != nil {
			t.Fatal(err)
		}
		if memoLong != rawMax || memoMax != rawMax || rawLong != rawMax {
			t.Fatalf("TP %d: prefill of %d tokens: memo %v, engine %v; of MaxSeqLen %d: memo %v, engine %v",
				tp, longer, memoLong, rawLong, m.MaxSeqLen, memoMax, rawMax)
		}
		short, err := prof.prefillDur(100)
		if err != nil {
			t.Fatal(err)
		}
		if rawShort, _ := prof.prefill(100); short != rawShort || short >= rawMax {
			t.Fatalf("TP %d: prefill of 100 tokens: memo %v, engine %v (MaxSeqLen costs %v)", tp, short, rawShort, rawMax)
		}
	}
}
