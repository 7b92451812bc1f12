package medusa_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmd compiles one command into a temp dir and returns the binary
// path.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestMedusaBenchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := buildCmd(t, "medusa-bench")
	list := run(t, bin, "-list")
	for _, id := range []string{"table1", "fig8", "ablation-index", "ext-deferred"} {
		if !strings.Contains(list, id) {
			t.Fatalf("-list missing %s:\n%s", id, list)
		}
	}
	out := run(t, bin, "-exp", "fig8")
	if !strings.Contains(out, "MEDUSA") || !strings.Contains(out, "kv_cache_init") {
		t.Fatalf("fig8 output malformed:\n%s", out)
	}
	// Unknown experiment must fail with a helpful message.
	cmd := exec.Command(bin, "-exp", "fig99")
	combined, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(combined), "unknown id") {
		t.Fatalf("fig99 = %v\n%s", err, combined)
	}
}

func TestMedusaOfflineCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := buildCmd(t, "medusa-offline")
	out := run(t, bin, "-model", "Qwen1.5-0.5B")
	if !strings.Contains(out, "Qwen1.5-0.5B") || !strings.Contains(out, "9118") {
		t.Fatalf("offline output malformed:\n%s", out)
	}
	cmd := exec.Command(bin, "-model", "GPT-5")
	if err := cmd.Run(); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestMedusaInspectCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := buildCmd(t, "medusa-inspect")
	out := run(t, bin, "-model", "Qwen1.5-0.5B", "-graphs", "2")
	for _, want := range []string{
		"kernel name table", "triggering-kernels + cuModuleEnumerateFunctions",
		"dlsym + cudaGetFuncBySymbol", "indirect index", "batch   1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, out)
		}
	}
}

func TestMedusaSimulateCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := buildCmd(t, "medusa-simulate")
	out := run(t, bin, "-model", "Qwen1.5-0.5B", "-strategy", "medusa", "-rps", "5", "-duration", "10")
	if !strings.Contains(out, "TTFT p50/p99") || !strings.Contains(out, "cold starts") {
		t.Fatalf("simulate output malformed:\n%s", out)
	}
	out = run(t, bin, "-nodes", "1", "-models", "Qwen1.5-0.5B", "-strategy", "vllm", "-rps", "3", "-duration", "5", "-work")
	if !strings.Contains(out, "cold starts") || !strings.Contains(out, "work desired") {
		t.Fatalf("fleet -work output malformed:\n%s", out)
	}
	out = run(t, bin, "-model", "Qwen1.5-0.5B", "-strategy", "vllm", "-rps", "3", "-duration", "5", "-work")
	if !strings.Contains(out, "TTFT p50/p99") || !strings.Contains(out, "work desired") {
		t.Fatalf("single-pool -work output malformed:\n%s", out)
	}
	// Both modes build the same deployments, so the fleet honours the
	// serving flags too.
	fleet := []string{"-nodes", "1", "-model", "Qwen1.5-0.5B", "-strategy", "vllm", "-rps", "3", "-duration", "5"}
	if cold, warm := run(t, bin, append(fleet, "-prewarm", "0")...), run(t, bin, append(fleet, "-prewarm", "1")...); cold == warm {
		t.Fatalf("fleet ignores -prewarm:\n%s", warm)
	}
	// The single pool reads no fleet-only flag, so setting one without
	// -nodes is an error rather than silently ignored.
	for _, flagArgs := range [][]string{
		{"-autoscale", "predictive"}, {"-router", "score"}, {"-slo-ttft", "100ms"}, {"-slo-tpot", "50ms"},
		{"-cache-policy", "lfu"}, {"-cache-ram", "1"}, {"-cache-ssd", "1"}, {"-locality", "0"},
		{"-prewarm-ssd"}, {"-gpus-per-node", "2"},
	} {
		args := append([]string{"-model", "Qwen1.5-0.5B", "-strategy", "vllm", "-rps", "2", "-duration", "5"}, flagArgs...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), flagArgs[0]+" needs -nodes") {
			t.Errorf("%v without -nodes: err %v, output:\n%s", flagArgs, err, out)
		}
	}
}
