package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/flights"
)

// The self-test runs every workload at tiny scale against freshly built
// binaries, issuing a fixed number of requests instead of timing.

func TestMain(m *testing.M) {
	flights.Register()
	os.Exit(m.Run())
}

func buildBinaries(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "repro/cmd/hillview", "repro/cmd/hillview-worker")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building binaries: %v\n%s", err, out)
	}
	return dir
}

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

func tinyRun(t *testing.T, bin, name string, o Options) Result {
	t.Helper()
	o.BinDir, o.WorkDir, o.Seconds = bin, t.TempDir(), 1
	w, err := newWorkload(name, 7, scales["tiny"], filepath.Join(o.WorkDir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(context.Background(), w, o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	// The result must survive a JSON round trip.
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	return back
}

// checkMetrics verifies a result against the metric list of
// BENCHMARK.json: every metric present with its unit and a finite value.
func checkMetrics(t *testing.T, name string, res Result, want []struct{ Name, Unit string }, nonzero bool) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", name, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || (nonzero && got.Value == 0):
			t.Errorf("%s: metric %s = %v", name, m.Name, got.Value)
		}
	}
}

func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	bin := buildBinaries(t)
	for _, wl := range spec.Workloads {
		res := tinyRun(t, bin, wl.Name, Options{Requests: 30})
		if !res.Correct || res.Attempted < 30 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", wl.Name, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, wl.Name, res, spec.EndToEnd, true)
	}
}

// TestTracedReplaySendsBinaryDigest runs each workload traced: run
// fails unless the in-process replay sent the same request digest as
// the binary run, and the ledger must hold every per-layer metric.
func TestTracedReplaySendsBinaryDigest(t *testing.T) {
	spec := loadSpec(t)
	bin := buildBinaries(t)
	for _, wl := range spec.Workloads {
		res := tinyRun(t, bin, wl.Name, Options{Requests: 25, Trace: true})
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", wl.Name, res.Correct, res.Failed)
		}
		checkMetrics(t, wl.Name, res, spec.PerLayer, false)
		if f := res.Metrics["trace.unattributed_frac"].Value; f > 0.10 {
			t.Errorf("%s: %.3f of the Sheet-call time is outside every layer span", wl.Name, f)
		}
	}
}

func TestCorruptedExpectationFailsRun(t *testing.T) {
	bin := buildBinaries(t)
	for _, name := range []string{"explore", "dashboard", "grow"} {
		if res := tinyRun(t, bin, name, Options{Requests: 5, Corrupt: true}); res.Correct {
			t.Errorf("%s: a corrupted expected answer passed the checks", name)
		}
	}
}

func TestTrafficIsAPureFunctionOfTheSeed(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"explore", "dashboard", "grow"} {
		a, err := newWorkload(name, 3, scales["tiny"], dir)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 3, scales["tiny"], dir)
		c, _ := newWorkload(name, 4, scales["tiny"], dir)
		if a.Traffic.Digest() != b.Traffic.Digest() {
			t.Errorf("%s: one seed gave two traffic digests", name)
		}
		if a.Traffic.Digest() == c.Traffic.Digest() {
			t.Errorf("%s: seeds 3 and 4 gave the same traffic", name)
		}
	}
}
