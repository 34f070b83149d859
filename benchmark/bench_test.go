package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	fastbcc "repro"
	"repro/internal/gen"
)

// tinyPlan runs every phase with a handful of operations.
var tinyPlan = plan{
	setups: 2, builds: 3, batch: 32, pool: 8,
	acks1w: 20, writers: 2, acksPerWriter: 20,
	joins: 2, deletes: 2, persists: 1, recovers: 2, probeReps: 2,
}

// tiny returns workload name shrunk to a graph the smoke test runs in
// about a second, keeping its process shape and churn rate.
func tiny(t *testing.T, name string) workload {
	w, ok := workloads[name]
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	switch name {
	case "grid":
		w.graph = func(seed uint64) *fastbcc.Graph { return gen.SampledGrid(30, 30, 0.6, seed) }
	default:
		w.graph = func(seed uint64) *fastbcc.Graph { return gen.RMAT(10, 8, seed) }
	}
	return w
}

func runTiny(t *testing.T, w workload, trace, corrupt bool) (result, string) {
	t.Helper()
	var log bytes.Buffer
	cfg := config{w: w, seed: 7, seconds: 0.2, trace: trace, workDir: t.TempDir(),
		plan: tinyPlan, log: &log, corrupt: corrupt}
	r, err := run(cfg)
	if err != nil {
		t.Fatalf("run %s: %v\n%s", w.name, err, log.String())
	}
	var out bytes.Buffer
	if err := printResult(&out, r, trace); err != nil {
		t.Fatalf("print %s: %v", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return res, log.String()
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func assertMetrics(t *testing.T, name string, got map[string]metricValue, defs []metricDef, spec map[string]string) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics printed, want %d", name, len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.name]
		if !ok {
			t.Errorf("%s: metric %s not printed", name, d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("%s: metric %s has unit %q, want %q", name, d.name, m.Unit, d.unit)
		}
	}
	if spec != nil {
		if len(spec) != len(defs) {
			t.Errorf("BENCHMARK.json declares %d metrics, the benchmark prints %d", len(spec), len(defs))
		}
		for n, unit := range spec {
			if m, ok := got[n]; !ok || m.Unit != unit {
				t.Errorf("%s: BENCHMARK.json metric %s (%s) printed as %+v", name, n, unit, m)
			}
		}
	}
}

// TestSmoke runs every phase of every workload at a tiny scale, untraced
// and traced, and checks that each prints all its metrics with their
// units and that no operation fails.
func TestSmoke(t *testing.T) {
	specE2E, specLayer := declared(t)
	for _, name := range []string{"social", "grid", "onecpu"} {
		t.Run(name, func(t *testing.T) {
			w := tiny(t, name)
			res, log := runTiny(t, w, false, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log)
			}
			assertMetrics(t, name, res.Metrics, endToEnd, specE2E)

			res, log = runTiny(t, w, true, false)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log)
			}
			assertMetrics(t, name, res.Metrics, perLayer, specLayer)
			if !strings.Contains(log, "span store.rebuild") {
				t.Errorf("traced run printed no span summary:\n%s", log)
			}
		})
	}
}

// TestCorruptAnswerFails flips one precomputed answer: every request
// carrying that batch must count as a failed operation.
func TestCorruptAnswerFails(t *testing.T) {
	res, _ := runTiny(t, tiny(t, "social"), false, true)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted answer went unnoticed: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

// TestQuantile pins the nearest-rank quantiles, the interquartile mean
// and the span-coverage arithmetic the metrics rest on.
func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	if got := interquartileMean([]float64{100, 2, 2, 4, 4, 0, 3, 3}); got != 3 {
		t.Errorf("interquartile mean = %v, want 3", got)
	}
	if got := covered([][2]int64{{0, 4}, {2, 6}, {8, 9}}, 1, 8); got != 5 {
		t.Errorf("covered = %v, want 5", got)
	}
}
