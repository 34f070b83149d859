// Command benchmark drives one FAST-BCC serving process end to end: it
// generates a graph from a seed, builds it into a durable Store, serves
// it over the binary batch endpoint, mutates it and restarts it, checks
// every answer against an oracle, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as one JSON line.
//
// Run it through run.sh, which builds it from source:
//
//	bash benchmark/run.sh --workload social --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the layers they map
// to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"

	fastbcc "repro"
	"repro/internal/gen"
)

// workload is one input graph and the process shape it is served with.
type workload struct {
	name string
	// procs is the GOMAXPROCS the whole run uses, set before the
	// process starts so the worker pools size to it.
	procs int
	// churnRate is the open-loop request rate (requests per second)
	// of the queries-under-churn phase: one the workload sustains
	// without a growing backlog.
	churnRate float64
	graph     func(seed uint64) *fastbcc.Graph
}

func socialGraph(seed uint64) *fastbcc.Graph { return gen.RMAT(16, 8, seed) }

var workloads = map[string]workload{
	// Low diameter, skewed degrees; build time splits evenly between
	// core BCC and the block-cut index.
	"social": {name: "social", procs: 2, churnRate: 1000, graph: socialGraph},
	// The paper's large-diameter case (SQR' at medium scale): deep
	// spanning trees and long block-cut paths.
	"grid": {name: "grid", procs: 2, churnRate: 1000, graph: func(seed uint64) *fastbcc.Graph {
		return gen.SampledGrid(500, 500, 0.6, seed)
	}},
	// The social graph on one CPU: serving shares the only P with
	// background rebuilds, flushes and persists.
	"onecpu": {name: "onecpu", procs: 1, churnRate: 20, graph: socialGraph},
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the serving system sees; a run
// with --trace 0 prints exactly these.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"build_ms", "ms"},
	{"build_mb", "MiB"},
	{"heap_mb", "MiB"},
	{"query_rps", "1/s"},
	{"query_p50_us", "us"},
	{"query_p99_us", "us"},
	{"churn_query_p50_us", "us"},
	{"ack_p50_us", "us"},
	{"join_ms", "ms"},
	{"delete_fresh_ms", "ms"},
}

// gcPhases are the phases whose GC work the traced run reports. The
// restart phase allocates too little to run a cycle and is left out.
var gcPhases = []string{"setup", "build", "query", "churn", "mutate"}

// perLayer are the metrics of single layers; a run with --trace 1 prints
// exactly these.
var perLayer = func() []metricDef {
	ds := []metricDef{
		{"graph.from_edges_ms", "ms"},
		{"core.bcc_ms", "ms"},
		{"core.bcc_mb", "MiB"},
		{"core.first_cc_ms", "ms"},
		{"core.rooting_ms", "ms"},
		{"core.tagging_ms", "ms"},
		{"core.last_cc_ms", "ms"},
		{"core.bcc_t1_ms", "ms"},
		{"core.speedup", "x"},
		{"core.cpu_ms", "ms"},
		{"seqbcc.bcc_ms", "ms"},
		{"bctree.index_ms", "ms"},
		{"bctree.index_mb", "MiB"},
		{"store.rebuild_overhead_ms", "ms"},
		{"store.query_batch_us", "us"},
		{"epoch.pin_ns", "ns"},
		{"wire.decode_us", "us"},
		{"wire.encode_us", "us"},
		{"bccdhttp.serve_us", "us"},
		{"mutate.fast_us", "us"},
		{"mutate.ack_1w_us", "us"},
		{"mutate.flush_ms", "ms"},
		{"mutate.materialize_ms", "ms"},
		{"persist.journal_append_us", "us"},
		{"persist.snapshot_ms", "ms"},
		{"persist.snapshot_mb", "MiB"},
		{"persist.map_ms", "ms"},
		{"store.recover_ms", "ms"},
		{"obs.batch_overhead_pct", "%"},
		{"runtime.sched_latency_p99_us", "us"},
		{"runtime.steal_pct", "%"},
		{"trace.overhead_pct", "%"},
	}
	for _, p := range gcPhases {
		ds = append(ds, metricDef{"runtime.gc_cycles." + p, "count"}, metricDef{"runtime.gc_pause_ms." + p, "ms"})
	}
	return ds
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	wname := flag.String("workload", "", "workload to run: social, grid or onecpu")
	seed := flag.Uint64("seed", 1, "seed the workload's graph and queries are generated from")
	seconds := flag.Float64("seconds", 10, "seconds the time-boxed phases (quiet queries, queries under churn) measure in total")
	traceMode := flag.Int("trace", 0, "1 = traced run: record spans, print the per-layer metrics")
	workDir := flag.String("work-dir", ".bench_build", "directory for the run's data directory and span dump")
	flag.Parse()

	w, ok := workloads[*wname]
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload social|grid|onecpu --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	if err := ensureProcs(w.procs); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	cfg := config{
		w:       w,
		seed:    *seed,
		seconds: *seconds,
		trace:   *traceMode == 1,
		workDir: *workDir,
		plan:    fullPlan,
		log:     os.Stderr,
	}
	res, err := run(cfg)
	if err == nil {
		err = printResult(os.Stdout, res, cfg.trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

// ensureProcs re-executes the process with GOMAXPROCS=procs in its
// environment unless it already runs that way: the runtime and the
// library's default worker pool size themselves once, at start-up.
func ensureProcs(procs int) error {
	want := strconv.Itoa(procs)
	if os.Getenv("GOMAXPROCS") == want && runtime.GOMAXPROCS(0) == procs {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("re-exec with GOMAXPROCS=%s: %w", want, err)
	}
	if err := os.Setenv("GOMAXPROCS", want); err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, os.Environ())
}

// printResult prints the run's context and metrics, one per line, and
// then the result object as the last line.
func printResult(out io.Writer, r *runResult, trace bool) error {
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layer
	}
	ctxLine, err := json.Marshal(r.context)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "context %s\n", ctxLine)
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "metric %-32s %14.4f %s\n", d.name, v, d.unit)
	}
	names := make([]string, 0, len(r.phases))
	for p := range r.phases {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		c := r.phases[p]
		fmt.Fprintf(out, "ops %-10s attempted %6d failed %d\n", p, c.attempted, c.failed)
	}
	res.Correct = r.failed == 0 && r.attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}
