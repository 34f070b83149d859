package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	fastbcc "repro"
	"repro/internal/wire"
)

// graphName is the catalog name the benchmark serves its graph under.
const graphName = "bench"

// plan fixes how much work each counted phase does; the time-boxed
// phases scale with --seconds instead.
type plan struct {
	setups        int // full set-ups; setup_s is their median
	builds        int // quiet rebuilds; build_ms/build_mb are their medians
	batch         int // queries per request
	pool          int // distinct precomputed request batches
	acks1w        int // durable fast acks from one writer
	writers       int // concurrent durable writers
	acksPerWriter int
	joins         int
	deletes       int
	persists      int // synchronous snapshot writes before shutdown
	recovers      int
	probeReps     int // repetitions of each per-layer probe
}

var fullPlan = plan{
	setups: 5, builds: 21, batch: 256, pool: 64,
	acks1w: 300, writers: 2, acksPerWriter: 2000,
	joins: 25, deletes: 15, persists: 3, recovers: 21, probeReps: 5,
}

type config struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	workDir string
	plan    plan
	log     io.Writer
	// corrupt flips one precomputed answer, so the checks must report
	// failed operations (the smoke test's fault injection).
	corrupt bool
}

type phaseCount struct{ attempted, failed int }

// runResult is everything a run measured.
type runResult struct {
	attempted, failed int
	phases            map[string]phaseCount
	e2e               map[string]float64
	layer             map[string]float64
	context           map[string]any
}

// batch is one request's queries, their precomputed answers and their
// wire frame.
type batch struct {
	qs   []fastbcc.Query
	want []fastbcc.Answer
	body []byte
}

type bench struct {
	cfg config
	ctx context.Context
	tr  *tracer
	rng *rand.Rand

	g         *fastbcc.Graph
	dir       string
	store     *fastbcc.Store
	h         *fastbcc.Handle
	srv       *httpServer
	phase     int32 // span of the running phase, parent of its root spans
	persisted int64 // snapshot writes the durable store has made

	pool      []batch
	active    []int32               // vertices with at least one edge
	fastEdges []fastbcc.Edge        // non-bridge edges: re-adding one is fast-class
	edges     []fastbcc.Edge        // the served edge multiset after mutations
	flushes   []fastbcc.GraphStatus // Status after each delete's flush

	mu     sync.Mutex
	phases map[string]phaseCount
	e2e    map[string]float64
	layer  map[string]float64
	info   map[string]any
	rt     map[string]phaseRuntime
}

// run executes every phase of cfg's workload and returns what it
// measured. Mismatched answers count as failed operations; an error
// means the run could not be carried out at all.
func run(cfg config) (*runResult, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		cfg:    cfg,
		ctx:    context.Background(),
		tr:     newTracer(cfg.trace),
		rng:    rand.New(rand.NewPCG(cfg.seed, 0x62636362656e6368)),
		phases: map[string]phaseCount{},
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		info:   map[string]any{},
		rt:     map[string]phaseRuntime{},
	}
	defer b.cleanup()
	steal0, total0, stealOK := cpuTicks()

	steps := []struct {
		name string
		fn   func() error
	}{
		{"setup", b.setup},
		{"prepare", b.prepare},
		{"quiet", b.quiet},
		{"churn", b.churnQueries},
		{"mutate", b.mutations},
		{"restart", b.restart},
	}
	for _, s := range steps {
		r0 := readRuntime()
		t0 := time.Now()
		b.phase = b.tr.begin("phase."+s.name, -1, b.tr.op())
		err := s.fn()
		b.tr.end(b.phase)
		b.addRuntime(s.name, r0)
		fmt.Fprintf(cfg.log, "phase %-8s %8.0f ms\n", s.name, ms(time.Since(t0)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	if cfg.trace {
		if err := b.probes(); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}

	steal := 0.0
	if steal1, total1, ok := cpuTicks(); stealOK && ok && total1 > total0 {
		steal = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	b.layer["runtime.steal_pct"] = steal
	b.layer["runtime.sched_latency_p99_us"] = b.rt["churn"].schedP99
	for _, p := range gcPhases {
		b.layer["runtime.gc_cycles."+p] = float64(b.rt[p].gcCycles)
		b.layer["runtime.gc_pause_ms."+p] = b.rt[p].gcPauseMs
	}
	b.info["workload"] = cfg.w.name
	b.info["seed"] = cfg.seed
	b.info["seconds"] = cfg.seconds
	b.info["trace"] = cfg.trace
	b.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	b.info["nproc"] = runtime.NumCPU()
	b.info["go"] = runtime.Version()
	b.info["steal_pct"] = steal
	b.info["vertices"] = b.g.NumVertices()
	b.info["edges"] = b.g.NumEdges()

	if cfg.trace {
		path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.json", cfg.w.name, cfg.seed))
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		b.info["spans"] = path
		for _, lt := range b.tr.selfTimes() {
			fmt.Fprintf(cfg.log, "span %-28s n=%-6d total %10.3f ms  self %10.3f ms\n", lt.Name, lt.Count, lt.TotalMs, lt.SelfMs)
		}
	}

	res := &runResult{phases: b.phases, e2e: b.e2e, layer: b.layer, context: b.info}
	for _, c := range b.phases {
		res.attempted += c.attempted
		res.failed += c.failed
	}
	return res, nil
}

// attempt counts one operation of phase; ok false counts it failed and
// logs why.
func (b *bench) attempt(phase string, ok bool, format string, args ...any) {
	b.mu.Lock()
	c := b.phases[phase]
	c.attempted++
	if !ok {
		c.failed++
		if c.failed <= 5 {
			fmt.Fprintf(b.cfg.log, "FAIL %s: %s\n", phase, fmt.Sprintf(format, args...))
		}
	}
	b.phases[phase] = c
	b.mu.Unlock()
}

// timed runs fn inside a span and returns its wall time.
func (b *bench) timed(name string, parent int32, op int64, fn func()) time.Duration {
	id := b.tr.begin(name, parent, op)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	b.tr.end(id)
	return d
}

func (b *bench) cleanup() {
	if b.srv != nil {
		b.srv.close()
	}
	if b.h != nil {
		b.h.Close()
	}
	if b.store != nil {
		b.store.Close()
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// settle waits until the durable store has written want snapshots: each
// full build (Load, Rebuild, delta flush) kicks one background persist.
// The persister may still be finishing up when the count moves; quiesce
// waits that out too.
func (b *bench) settle(want int64) error {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		s := b.store.Stats()
		if s.PersistFailures > 0 {
			return fmt.Errorf("snapshot persist failed (%d failures)", s.PersistFailures)
		}
		if s.PersistedSnapshots >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("snapshot %d not persisted after 2m", want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// setup generates the graph, opens a durable Store on a fresh data
// directory, loads the graph until its first snapshot is on disk, and
// starts the HTTP server — plan.setups times, keeping the last.
func (b *bench) setup() error {
	var secs []float64
	for i := 0; i < b.cfg.plan.setups; i++ {
		b.cleanup()
		b.srv, b.h, b.store, b.dir = nil, nil, nil, ""
		op := b.tr.op()
		root := b.tr.begin("setup", b.phase, op)
		t0 := time.Now()
		b.timed("gen.graph", root, op, func() { b.g = b.cfg.w.graph(b.cfg.seed) })
		dir, err := os.MkdirTemp(b.cfg.workDir, "data-")
		if err != nil {
			return err
		}
		b.dir = dir
		b.store = fastbcc.NewStoreWithConfig(fastbcc.StoreConfig{DataDir: dir})
		var lerr error
		b.timed("store.load", root, op, func() {
			var snap *fastbcc.Snapshot
			if snap, lerr = b.store.Load(b.ctx, graphName, b.g, nil); lerr == nil {
				snap.Release()
			}
		})
		if lerr != nil {
			return lerr
		}
		b.persisted = 1
		var serr error
		b.timed("persist.settle", root, op, func() { serr = b.settle(b.persisted) })
		if serr != nil {
			return serr
		}
		b.timed("server.start", root, op, func() { b.srv, serr = startServer(b.store) })
		if serr != nil {
			return serr
		}
		secs = append(secs, time.Since(t0).Seconds())
		b.tr.end(root)
		b.attempt("setup", true, "")
	}
	b.h = b.store.NewHandle()
	b.e2e["setup_s"] = median(secs)
	return nil
}

// rebuild runs one Store.Rebuild and returns its wall time and the MiB
// it allocated; ok is false (and the operation counted failed) when the
// build failed. The snapshot persist it kicks is left running.
func (b *bench) rebuild(phase string, parent int32, op int64) (d time.Duration, allocMB float64, ok bool) {
	var err error
	a0 := allocBytes()
	d = b.timed("store.rebuild", parent, op, func() {
		var snap *fastbcc.Snapshot
		if snap, err = b.store.Rebuild(b.ctx, graphName, nil); err == nil {
			snap.Release()
		}
	})
	allocMB = float64(allocBytes()-a0) / mib
	b.attempt(phase, err == nil, "rebuild: %v", err)
	if err == nil {
		b.persisted++
	}
	return d, allocMB, err == nil
}

// quiesce waits for the background persist of the last full build and
// then writes the snapshot once more synchronously: Store.Persist waits
// for the background writer to finish entirely (journal truncation and
// snapshot release included), so nothing is in flight when it returns.
func (b *bench) quiesce(parent int32, op int64) error {
	var err error
	b.timed("persist.settle", parent, op, func() { err = b.settle(b.persisted) })
	if err != nil {
		return err
	}
	b.timed("store.persist", parent, op, func() { err = b.store.Persist(graphName) })
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	b.persisted++
	return nil
}

// prepare reads the live heap with the graph serving, then checks the
// served decomposition and precomputes the oracle answers.
func (b *bench) prepare() error {
	if err := b.quiesce(b.phase, 0); err != nil {
		return err
	}
	// Stats runs epoch reclamation; the two collections also drop the
	// pooled build arena, which is scratch, not serving state.
	b.store.Stats()
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.e2e["heap_mb"] = float64(m.HeapAlloc) / mib
	return b.prepareQueries()
}

// prepareQueries checks the served decomposition against BCCSeq once,
// builds the independent oracle, precomputes the request pool and picks
// the non-bridge edges the fast-class acks re-add.
func (b *bench) prepareQueries() error {
	seq := fastbcc.BCCSeq(b.g)
	snap, err := b.h.Acquire(graphName)
	if err != nil {
		return err
	}
	gotAP := append([]int32(nil), snap.Result.ArticulationPoints()...)
	gotBCC := snap.Result.NumBCC
	b.h.Release()
	wantAP := seq.ArticulationPoints()
	b.attempt("build", gotBCC == seq.NumBCC() && sameSet(gotAP, wantAP),
		"decomposition: %d blocks, %d articulation points; BCCSeq has %d and %d",
		gotBCC, len(gotAP), seq.NumBCC(), len(wantAP))
	b.info["blocks"] = seq.NumBCC()
	b.info["articulation_points"] = len(wantAP)

	oracle := oracleIndex(b.g)
	b.info["bridges"] = oracle.NumBridges()
	for _, e := range b.g.Edges() {
		if e.U != e.W && oracle.Biconnected(e.U, e.W) && oracle.TwoEdgeConnected(e.U, e.W) {
			b.fastEdges = append(b.fastEdges, e)
			if len(b.fastEdges) == 64 {
				break
			}
		}
	}
	if len(b.fastEdges) == 0 {
		return fmt.Errorf("no non-bridge edge to re-add")
	}
	for v := int32(0); v < int32(b.g.NumVertices()); v++ {
		if b.g.Degree(v) > 0 {
			b.active = append(b.active, v)
		}
	}
	if len(b.active) < 2 {
		return fmt.Errorf("graph has %d non-isolated vertices", len(b.active))
	}
	p := b.cfg.plan
	b.pool = make([]batch, p.pool)
	for i := range b.pool {
		qs := make([]fastbcc.Query, p.batch)
		for j := range qs {
			qs[j] = fastbcc.Query{
				Op: fastbcc.QueryOp(1 + b.rng.IntN(6)),
				U:  b.vertex(), V: b.vertex(), X: b.vertex(),
			}
		}
		b.pool[i].qs = qs
	}
	b.expect(oracle)
	return nil
}

func (b *bench) vertex() int32 { return b.active[b.rng.IntN(len(b.active))] }

// expect recomputes every batch's answers and wire frame from idx.
func (b *bench) expect(idx *fastbcc.Index) {
	for i := range b.pool {
		pb := &b.pool[i]
		pb.want = pb.want[:0]
		for _, q := range pb.qs {
			pb.want = append(pb.want, answer(idx, q))
		}
		pb.body = wire.AppendRequest(pb.body[:0], pb.qs)
	}
	if b.cfg.corrupt {
		b.pool[0].want[0] ^= 1
	}
}

func sameSet(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	a = append([]int32(nil), a...)
	b = append([]int32(nil), b...)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// check compares answers to a batch's precomputed ones.
func (b *bench) check(phase string, pb *batch, got []fastbcc.Answer, err error) {
	if err != nil {
		b.attempt(phase, false, "batch: %v", err)
		return
	}
	if len(got) != len(pb.want) {
		b.attempt(phase, false, "batch: %d answers for %d queries", len(got), len(pb.want))
		return
	}
	for i := range got {
		if got[i] != pb.want[i] {
			q := pb.qs[i]
			b.attempt(phase, false, "%v(u=%d v=%d x=%d) = %d, want %d", q.Op, q.U, q.V, q.X, got[i], pb.want[i])
			return
		}
	}
	b.attempt(phase, true, "")
}

// quiet interleaves the quiet rebuilds with windows of one closed-loop
// HTTP client, so both sets of samples spread over the same stretch of
// the run. Nothing else is in flight during either: each build starts
// after the previous build's persist and two GCs, each query window after
// the persist of the build before it and a GC. The tail and the rate are
// medians over the windows of each window's p99 and request rate (a
// window holds thousands of requests): a burst of hypervisor steal that
// hits a few windows, which moved a pooled p99 by up to 75% between
// otherwise alike runs, then moves them little. In a traced run every
// other request is traced, so the two halves give the tracing overhead.
func (b *bench) quiet() error {
	p := b.cfg.plan
	window := time.Duration(0.4 * b.cfg.seconds * float64(time.Second) / float64(p.builds))
	var builds, mbs, lat, traced, untraced, winP99, winRate []float64
	var dst []fastbcc.Answer
	for i := 0; i < p.builds; i++ {
		r0 := readRuntime()
		op := b.tr.op()
		root := b.tr.begin("build", b.phase, op)
		// Two collections empty the Runner's pooled scratch arena
		// (sync.Pool keeps a victim copy across one), so every build
		// starts from the same state instead of depending on how many
		// collections the persist happened to trigger.
		runtime.GC()
		runtime.GC()
		d, mb, ok := b.rebuild("build", root, op)
		if ok {
			builds = append(builds, ms(d))
			mbs = append(mbs, mb)
		}
		err := b.quiesce(root, op)
		b.tr.end(root)
		if err != nil {
			return err
		}
		runtime.GC()
		b.addRuntime("build", r0)

		r0 = readRuntime()
		first := len(lat)
		start := time.Now()
		for n := 0; time.Since(start) < window; n++ {
			pb := &b.pool[len(lat)%len(b.pool)]
			on := b.cfg.trace && n%2 == 0
			b.tr.on.Store(on)
			t0 := time.Now()
			got, err := b.srv.query(b.tr, b.phase, b.tr.op(), pb, &dst)
			l := us(time.Since(t0))
			b.tr.on.Store(b.cfg.trace)
			b.check("query", pb, got, err)
			lat = append(lat, l)
			if on {
				traced = append(traced, l)
			} else {
				untraced = append(untraced, l)
			}
		}
		if win := lat[first:]; len(win) > 0 {
			winRate = append(winRate, float64(len(win))/time.Since(start).Seconds())
			winP99 = append(winP99, quantile(append([]float64(nil), win...), 0.99))
		}
		b.addRuntime("query", r0)
	}
	b.e2e["build_ms"] = median(builds)
	b.e2e["build_mb"] = median(mbs)
	b.info["query_requests"] = len(lat)
	b.info["query_pooled_p99_us"] = quantile(lat, 0.99)
	b.e2e["query_p50_us"] = median(lat)
	b.e2e["query_p99_us"] = median(winP99)
	b.e2e["query_rps"] = median(winRate)
	if b.cfg.trace {
		u := median(untraced)
		b.layer["trace.overhead_pct"] = 100 * (median(traced) - u) / u
	}
	return nil
}

// addRuntime adds what the runtime did since r0 to phase's totals.
func (b *bench) addRuntime(phase string, r0 runtimeSample) {
	d := runtimeBetween(r0, readRuntime())
	t := b.rt[phase]
	t.gcCycles += d.gcCycles
	t.gcPauseMs += d.gcPauseMs
	t.schedP99 = max(t.schedP99, d.schedP99)
	b.rt[phase] = t
}

// churnQueries sends the same requests on an open-loop schedule at the
// workload's fixed rate while a Rebuild loop runs throughout. Each
// request is timed from when it was due.
func (b *bench) churnQueries() error {
	d := time.Duration(0.6 * b.cfg.seconds * float64(time.Second))
	rate := b.cfg.w.churnRate
	period := time.Duration(float64(time.Second) / rate)
	n := max(1, int(rate*d.Seconds()))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var loopErr error
	rebuilds := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			op := b.tr.op()
			if _, _, ok := b.rebuild("churn", b.phase, op); !ok {
				continue
			}
			rebuilds++
			if err := b.settle(b.persisted); err != nil {
				loopErr = err
				return
			}
		}
	}()

	lat := make([]float64, 0, n)
	late := make([]float64, 0, n)
	var dst []fastbcc.Answer
	start := time.Now().Add(period)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late = append(late, us(time.Since(due)))
		pb := &b.pool[i%len(b.pool)]
		got, err := b.srv.query(b.tr, b.phase, b.tr.op(), pb, &dst)
		lat = append(lat, us(time.Since(due)))
		b.check("churn", pb, got, err)
	}
	close(stop)
	wg.Wait()
	if loopErr != nil {
		return loopErr
	}
	if err := b.quiesce(b.phase, 0); err != nil {
		return err
	}
	b.e2e["churn_query_p50_us"] = median(lat)
	b.info["churn_rate"] = rate
	b.info["churn_requests"] = n
	b.info["churn_p99_us"] = quantile(lat, 0.99)
	b.info["churn_rebuilds"] = rebuilds
	b.info["lateness_p50_us"] = median(late)
	b.info["lateness_p99_us"] = quantile(late, 0.99)
	return nil
}
