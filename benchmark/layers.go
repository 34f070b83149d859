package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	fastbcc "repro"
	"repro/internal/bccdhttp"
	"repro/internal/persist"
	"repro/internal/wire"
)

// probes times each layer's public call on its own, inside a span, for
// the traced run's per-layer metrics. It runs after the restart phase,
// on the original graph and the recovered Store.
func (b *bench) probes() error {
	reps := b.cfg.plan.probeReps
	op := b.tr.op()
	root := b.tr.begin("probes", b.phase, op)
	defer b.tr.end(root)
	g := b.g
	L := b.layer

	edges := g.Edges()
	var fromEdges []float64
	for i := 0; i < reps; i++ {
		var err error
		fromEdges = append(fromEdges, ms(b.timed("graph.from_edges", root, op, func() {
			_, err = fastbcc.NewGraphFromEdges(g.NumVertices(), edges)
		})))
		if err != nil {
			return err
		}
	}
	L["graph.from_edges_ms"] = median(fromEdges)

	// core: the default-threads call is timed with its CPU time and
	// allocation; the one-thread call gives the self-relative speedup.
	var bcc, bccT1, bccMB, cpu []float64
	var firstCC, rooting, tagging, lastCC []float64
	var res *fastbcc.Result
	for i := 0; i < reps; i++ {
		runtime.GC()
		a0, c0 := allocBytes(), cpuTime()
		d := b.timed("core.bcc", root, op, func() { res = fastbcc.BCC(g, nil) })
		c1, a1 := cpuTime(), allocBytes()
		bcc = append(bcc, ms(d))
		cpu = append(cpu, ms(c1-c0))
		bccMB = append(bccMB, float64(a1-a0)/mib)
		firstCC = append(firstCC, ms(res.Times.FirstCC))
		rooting = append(rooting, ms(res.Times.Rooting))
		tagging = append(tagging, ms(res.Times.Tagging))
		lastCC = append(lastCC, ms(res.Times.LastCC))
		runtime.GC()
		bccT1 = append(bccT1, ms(b.timed("core.bcc_t1", root, op, func() {
			fastbcc.BCC(g, &fastbcc.Options{Threads: 1})
		})))
	}
	L["core.bcc_ms"] = median(bcc)
	L["core.bcc_mb"] = median(bccMB)
	L["core.cpu_ms"] = median(cpu)
	L["core.bcc_t1_ms"] = median(bccT1)
	L["core.speedup"] = L["core.bcc_t1_ms"] / L["core.bcc_ms"]
	L["core.first_cc_ms"] = median(firstCC)
	L["core.rooting_ms"] = median(rooting)
	L["core.tagging_ms"] = median(tagging)
	L["core.last_cc_ms"] = median(lastCC)

	var seq []float64
	for i := 0; i < max(1, reps/2); i++ {
		seq = append(seq, ms(b.timed("seqbcc.bcc", root, op, func() { fastbcc.BCCSeq(g) })))
	}
	L["seqbcc.bcc_ms"] = median(seq)

	var index, indexMB []float64
	res.ArticulationPoints() // the topology caches belong to core, not to the index build
	for i := 0; i < reps; i++ {
		runtime.GC()
		a0 := allocBytes()
		index = append(index, ms(b.timed("bctree.index", root, op, func() { fastbcc.NewIndex(g, res) })))
		indexMB = append(indexMB, float64(allocBytes()-a0)/mib)
	}
	L["bctree.index_ms"] = median(index)
	L["bctree.index_mb"] = median(indexMB)
	L["store.rebuild_overhead_ms"] = b.e2e["build_ms"] - L["core.bcc_ms"] - L["bctree.index_ms"]

	var flush, materialize []float64
	for _, st := range b.flushes {
		f := ms(st.LastBuild.Duration)
		flush = append(flush, f)
		materialize = append(materialize, f-ms(st.LastBuild.Phases.Total())-L["bctree.index_ms"])
	}
	L["mutate.flush_ms"] = median(flush)
	L["mutate.materialize_ms"] = median(materialize)

	if err := b.probeServing(root, op); err != nil {
		return err
	}
	if err := b.probeFastAck(root, op); err != nil {
		return err
	}
	return b.probePersist(root, op)
}

// perOp times n calls of fn in chunks of chunk calls and returns the
// median per-call time of the chunks.
func (b *bench) perOp(name string, parent int32, op int64, n, chunk int, fn func(i int)) time.Duration {
	var per []float64
	for i := 0; i < n; i += chunk {
		d := b.timed(name, parent, op, func() {
			for k := i; k < i+chunk; k++ {
				fn(k)
			}
		})
		per = append(per, float64(d)/float64(chunk))
	}
	return time.Duration(median(per))
}

// probeServing times the query path's layers in process: the Store's
// batch executor, the epoch pin, the wire codec and the HTTP handler,
// plus the metrics on/off A/B.
func (b *bench) probeServing(root int32, op int64) error {
	L := b.layer
	n := 2048
	np := len(b.pool)
	dsts := make([][]fastbcc.Answer, np)
	var qerr error
	L["store.query_batch_us"] = us(b.perOp("store.query_batch", root, op, n, 16, func(i int) {
		got, _, err := b.store.QueryBatch(b.ctx, b.h, graphName, b.pool[i%np].qs, dsts[i%np])
		if err != nil {
			qerr = err
		}
		dsts[i%np] = got
	}))
	if qerr != nil {
		return qerr
	}
	for i := range b.pool {
		b.check("probe", &b.pool[i], dsts[i], nil)
	}

	L["epoch.pin_ns"] = float64(b.perOp("epoch.pin", root, op, 1<<16, 1024, func(int) {
		if _, err := b.h.Acquire(graphName); err == nil {
			b.h.Release()
		}
	}))

	var qs []fastbcc.Query
	L["wire.decode_us"] = us(b.perOp("wire.decode", root, op, n, 16, func(i int) {
		qs, _ = wire.ReadRequest(bytes.NewReader(b.pool[i%np].body), qs)
	}))
	var frame []byte
	L["wire.encode_us"] = us(b.perOp("wire.encode", root, op, n, 16, func(i int) {
		frame = wire.AppendResponse(frame[:0], 1, dsts[i%np])
	}))

	h := bccdhttp.NewHandler(b.store, bccdhttp.Config{})
	path := "/v1/graphs/" + graphName + "/query/batch"
	var serveErr error
	var answers []fastbcc.Answer
	L["bccdhttp.serve_us"] = us(b.perOp("bccdhttp.serve", root, op, n, 16, func(i int) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b.pool[i%np].body))
		req.Header.Set("Content-Type", wire.ContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			serveErr = fmt.Errorf("ServeHTTP: %d %s", rec.Code, rec.Body.Bytes())
			return
		}
		if i < np {
			got, _, err := wire.ReadResponse(rec.Body, answers)
			b.check("probe", &b.pool[i], got, err)
			answers = got
		}
	}))
	if serveErr != nil {
		return serveErr
	}

	// Metrics off and on, interleaved chunk by chunk on one Store.
	var off, on []float64
	for c := 0; c < 128; c++ {
		enabled := c%2 == 1
		b.store.SetMetricsEnabled(enabled)
		d := b.timed("store.query_batch", root, op, func() {
			for k := 0; k < 16; k++ {
				i := (c*16 + k) % np
				dsts[i], _, _ = b.store.QueryBatch(b.ctx, b.h, graphName, b.pool[i].qs, dsts[i])
			}
		})
		if enabled {
			on = append(on, float64(d))
		} else {
			off = append(off, float64(d))
		}
	}
	b.store.SetMetricsEnabled(true)
	moff := median(off)
	L["obs.batch_overhead_pct"] = 100 * (median(on) - moff) / moff
	return nil
}

// probeFastAck times fast-class acks on a Store without a data
// directory: the classify-and-publish path with no journal.
func (b *bench) probeFastAck(root int32, op int64) error {
	st := fastbcc.NewStore(0)
	defer st.Close()
	snap, err := st.Load(b.ctx, graphName, b.g, nil)
	if err != nil {
		return err
	}
	snap.Release()
	var lat []float64
	for k := 0; k < 500; k++ {
		e := b.fastEdges[k%len(b.fastEdges)]
		var res fastbcc.MutationResult
		d := b.timed("store.apply_fast_nodurable", root, op, func() {
			res, err = st.ApplyBatch(b.ctx, graphName, []fastbcc.Edge{e}, nil)
		})
		ok := err == nil && res.Fast == 1
		b.attempt("probe", ok, "fast ack without DataDir of %v: %+v %v", e, res, err)
		lat = append(lat, us(d))
	}
	b.layer["mutate.fast_us"] = median(lat)
	return nil
}

// probePersist times a synced journal append on a scratch journal and
// the memory-mapping of the recovered snapshot file.
func (b *bench) probePersist(root int32, op int64) error {
	dir, err := os.MkdirTemp(b.cfg.workDir, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, _, err := persist.OpenJournal(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	defer j.Close()
	var lat []float64
	for k := 0; k < 300; k++ {
		e := b.fastEdges[k%len(b.fastEdges)]
		var aerr error
		lat = append(lat, us(b.timed("persist.journal_append", root, op, func() {
			_, aerr = j.Append(uint64(k+1), []persist.JEdge{{U: e.U, W: e.W}}, nil, true)
		})))
		if aerr != nil {
			return aerr
		}
	}
	b.layer["persist.journal_append_us"] = median(lat)

	snaps, err := filepath.Glob(filepath.Join(b.dir, "*", "snapshot.fbcc"))
	if err != nil || len(snaps) != 1 {
		return fmt.Errorf("snapshot file: found %v (%v)", snaps, err)
	}
	var maps []float64
	for i := 0; i < b.cfg.plan.probeReps; i++ {
		var m *persist.Mapping
		var merr error
		maps = append(maps, ms(b.timed("persist.map", root, op, func() { m, merr = persist.OpenMapped(snaps[0], false) })))
		if merr != nil {
			return merr
		}
		m.Release()
	}
	b.layer["persist.map_ms"] = median(maps)
	return nil
}
