package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	fastbcc "repro"
)

// mutations measures durable acks (one writer, then plan.writers
// concurrent writers), block-joining inserts and deletions, then checks
// the served answers against an oracle rebuilt from the mutated edges.
func (b *bench) mutations() error {
	p := b.cfg.plan
	b.edges = b.g.Edges()

	b.layer["mutate.ack_1w_us"] = median(b.acks(1, p.acks1w))

	// The concurrent acks run in one burst before each join, so their
	// samples spread over the whole join sequence: fsync latency on a
	// shared disk drifts over tenths of a second, and one short burst of
	// acks sampled a single stretch of it. A join only merges blocks, so
	// the re-added edges stay fast-class.
	var acks, joins []float64
	for i := 0; i < p.joins; i++ {
		acks = append(acks, b.acks(p.writers, p.acksPerWriter/p.joins)...)
		d, ok, err := b.join()
		if err != nil {
			return err
		}
		if ok {
			joins = append(joins, ms(d))
		}
	}
	b.e2e["ack_p50_us"] = median(acks)
	b.e2e["join_ms"] = median(joins)

	var dels []float64
	for i := 0; i < p.deletes; i++ {
		d, ok, err := b.deleteFresh()
		if err != nil {
			return err
		}
		if ok {
			dels = append(dels, ms(d))
		}
	}
	b.e2e["delete_fresh_ms"] = median(dels)

	g, err := fastbcc.NewGraphFromEdges(b.g.NumVertices(), b.edges)
	if err != nil {
		return err
	}
	b.expect(oracleIndex(g))
	var dst []fastbcc.Answer
	for i := range b.pool {
		got, _, err := b.store.QueryBatch(b.ctx, b.h, graphName, b.pool[i].qs, dst)
		b.check("mutate", &b.pool[i], got, err)
		dst = got
	}
	return nil
}

// acks runs writers goroutines that each apply perWriter single-edge
// insertions of non-bridge edges — fast-class, journaled and fsynced
// before the ack — and returns the ack latencies in µs.
func (b *bench) acks(writers, perWriter int) []float64 {
	lats := make([][]float64, writers)
	applied := make([][]fastbcc.Edge, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				e := b.fastEdges[(w+k*writers)%len(b.fastEdges)]
				op := b.tr.op()
				var res fastbcc.MutationResult
				var err error
				d := b.timed("store.apply_fast", b.phase, op, func() {
					res, err = b.store.ApplyBatch(b.ctx, graphName, []fastbcc.Edge{e}, nil)
				})
				ok := err == nil && res.Fast == 1 && res.Collapsed == 0 && res.Queued == 0
				b.attempt("mutate", ok, "fast ack of %v: %+v %v", e, res, err)
				if err == nil {
					applied[w] = append(applied[w], e)
				}
				if ok {
					lats[w] = append(lats[w], us(d))
				}
			}
		}(w)
	}
	wg.Wait()
	var all []float64
	for w := 0; w < writers; w++ {
		all = append(all, lats[w]...)
		b.edges = append(b.edges, applied[w]...)
	}
	return all
}

// join finds two vertices that are connected but not biconnected,
// inserts the edge between them (collapse-class: it merges the blocks on
// their block-cut path) and checks they are biconnected afterwards. The
// ack is also the join's time to fresh. ok reports whether the join was
// acked as intended; err, that no join could be attempted.
func (b *bench) join() (d time.Duration, ok bool, err error) {
	u, v, err := b.joinPair()
	if err != nil {
		return 0, false, err
	}
	op := b.tr.op()
	root := b.tr.begin("join", b.phase, op)
	defer b.tr.end(root)
	e := fastbcc.Edge{U: u, W: v}
	var res fastbcc.MutationResult
	d = b.timed("store.apply_join", root, op, func() {
		res, err = b.store.ApplyBatch(b.ctx, graphName, []fastbcc.Edge{e}, nil)
	})
	if err != nil {
		b.attempt("mutate", false, "join %v: %v", e, err)
		return d, false, nil
	}
	b.edges = append(b.edges, e)
	var got []fastbcc.Answer
	b.timed("store.query_batch", root, op, func() {
		got, _, err = b.store.QueryBatch(b.ctx, b.h, graphName,
			[]fastbcc.Query{{Op: fastbcc.OpBiconnected, U: u, V: v}}, nil)
	})
	ok = err == nil && res.Collapsed == 1 && res.Fast == 0 && res.Queued == 0 && len(got) == 1 && got[0] == 1
	b.attempt("mutate", ok, "join %v: %+v, biconnected after = %v (%v)", e, res, got, err)
	return d, ok, nil
}

// joinPair samples vertex pairs until one is connected but not
// biconnected in the served snapshot.
func (b *bench) joinPair() (int32, int32, error) {
	qs := make([]fastbcc.Query, 0, 256)
	var got []fastbcc.Answer
	for try := 0; try < 64; try++ {
		qs = qs[:0]
		for k := 0; k < 128; k++ {
			u, v := b.vertex(), b.vertex()
			qs = append(qs, fastbcc.Query{Op: fastbcc.OpConnected, U: u, V: v},
				fastbcc.Query{Op: fastbcc.OpBiconnected, U: u, V: v})
		}
		var err error
		got, _, err = b.store.QueryBatch(b.ctx, b.h, graphName, qs, got)
		if err != nil {
			return 0, 0, err
		}
		for k := 0; k < len(qs); k += 2 {
			if got[k] == 1 && got[k+1] == 0 && qs[k].U != qs[k].V {
				return qs[k].U, qs[k].V, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("no connected, non-biconnected vertex pair found")
}

// deleteFresh deletes one edge and drains the coalesced flush: the time
// until FlushDeltas returns with a new version serving and nothing
// pending. ok reports whether the deletion was acked and drained as
// intended; err, that the Store could not be inspected or quiesced.
func (b *bench) deleteFresh() (d time.Duration, ok bool, err error) {
	i := b.rng.IntN(len(b.edges))
	e := b.edges[i]
	st0, err := b.store.Status(graphName)
	if err != nil {
		return 0, false, err
	}
	op := b.tr.op()
	root := b.tr.begin("delete", b.phase, op)
	var res fastbcc.MutationResult
	var aerr, ferr error
	t0 := time.Now()
	b.timed("store.apply_delete", root, op, func() {
		res, aerr = b.store.ApplyBatch(b.ctx, graphName, nil, []fastbcc.Edge{e})
	})
	if aerr == nil {
		b.timed("store.flush_deltas", root, op, func() { ferr = b.store.FlushDeltas(b.ctx, graphName) })
	}
	d = time.Since(t0)
	b.tr.end(root)
	st, err := b.store.Status(graphName)
	if err != nil {
		return 0, false, err
	}
	ok = aerr == nil && ferr == nil && res.Queued == 1 && res.Fast == 0 && res.Collapsed == 0 &&
		st.Version > st0.Version && st.PendingDeltas == 0
	b.attempt("mutate", ok, "delete %v: %+v, flush %v, version %d -> %d, pending %d (%v)",
		e, res, ferr, st0.Version, st.Version, st.PendingDeltas, aerr)
	if aerr != nil {
		return d, false, nil
	}
	b.edges[i] = b.edges[len(b.edges)-1]
	b.edges = b.edges[:len(b.edges)-1]
	if st.LastBuild != nil {
		b.flushes = append(b.flushes, st)
	}
	b.persisted++
	return d, ok, b.quiesce(b.phase, op)
}

// restart writes the snapshot synchronously, records the served answers,
// shuts the server and Store down, and recovers a new Store from the
// data directory plan.recovers times, checking each answers exactly as
// before shutdown. The last recovered Store stays open for the probes.
func (b *bench) restart() error {
	p := b.cfg.plan
	var snaps []float64
	for i := 0; i < p.persists; i++ {
		var err error
		d := b.timed("store.persist", b.phase, b.tr.op(), func() { err = b.store.Persist(graphName) })
		b.attempt("restart", err == nil, "persist: %v", err)
		snaps = append(snaps, ms(d))
		b.persisted++
	}
	b.layer["persist.snapshot_ms"] = median(snaps)

	before := make([][]fastbcc.Answer, len(b.pool))
	for i := range b.pool {
		got, _, err := b.store.QueryBatch(b.ctx, b.h, graphName, b.pool[i].qs, nil)
		b.check("restart", &b.pool[i], got, err)
		before[i] = got
	}
	b.srv.close()
	b.h.Close()
	b.store.Close()
	b.srv, b.h, b.store = nil, nil, nil

	// Each recovery starts with nothing in flight: the lazy snapshot
	// verifier a Recover leaves running has exited (the goroutine count is
	// back to where it was with no Store open) and a GC has run.
	base := steadyGoroutines()
	var recs []float64
	for r := 0; r < p.recovers; r++ {
		if b.store != nil {
			b.h.Close()
			b.store.Close()
		}
		waitGoroutines(base)
		runtime.GC()
		b.store = fastbcc.NewStoreWithConfig(fastbcc.StoreConfig{DataDir: b.dir})
		b.h = b.store.NewHandle()
		op := b.tr.op()
		var rep *fastbcc.RecoveryReport
		var err error
		d := b.timed("store.recover", b.phase, op, func() {
			if rep, err = b.store.Recover(b.ctx); err == nil {
				if _, err = b.h.Acquire(graphName); err == nil {
					b.h.Release()
				}
			}
		})
		if err != nil || len(rep.Graphs) != 1 || len(rep.Failures) != 0 {
			b.attempt("restart", false, "recover: %+v %v", rep, err)
			continue
		}
		recs = append(recs, ms(d))
		b.layer["persist.snapshot_mb"] = float64(rep.Graphs[0].SnapshotBytes) / mib
		if rep.Graphs[0].Replayed > 0 {
			if err := b.store.FlushDeltas(b.ctx, graphName); err != nil {
				b.attempt("restart", false, "replay flush: %v", err)
				continue
			}
		}
		b.attempt("restart", true, "")
		for i := range b.pool {
			got, _, err := b.store.QueryBatch(b.ctx, b.h, graphName, b.pool[i].qs, nil)
			b.check("restart", &batch{qs: b.pool[i].qs, want: before[i]}, got, err)
		}
	}
	// Recoveries fall into a fast and a slow mode (about 2.2 and 3.4 ms
	// on social), mostly one per run; the interquartile mean at least
	// does not jump between them within a run.
	b.layer["store.recover_ms"] = interquartileMean(recs)
	return nil
}

// steadyGoroutines waits, up to a second, until the goroutine count has
// not changed for 20ms, and returns it.
func steadyGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(time.Second); same < 4 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// waitGoroutines waits, up to a second, until at most base goroutines
// are left.
func waitGoroutines(base int) {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
}
