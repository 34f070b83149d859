package bctree

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
)

// naiveRef answers every Index query by brute force on the edge list:
// BFS with a vertex or a single edge occurrence removed. It is the
// definitional reference — "does removing x disconnect u from v" is
// literally recomputed per query.
type naiveRef struct {
	n     int
	edges []graph.Edge
	adj   [][]arcRef // adj[v] = (neighbor, edge index)
	seen  []int32    // BFS epoch marks, reused across queries
	epoch int32
	queue []int32
}

type arcRef struct {
	to  int32
	idx int32
}

func newNaive(n int, edges []graph.Edge) *naiveRef {
	na := &naiveRef{n: n, edges: edges, adj: make([][]arcRef, n), seen: make([]int32, n)}
	for i, e := range edges {
		na.adj[e.U] = append(na.adj[e.U], arcRef{e.W, int32(i)})
		if e.U != e.W {
			na.adj[e.W] = append(na.adj[e.W], arcRef{e.U, int32(i)})
		}
	}
	return na
}

// reach reports whether v is reachable from u with vertex skipV (-1 =
// none) and edge occurrence skipE (-1 = none) removed.
func (na *naiveRef) reach(u, v, skipV int32, skipE int32) bool {
	if u == skipV || v == skipV {
		return false
	}
	if u == v {
		return true
	}
	na.epoch++
	na.seen[u] = na.epoch
	na.queue = append(na.queue[:0], u)
	for len(na.queue) > 0 {
		w := na.queue[len(na.queue)-1]
		na.queue = na.queue[:len(na.queue)-1]
		for _, a := range na.adj[w] {
			if a.to == skipV || a.idx == skipE || na.seen[a.to] == na.epoch {
				continue
			}
			if a.to == v {
				return true
			}
			na.seen[a.to] = na.epoch
			na.queue = append(na.queue, a.to)
		}
	}
	return false
}

func (na *naiveRef) connected(u, v int32) bool { return na.reach(u, v, -1, -1) }

func (na *naiveRef) separates(x, u, v int32) bool {
	return x != u && x != v && u != v && na.reach(u, v, -1, -1) && !na.reach(u, v, x, -1)
}

func (na *naiveRef) cutsOnPath(u, v int32) []int32 {
	var out []int32
	if u == v || !na.reach(u, v, -1, -1) {
		return out
	}
	for x := int32(0); x < int32(na.n); x++ {
		if x != u && x != v && !na.reach(u, v, x, -1) {
			out = append(out, x)
		}
	}
	return out
}

// biconnected: u != v share a block iff they are connected and no third
// vertex separates them.
func (na *naiveRef) biconnected(u, v int32) bool {
	if u == v || !na.reach(u, v, -1, -1) {
		return false
	}
	for x := int32(0); x < int32(na.n); x++ {
		if x != u && x != v && !na.reach(u, v, x, -1) {
			return false
		}
	}
	return true
}

func (na *naiveRef) twoEdgeConnected(u, v int32) bool {
	if u == v {
		return true
	}
	if !na.reach(u, v, -1, -1) {
		return false
	}
	for i := range na.edges {
		if !na.reach(u, v, -1, int32(i)) {
			return false
		}
	}
	return true
}

func (na *naiveRef) bridgesOnPath(u, v int32) []graph.Edge {
	var out []graph.Edge
	if u == v || !na.reach(u, v, -1, -1) {
		return out
	}
	for i, e := range na.edges {
		if !na.reach(u, v, -1, int32(i)) {
			b := e
			if b.U > b.W {
				b.U, b.W = b.W, b.U
			}
			out = append(out, b)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].U != out[b].U {
			return out[a].U < out[b].U
		}
		return out[a].W < out[b].W
	})
	return out
}

// randomInstance draws one test graph. The mix deliberately includes
// forests, multigraphs (parallel edges and self-loops), disconnected
// graphs, and the degenerate shapes.
func randomInstance(rng *rand.Rand, trial int) (int, []graph.Edge) {
	switch trial % 6 {
	case 0: // sparse random multigraph
		n := 2 + rng.Intn(40)
		m := rng.Intn(2 * n)
		return n, randomEdges(rng, n, m, true)
	case 1: // denser random simple-ish graph
		n := 2 + rng.Intn(30)
		m := rng.Intn(4 * n)
		return n, randomEdges(rng, n, m, false)
	case 2: // forest: random tree minus some edges, plus isolated vertices
		n := 2 + rng.Intn(40)
		tree := gen.RandomTree(n, uint64(trial)).Edges()
		keep := tree[:rng.Intn(len(tree)+1)]
		return n + rng.Intn(3), append([]graph.Edge{}, keep...)
	case 3: // disjoint union of small shapes
		g := gen.Disjoint(gen.Cycle(3+rng.Intn(5)), gen.Chain(2+rng.Intn(6)), gen.Star(2+rng.Intn(5)))
		return g.NumVertices() + 1, g.Edges()
	case 4: // clique chain (many cuts, no bridges)
		g := gen.CliqueChain(2+rng.Intn(3), 3+rng.Intn(3))
		return g.NumVertices(), g.Edges()
	default: // doubled-edge path: parallel edges shadowing bridges
		n := 3 + rng.Intn(10)
		var edges []graph.Edge
		for v := 0; v < n-1; v++ {
			edges = append(edges, graph.Edge{U: int32(v), W: int32(v + 1)})
			if rng.Intn(2) == 0 {
				edges = append(edges, graph.Edge{U: int32(v), W: int32(v + 1)})
			}
		}
		return n, edges
	}
}

func randomEdges(rng *rand.Rand, n, m int, multi bool) []graph.Edge {
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u, w := int32(rng.Intn(n)), int32(rng.Intn(n))
		if !multi && u == w {
			continue
		}
		edges = append(edges, graph.Edge{U: u, W: w})
	}
	if multi {
		for i := 0; i+1 < len(edges) && i < 3; i++ {
			edges = append(edges, edges[rng.Intn(len(edges))]) // parallel copies
		}
	}
	return edges
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalEdges(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkPair cross-checks every Index query for one vertex pair against
// the naive reference.
func checkPair(t *testing.T, x *Index, na *naiveRef, u, v int32, rng *rand.Rand) {
	t.Helper()
	if got, want := x.Connected(u, v), na.connected(u, v); got != want {
		t.Fatalf("Connected(%d,%d) = %v, want %v", u, v, got, want)
	}
	if got, want := x.TwoEdgeConnected(u, v), na.twoEdgeConnected(u, v); got != want {
		t.Fatalf("TwoEdgeConnected(%d,%d) = %v, want %v", u, v, got, want)
	}
	if u != v {
		if got, want := x.Biconnected(u, v), na.biconnected(u, v); got != want {
			t.Fatalf("Biconnected(%d,%d) = %v, want %v", u, v, got, want)
		}
	}
	wantCuts := na.cutsOnPath(u, v)
	if got := x.CutsOnPath(u, v); !equalInt32(got, wantCuts) {
		t.Fatalf("CutsOnPath(%d,%d) = %v, want %v", u, v, got, wantCuts)
	}
	if got := x.NumCutsOnPath(u, v); got != len(wantCuts) {
		t.Fatalf("NumCutsOnPath(%d,%d) = %d, want %d", u, v, got, len(wantCuts))
	}
	wantBridges := na.bridgesOnPath(u, v)
	if got := x.BridgesOnPath(u, v); !equalEdges(got, wantBridges) {
		t.Fatalf("BridgesOnPath(%d,%d) = %v, want %v", u, v, got, wantBridges)
	}
	if got := x.NumBridgesOnPath(u, v); got != len(wantBridges) {
		t.Fatalf("NumBridgesOnPath(%d,%d) = %d, want %d", u, v, got, len(wantBridges))
	}
	// Separates against a random third vertex and against known cuts.
	c := int32(rng.Intn(x.NumVertices()))
	if got, want := x.Separates(c, u, v), na.separates(c, u, v); got != want {
		t.Fatalf("Separates(%d,%d,%d) = %v, want %v", c, u, v, got, want)
	}
	for _, c := range wantCuts {
		if !x.Separates(c, u, v) {
			t.Fatalf("Separates(%d,%d,%d) = false for an on-path cut", c, u, v)
		}
	}
}

// numCuts counts the articulation points: vertices whose removal
// separates two of their own neighbors.
func (na *naiveRef) numCuts() int {
	cnt := 0
	for x := int32(0); x < int32(na.n); x++ {
		first := int32(-1)
		for _, a := range na.adj[x] {
			if a.to == x {
				continue
			}
			if first == -1 {
				first = a.to
			} else if !na.reach(first, a.to, x, -1) {
				cnt++
				break
			}
		}
	}
	return cnt
}

// numBridges counts the edge occurrences whose removal disconnects their
// own endpoints.
func (na *naiveRef) numBridges() int {
	cnt := 0
	for i, e := range na.edges {
		if e.U != e.W && !na.reach(e.U, e.W, -1, int32(i)) {
			cnt++
		}
	}
	return cnt
}

// checkIndex builds the index over res, checks its aggregate counts, and
// cross-checks every query on random vertex pairs against the naive
// reference. It returns the index.
func checkIndex(t *testing.T, g *graph.Graph, res *core.Result, na *naiveRef, rng *rand.Rand) *Index {
	t.Helper()
	x := New(g, res)
	if x.NumBlocks() != res.NumBCC {
		t.Fatalf("NumBlocks %d != NumBCC %d", x.NumBlocks(), res.NumBCC)
	}
	if got, want := x.NumCutVertices(), na.numCuts(); got != want {
		t.Fatalf("NumCutVertices %d, want %d", got, want)
	}
	if got, want := x.NumBridges(), na.numBridges(); got != want {
		t.Fatalf("NumBridges %d, want %d", got, want)
	}
	n := na.n
	pairs := 30
	if n < 8 {
		pairs = n * n
	}
	for p := 0; p < pairs; p++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if p == 0 {
			v = u // always exercise the diagonal
		}
		checkPair(t, x, na, u, v, rng)
	}
	return x
}

// checkCollapse exercises the collapse class of an edge insertion: it
// picks a random connected pair {u, v} in different blocks, merges the
// blocks on their block-cut path with core.MergeBlockPath, and checks the
// index over the merged decomposition against the naive reference over
// edges + {u, v}. As in the serving path, the index is built on g, which
// lacks the new edge. Graphs with no such pair are skipped.
func checkCollapse(t *testing.T, g *graph.Graph, res *core.Result, x *Index, edges []graph.Edge, na *naiveRef, rng *rand.Rand) {
	t.Helper()
	n := na.n
	for try := 0; try < 4*n; try++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v || !na.connected(u, v) || na.biconnected(u, v) {
			continue
		}
		labels := x.PathBlockLabels(u, v)
		if labels == nil {
			t.Fatalf("PathBlockLabels(%d,%d) = nil for a cross-block pair", u, v)
		}
		merged := core.MergeBlockPath(nil, res, labels)
		if merged == nil {
			t.Fatalf("MergeBlockPath(%v) = nil for the path of (%d,%d)", labels, u, v)
		}
		grown := append(append([]graph.Edge{}, edges...), graph.Edge{U: u, W: v})
		checkIndex(t, g, merged, newNaive(n, grown), rng)
		return
	}
}

// TestCrossRandom is the randomized cross-test: every Index query answer
// is checked against a naive BFS/recompute reference on random graphs
// including forests, multigraphs, and disconnected inputs. The index is
// built from core.BCC and from every registered engine — each grows its
// own spanning forest, which the index derives its connectivity from —
// and from a collapse-class merge of each engine's result. Run it under
// -race with GOMAXPROCS=4 (the CI race shard does) to interrogate the
// parallel build.
func TestCrossRandom(t *testing.T) {
	trials := 36
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) * 7919))
			n, edges := randomInstance(rng, trial)
			g := graph.MustFromEdges(n, edges)
			na := newNaive(n, edges)
			checkIndex(t, g, core.BCC(g, core.Options{Seed: uint64(trial)}), na, rng)
			for _, alg := range engine.All() {
				t.Run(alg.Name(), func(t *testing.T) {
					res, err := alg.Run(g, engine.RunOptions{Seed: uint64(trial)})
					if err != nil {
						t.Fatal(err)
					}
					x := checkIndex(t, g, res, na, rng)
					checkCollapse(t, g, res, x, edges, na, rng)
				})
			}
		})
	}
}

// TestConcurrentQueries hammers one shared Index from many goroutines;
// under -race this proves queries are read-only and the index is safe to
// serve concurrently.
func TestConcurrentQueries(t *testing.T) {
	g := gen.Disjoint(gen.CliqueChain(4, 5), gen.Chain(30))
	x := build(t, g, 42)
	n := x.NumVertices()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				u := int32(rng.Intn(n))
				v := int32(rng.Intn(n))
				c := int32(rng.Intn(n))
				x.Connected(u, v)
				x.Biconnected(u, v)
				x.TwoEdgeConnected(u, v)
				x.Separates(c, u, v)
				x.NumCutsOnPath(u, v)
				x.NumBridgesOnPath(u, v)
				x.CutsOnPath(u, v)
				x.BridgesOnPath(u, v)
			}
		}(int64(w))
	}
	wg.Wait()
}
