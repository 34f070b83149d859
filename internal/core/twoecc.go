package core

import (
	"sync/atomic"

	"repro/internal/conn"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/uf"
)

// TwoECC computes the 2-edge-connected components of g from an existing
// biconnectivity decomposition: vertices are in the same 2ECC iff they are
// connected without crossing a bridge. Returned as dense labels per vertex
// (every vertex gets a label; isolated vertices are singleton components).
//
// This is the bridge-side sibling of the block decomposition: blocks split
// at articulation points, 2ECCs split at bridges. Every bridge is a tree
// edge of the spanning forest (Result.Parent), and a tree path between two
// 2-edge-connected vertices crosses no bridge, so the 2ECCs are exactly the
// components of the spanning forest with its bridge tree edges removed.
// They come from one parallel union pass over the n parent links and a
// prefix sum over the union-find roots: O(n) work plus the bridge
// multiplicity checks, and no pass over the adjacency arcs.
func (r *Result) TwoECC(g *graph.Graph) []int32 { return r.TwoECCIn(nil, g) }

// TwoECCIn is TwoECC running on the execution context e (nil = the
// process-global default).
func (r *Result) TwoECCIn(e *parallel.Exec, g *graph.Graph) []int32 {
	n := len(r.Label)
	comp := make([]int32, n)
	e.Iota(comp, 0)
	u := uf.Wrap(comp)
	e.For(n, func(v int) {
		if p := r.Parent[v]; p != -1 && !r.treeBridge(g, int32(v)) {
			u.Union(int32(v), p)
		}
	})
	// Storing each vertex's root is a valid path compression, so the
	// concurrent finds stay correct; the store is atomic because they
	// read the same cells.
	e.For(n, func(v int) { atomic.StoreInt32(&comp[v], u.Find(int32(v))) })
	return (&conn.Result{Comp: comp}).NormalizeIn(e) // dense ids by a prefix sum over the roots
}

// treeBridge reports whether the tree edge (Parent[v], v) is a bridge:
// v's label is the singleton {v} — so its block is exactly
// {Parent[v], v} — and g holds the edge once.
// The multiplicity check scans the shorter of the two neighbor lists, so
// a leaf hanging off a hub costs the leaf's degree, not the hub's.
func (r *Result) treeBridge(g *graph.Graph, v int32) bool {
	p := r.Parent[v]
	if p == -1 || r.LabelSizes()[r.Label[v]] != 1 {
		return false
	}
	a, b := v, p
	if g.Degree(a) > g.Degree(b) {
		a, b = b, a
	}
	mult := 0
	for _, x := range g.Neighbors(a) {
		if x == b {
			mult++
		}
	}
	return mult == 1
}
