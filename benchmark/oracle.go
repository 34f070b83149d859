package main

import (
	fastbcc "repro"
)

// oracleIndex builds the reference index for g from the sequential
// Hopcroft–Tarjan decomposition, independent of the FAST-BCC engine,
// the overlay and the block-merge paths the served snapshots come from.
func oracleIndex(g *fastbcc.Graph) *fastbcc.Index {
	_, idx := fastbcc.BuildIndex(g, &fastbcc.Options{Algorithm: "seq"})
	return idx
}

// answer is q's answer from the scalar Index API.
func answer(idx *fastbcc.Index, q fastbcc.Query) fastbcc.Answer {
	b2a := func(ok bool) fastbcc.Answer {
		if ok {
			return 1
		}
		return 0
	}
	switch q.Op {
	case fastbcc.OpConnected:
		return b2a(idx.Connected(q.U, q.V))
	case fastbcc.OpBiconnected:
		return b2a(idx.Biconnected(q.U, q.V))
	case fastbcc.OpTwoEdgeConnected:
		return b2a(idx.TwoEdgeConnected(q.U, q.V))
	case fastbcc.OpSeparates:
		return b2a(idx.Separates(q.X, q.U, q.V))
	case fastbcc.OpCutsOnPath:
		return fastbcc.Answer(idx.NumCutsOnPath(q.U, q.V))
	case fastbcc.OpBridgesOnPath:
		return fastbcc.Answer(idx.NumBridgesOnPath(q.U, q.V))
	}
	return -1
}
