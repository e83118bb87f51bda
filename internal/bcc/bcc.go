// Package bcc implements distributed biconnected components with the
// Tarjan-Vishkin algorithm — the capstone composition of the PRAM toolkit
// the paper's §II situates itself in (Dehne et al.'s communication-
// efficient line of work lists connected components, ear decomposition,
// and biconnected components; this is the coordinated-parallel analogue).
//
// The pipeline reuses every major system in this repository:
//
//  1. spanning forest (internal/cc, SetDMin hook election),
//  2. Euler tour tree statistics (internal/euler → internal/listrank),
//  3. per-vertex non-tree extrema via SetDMin priority writes,
//  4. subtree low/high aggregation over preorder intervals,
//  5. the Tarjan-Vishkin auxiliary graph, whose connected components —
//     computed by the coalesced CC kernel — are exactly the biconnected
//     components of the input.
//
// The distributed phases (1, 2, 3, 5) carry the simulated-time accounting;
// interval aggregation (4) and relabeling are host post-processing like the
// kernels' finish steps. Results are verified against sequential
// Hopcroft-Tarjan in the tests.
package bcc

import (
	"math"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/euler"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// Result is a biconnected-components decomposition (same shape as the
// sequential seq.BCC).
type Result struct {
	// EdgeBlock[e] labels edge e's biconnected component (-1 for
	// self-loops); labels are dense in [0, Blocks).
	EdgeBlock []int64
	// Articulation[v] reports whether v lies in two or more blocks.
	Articulation []bool
	// Bridge[e] reports whether edge e is a bridge (a singleton block).
	Bridge []bool
	// Blocks is the number of biconnected components.
	Blocks int64
	// Run aggregates the distributed phases' simulated-time accounting.
	Run *pgas.Result
}

const inf = int64(math.MaxInt64)

// TarjanVishkin computes the decomposition of g. opts configures the
// collectives of every distributed phase (nil for defaults).
//
// Recoverable state (pgas.Registrar): none. Tarjan-Vishkin chains four
// sub-kernels whose outputs feed each other through host-side staging;
// no single superstep boundary captures a resumable whole-pipeline state.
// After an eviction BCC recovers by full deterministic re-execution.
func TarjanVishkin(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, opts *collective.Options) *Result {
	n := g.N
	m := g.M()
	res := &Result{
		EdgeBlock:    make([]int64, m),
		Articulation: make([]bool, n),
		Bridge:       make([]bool, m),
		Run:          &pgas.Result{Threads: rt.NumThreads()},
	}
	for e := range res.EdgeBlock {
		res.EdgeBlock[e] = -1
	}
	if m == 0 {
		return res
	}

	// Phase 1: spanning forest.
	ccOpts := &cc.Options{Col: opts, Compact: true}
	sf := cc.SpanningTree(rt, comm, g, ccOpts)
	accumulate(res.Run, sf.CC.Run)
	isTree := make([]bool, m)
	forest := &graph.Graph{N: n}
	for _, e := range sf.Edges {
		isTree[e] = true
		forest.U = append(forest.U, g.U[e])
		forest.V = append(forest.V, g.V[e])
	}

	// Phase 2: rooted-forest statistics.
	ts := euler.Tour(rt, comm, forest, opts)
	accumulate(res.Run, ts.Run)

	// Global preorder positions: trees laid out consecutively in root-id
	// order, so subtree(v) occupies [num[v], num[v]+size[v]) globally and
	// all intra-tree comparisons are preserved.
	treeOffset := map[int64]int64{}
	var trees []int64
	for v := int64(0); v < n; v++ {
		if ts.Root[v] == v {
			trees = append(trees, v)
		}
	}
	offset := int64(0)
	for _, r := range trees {
		treeOffset[r] = offset
		offset += ts.SubtreeSize[r]
	}
	num := make([]int64, n)
	for v := int64(0); v < n; v++ {
		num[v] = treeOffset[ts.Root[v]] + ts.Preorder[v] - 1
	}

	// Phase 3: per-vertex non-tree extrema via priority writes. Both
	// scatters hit the same endpoint indices on equally distributed
	// arrays, so one collective.Plan serves both SetDMins — the grouping
	// and setup are paid once.
	// minNT[v] = min num over non-tree neighbors; maxNT via negation.
	minNT := rt.NewSharedArray("minNT", n)
	negMaxNT := rt.NewSharedArray("negMaxNT", n)
	minNT.Fill(inf)
	negMaxNT.Fill(inf)
	col := sanitize(opts)
	extremaPlan := comm.NewPlan()
	run3 := rt.Run(func(th *pgas.Thread) {
		lo, hi := th.Span(m)
		var idx, valMin, valMax []int64
		for e := lo; e < hi; e++ {
			if isTree[e] || g.U[e] == g.V[e] {
				continue
			}
			u, v := int64(g.U[e]), int64(g.V[e])
			idx = append(idx, u, v)
			valMin = append(valMin, num[v], num[u])
			valMax = append(valMax, -num[v], -num[u])
		}
		th.ChargeSeq(sim.CatWork, 2*(hi-lo))
		extremaPlan.PlanRequests(th, minNT, idx, col, nil)
		extremaPlan.SetDMin(th, minNT, valMin)
		extremaPlan.SetDMin(th, negMaxNT, valMax)
	})
	accumulate(res.Run, run3)

	// Phase 4 (host): subtree low/high over preorder intervals with
	// sparse tables. byPos holds each vertex's key at its global
	// preorder slot.
	lowKey := make([]int64, n)
	highKey := make([]int64, n)
	for v := int64(0); v < n; v++ {
		lowKey[num[v]] = num[v]
		if mn := minNT.LoadRaw(v); mn < lowKey[num[v]] {
			lowKey[num[v]] = mn
		}
		highKey[num[v]] = num[v]
		if negMaxNT.LoadRaw(v) != inf {
			if mx := -negMaxNT.LoadRaw(v); mx > highKey[num[v]] {
				highKey[num[v]] = mx
			}
		}
	}
	minTable := newSparseTable(lowKey, func(a, b int64) bool { return a < b })
	maxTable := newSparseTable(highKey, func(a, b int64) bool { return a > b })
	low := make([]int64, n)
	high := make([]int64, n)
	for v := int64(0); v < n; v++ {
		lo, hi := num[v], num[v]+ts.SubtreeSize[v]-1
		low[v] = minTable.query(lo, hi)
		high[v] = maxTable.query(lo, hi)
	}

	// Phase 5: the auxiliary graph. Vertex v stands for tree edge
	// (parent(v), v); roots are isolated.
	aux := &graph.Graph{N: n}
	ancestor := func(a, d int64) bool {
		return num[a] <= num[d] && num[d] < num[a]+ts.SubtreeSize[a]
	}
	for e := int64(0); e < m; e++ {
		u, v := int64(g.U[e]), int64(g.V[e])
		if u == v {
			continue
		}
		if isTree[e] {
			// Rule 2: child w of v joins v's own tree edge when w's
			// subtree escapes v's subtree.
			w, p := u, v
			if ts.Parent[u] == v {
				w, p = u, v
			} else {
				w, p = v, u
			}
			if ts.Parent[p] >= 0 && (low[w] < num[p] || high[w] >= num[p]+ts.SubtreeSize[p]) {
				aux.U = append(aux.U, int32(p))
				aux.V = append(aux.V, int32(w))
			}
			continue
		}
		// Rule 1: unrelated endpoints of a non-tree edge join blocks.
		if !ancestor(u, v) && !ancestor(v, u) {
			aux.U = append(aux.U, int32(u))
			aux.V = append(aux.V, int32(v))
		}
	}

	auxCC := cc.Coalesced(rt, comm, aux, ccOpts)
	accumulate(res.Run, auxCC.Run)
	labels := auxCC.Labels

	// Edge block assignment and dense relabeling.
	blockOf := map[int64]int64{}
	blockSize := map[int64]int64{}
	assign := func(e, reprVertex int64) {
		raw := labels[reprVertex]
		b, ok := blockOf[raw]
		if !ok {
			b = res.Blocks
			res.Blocks++
			blockOf[raw] = b
		}
		res.EdgeBlock[e] = b
		blockSize[b]++
	}
	for e := int64(0); e < m; e++ {
		u, v := int64(g.U[e]), int64(g.V[e])
		if u == v {
			continue
		}
		if isTree[e] {
			w := u
			if ts.Parent[v] == u {
				w = v
			}
			assign(e, w)
			continue
		}
		// Non-tree: the endpoint that is not an ancestor of the other
		// (the deeper global position) carries the block.
		z := u
		if num[v] > num[u] {
			z = v
		}
		assign(e, z)
	}

	// Bridges and articulation points.
	vertexBlocks := make(map[int64]map[int64]struct{})
	for e := int64(0); e < m; e++ {
		b := res.EdgeBlock[e]
		if b < 0 {
			continue
		}
		res.Bridge[e] = blockSize[b] == 1
		for _, x := range [2]int64{int64(g.U[e]), int64(g.V[e])} {
			set, ok := vertexBlocks[x]
			if !ok {
				set = map[int64]struct{}{}
				vertexBlocks[x] = set
			}
			set[b] = struct{}{}
		}
	}
	for v, set := range vertexBlocks {
		res.Articulation[v] = len(set) >= 2
	}
	return res
}

// sanitize copies opts and disables the CC-specific offload (the extrema
// arrays' slot 0 is mutable).
func sanitize(opts *collective.Options) *collective.Options {
	return collective.Sanitize(opts, false)
}

// accumulate folds one phase's accounting into the total.
func accumulate(total, part *pgas.Result) {
	total.SimNS += part.SimNS
	total.Wall += part.Wall
	total.SumByCategory.Add(&part.SumByCategory)
	total.Messages += part.Messages
	total.Bytes += part.Bytes
	total.RemoteOps += part.RemoteOps
	total.CacheMisses += part.CacheMisses
	total.Faults += part.Faults
	total.Retries += part.Retries
	total.Checkpoints += part.Checkpoints
	total.CheckpointBytes += part.CheckpointBytes
}

// sparseTable answers static range extremum queries in O(1) after
// O(n log n) construction.
type sparseTable struct {
	rows   [][]int64
	better func(a, b int64) bool
}

func newSparseTable(vals []int64, better func(a, b int64) bool) *sparseTable {
	n := len(vals)
	t := &sparseTable{better: better}
	row := append([]int64(nil), vals...)
	t.rows = append(t.rows, row)
	for width := 1; 2*width <= n; width *= 2 {
		prev := t.rows[len(t.rows)-1]
		next := make([]int64, n-2*width+1)
		for i := range next {
			a, b := prev[i], prev[i+width]
			if better(b, a) {
				a = b
			}
			next[i] = a
		}
		t.rows = append(t.rows, next)
	}
	return t
}

// query returns the extremum over the inclusive range [lo, hi].
func (t *sparseTable) query(lo, hi int64) int64 {
	if lo > hi {
		panic("bcc: empty range query")
	}
	length := hi - lo + 1
	level := 0
	for (1 << (level + 1)) <= length {
		level++
	}
	a := t.rows[level][lo]
	b := t.rows[level][hi-(1<<level)+1]
	if t.better(b, a) {
		return b
	}
	return a
}
