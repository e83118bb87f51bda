package cc

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// roundProbe, when non-nil, receives a snapshot of the label array after
// every superstep round of the fast-converging kernels (FastSV and the
// Liu-Tarjan variants). The convergence property tests hook it to assert
// per-round monotonicity and fixpoint stability; production runs leave it
// nil. Thread 0 invokes it right after the round's change reduction — a
// barrier — and no thread writes D again before the next round's SetDMin
// serve phase (which waits for all threads, thread 0 included), so the
// read is race-free.
var roundProbe func(kernel string, round int, labels []int64)

func probeRound(th *pgas.Thread, d *pgas.SharedArray, kernel string, round int) {
	if roundProbe != nil && th.ID == 0 {
		roundProbe(kernel, round, append([]int64(nil), d.Raw()...))
	}
}

// CkptFastSVD names the D array FastSV registers for checkpointing.
const CkptFastSVD = "cc.fastsv.D"

// FastSV runs the FastSV algorithm (Zhang, Azad, Hu): Shiloach-Vishkin
// with stochastic and aggressive hooking on grandparent values plus a
// shortcut every round, converging in noticeably fewer supersteps than
// classic SV because hooks skip a tree level and every vertex — not just
// roots — can be hooked. Rewritten with the collectives, one round is
//
//	parents      f(u), f(v)      planned GetD over the static endpoints
//	grandparents g(u) = f(f(u))  one GetD on the parent values
//	stochastic   D[f(u)] <- min g(v)   one SetDMin (both directions,
//	aggressive   D[u]    <- min g(v)    grandparent-pruned)
//	shortcut     D[i]    <- D[D[i]]    one GetD + local stores
//
// All writes are minimum writes from the identity fill, so labels only
// decrease and the terminal state is the same component-minimum rooted
// stars every monotone kernel converges to: labels are bit-identical to
// Coalesced/SV. The shortcut and change detection are local loops over
// ThreadCover, so all partition schemes work unchanged.
func FastSV(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, opts *Options) *Result {
	d := rt.NewSharedArray("D", g.N)
	d.FillIdentity()
	pgas.Register(rt, CkptFastSVD, d)
	red := pgas.NewOrReducer(rt)
	col := opts.col()
	compact := opts.compact()
	endPlan := comm.NewPlan()
	m := g.M()
	iterations := 0

	run := rt.Run(func(th *pgas.Thread) {
		lo, hi := th.Span(m)
		live := make([]int64, 0, hi-lo)
		for e := lo; e < hi; e++ {
			live = append(live, e)
		}
		dLo, dHi := d.ThreadCover(th.ID)
		span := dHi - dLo
		th.ChargeSeq(sim.CatWork, span)

		endIdx := make([]int64, 0, 2*len(live))
		parVal := make([]int64, 0, 2*len(live))
		gpVal := make([]int64, 0, 2*len(live))
		setIdx := make([]int64, 0, 4*len(live))
		setVal := make([]int64, 0, 4*len(live))
		jumpIdx := make([]int64, span)
		jumpVal := make([]int64, span)
		prev := make([]int64, span)
		var endpointCache collective.IDCache
		th.Barrier()

		for iter := 0; ; iter++ {
			if iter >= maxIterations {
				panic(fmt.Sprintf("cc: FastSV exceeded %d iterations", maxIterations))
			}
			// Snapshot the covered block to detect global change later.
			raw := d.Raw()
			for i := int64(0); i < span; i++ {
				prev[i] = raw[dLo+i]
			}
			th.ChargeSeq(sim.CatWork, span)

			// Parents of both endpoints. The live set is static without
			// compaction, so the gather runs through one reused Plan;
			// compaction shrinks the request vector, so that variant stays
			// on the one-shot path with a warm IDCache.
			k := len(live)
			if compact {
				endIdx = endIdx[:0]
				for _, e := range live {
					endIdx = append(endIdx, int64(g.U[e]), int64(g.V[e]))
				}
				parVal = parVal[:2*k]
				th.ChargeSeq(sim.CatWork, 2*int64(k))
				comm.GetD(th, d, endIdx, parVal, col, &endpointCache)
			} else {
				if iter == 0 {
					endIdx = endIdx[:0]
					for _, e := range live {
						endIdx = append(endIdx, int64(g.U[e]), int64(g.V[e]))
					}
					parVal = parVal[:2*k]
					th.ChargeSeq(sim.CatWork, 2*int64(k))
					endPlan.PlanRequests(th, d, endIdx, col, nil)
				}
				endPlan.GetD(th, d, parVal)
			}

			// Grandparents: labels of the parent values.
			gpVal = gpVal[:2*k]
			comm.GetD(th, d, parVal[:2*k], gpVal, col, nil)

			// Hooks, both directions per edge. Stochastic hooking writes
			// the neighbor's grandparent under the parent; aggressive
			// hooking writes it under the vertex itself. The gathered
			// current values prune requests that cannot win (labels only
			// decrease, so a value >= the last-seen target value never
			// lands).
			setIdx, setVal = setIdx[:0], setVal[:0]
			for j := 0; j < k; j++ {
				fu, fv := parVal[2*j], parVal[2*j+1]
				gu, gv := gpVal[2*j], gpVal[2*j+1]
				if gv < gu { // stochastic: D[f(u)] <- g(v)
					setIdx = append(setIdx, fu)
					setVal = append(setVal, gv)
				}
				if gu < gv { // stochastic: D[f(v)] <- g(u)
					setIdx = append(setIdx, fv)
					setVal = append(setVal, gu)
				}
				if gv < fu { // aggressive: D[u] <- g(v)
					setIdx = append(setIdx, endIdx[2*j])
					setVal = append(setVal, gv)
				}
				if gu < fv { // aggressive: D[v] <- g(u)
					setIdx = append(setIdx, endIdx[2*j+1])
					setVal = append(setVal, gu)
				}
			}
			th.ChargeOps(sim.CatWork, 2*int64(k))
			comm.SetDMin(th, d, setIdx, setVal, col, nil)

			// Shortcut: a single pointer-jump level over the covered block.
			raw = d.Raw()
			for i := int64(0); i < span; i++ {
				jumpIdx[i] = raw[dLo+i]
			}
			th.ChargeSeq(sim.CatCopy, span)
			comm.GetD(th, d, jumpIdx[:span], jumpVal[:span], col, nil)
			for i := int64(0); i < span; i++ {
				if jumpVal[i] != jumpIdx[i] {
					d.StoreRaw(dLo+i, jumpVal[i])
				}
			}
			th.ChargeSeq(sim.CatCopy, 2*span)

			// Compact dead edges (equal parents mean the endpoints'
			// components have merged, which is permanent).
			if compact {
				w := 0
				for j := 0; j < k; j++ {
					if parVal[2*j] != parVal[2*j+1] {
						live[w] = live[j]
						w++
					}
				}
				if w != k {
					live = live[:w]
					endpointCache.Invalidate()
				}
				th.ChargeSeq(sim.CatWork, int64(k))
			}

			// Change detection: did any covered label move this round?
			changed := false
			raw = d.Raw()
			for i := int64(0); i < span; i++ {
				if raw[dLo+i] != prev[i] {
					changed = true
					break
				}
			}
			th.ChargeSeq(sim.CatWork, span)
			done := !red.Reduce(th, changed)
			probeRound(th, d, "cc/fastsv", iter)
			if done {
				if th.ID == 0 {
					iterations = iter + 1
				}
				return
			}
		}
	})
	return finish(d, iterations, run)
}
