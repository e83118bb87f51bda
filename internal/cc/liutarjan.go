package cc

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// LTVariant selects a Liu-Tarjan rule combination (Liu & Tarjan, "Simple
// Concurrent Labeling Algorithms for Connected Components"). A variant is
// a hook rule × an update gate × a shortcut rule; see docs/MODEL.md for
// the full taxonomy and where the repo's other kernels sit in it.
type LTVariant int

const (
	// LTPRS: Parent hook, Root-gated, single Shortcut. Hooks write the
	// smaller parent label under the larger endpoint's parent, but only
	// when that parent was a root at gather time (the classic SV-style
	// gate, which costs a grandparent gather per round).
	LTPRS LTVariant = iota
	// LTPUS: Parent hook, Unconditional, single Shortcut. Like LTPRS
	// without the root gate — no grandparent gather, one fewer collective
	// per round, at the price of hooks that can land mid-chain.
	LTPUS
	// LTERS: Extended hook, Root-gated, single Shortcut. LTPRS plus a
	// direct vertex update (the larger-side endpoint itself also receives
	// the smaller parent label), which shortens chains a round earlier.
	LTERS
)

// String returns the registry-facing variant name ("lt-prs", ...).
func (v LTVariant) String() string {
	switch v {
	case LTPRS:
		return "lt-prs"
	case LTPUS:
		return "lt-pus"
	case LTERS:
		return "lt-ers"
	}
	return fmt.Sprintf("lt-invalid(%d)", int(v))
}

// rules decomposes the variant into its hook rule (extended adds the
// direct vertex write) and update gate (rootGated requires the hook
// target to be a root at gather time).
func (v LTVariant) rules() (extended, rootGated bool) {
	switch v {
	case LTPRS:
		return false, true
	case LTPUS:
		return false, false
	case LTERS:
		return true, true
	}
	panic(pgas.Errorf(pgas.ErrMisuse, -1, "cc.liutarjan", "unknown Liu-Tarjan variant %d", int(v)))
}

// ckptName returns the per-variant checkpoint registration name, so two
// variants run in one supervised body never contaminate each other's
// snapshots.
func (v LTVariant) ckptName() string { return "cc." + v.String() + ".D" }

// LiuTarjan runs one concurrent-labeling variant from the Liu-Tarjan
// framework, rewritten with the collectives: per round one parent gather
// (through a reused Plan when the live set is static), an optional
// grandparent gather for the root gate, one SetDMin carrying the hooks,
// and a single pointer-jump shortcut level as a local loop over
// ThreadCover. Every write is a minimum write from the identity fill, so
// labels decrease monotonically and the terminal state is the same
// component-minimum rooted stars as Coalesced/SV/FastSV — bit-identical
// labels. An unknown variant panics with a classified misuse error
// (pgas.Recover returns it as an error).
func LiuTarjan(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, v LTVariant, opts *Options) *Result {
	extended, rootGated := v.rules()
	kernel := "cc/" + v.String()
	d := rt.NewSharedArray("D", g.N)
	d.FillIdentity()
	pgas.Register(rt, v.ckptName(), d)
	red := pgas.NewOrReducer(rt)
	col := opts.col()
	// Edge compaction drops an edge once both endpoints gather equal
	// parents. That is sound only when equal parents imply the endpoints'
	// old trees were merged — true for parent-only hooks, which write
	// nothing when the root gate fails. The extended rule's direct vertex
	// update can migrate a single endpoint into the winner's tree while the
	// root hook is gated off (or loses a same-collective min race), making
	// the edge LOOK merged while it is still the only witness connecting
	// the loser's old tree; dropping it then strands that tree with a stale
	// label. So extended variants never compact.
	compact := opts.compact() && !extended
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
		setIdx := make([]int64, 0, 2*len(live))
		setVal := make([]int64, 0, 2*len(live))
		jumpIdx := make([]int64, span)
		jumpVal := make([]int64, span)
		prev := make([]int64, span)
		var endpointCache collective.IDCache
		th.Barrier()

		for iter := 0; ; iter++ {
			if iter >= maxIterations {
				panic(fmt.Sprintf("cc: LiuTarjan(%s) exceeded %d iterations", v, maxIterations))
			}
			// Snapshot the covered block to detect global change later.
			raw := d.Raw()
			for i := int64(0); i < span; i++ {
				prev[i] = raw[dLo+i]
			}
			th.ChargeSeq(sim.CatWork, span)

			// Parents of both endpoints (planned when static, cached
			// one-shot when compacting — same split as FastSV).
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

			// Root gate: the grandparent of the hook target tells whether
			// it was a root (g == f) at gather time. Ungated variants skip
			// the whole collective.
			if rootGated {
				gpVal = gpVal[:2*k]
				comm.GetD(th, d, parVal[:2*k], gpVal, col, nil)
			}

			// Hooks: for each live edge, the larger parent label's tree
			// receives the smaller parent label — at the parent (P), and
			// additionally at the endpoint itself for extended (E).
			setIdx, setVal = setIdx[:0], setVal[:0]
			for j := 0; j < k; j++ {
				fu, fv := parVal[2*j], parVal[2*j+1]
				if fu == fv {
					continue
				}
				// Orient so fu < fv: "lose" is the endpoint whose parent
				// label is larger and receives the hook.
				lose := endIdx[2*j+1]
				gate := 2*j + 1
				if fu > fv {
					fu, fv = fv, fu
					lose = endIdx[2*j]
					gate = 2 * j
				}
				if !rootGated || gpVal[gate] == fv {
					setIdx = append(setIdx, fv)
					setVal = append(setVal, fu)
				}
				if extended {
					setIdx = append(setIdx, lose)
					setVal = append(setVal, fu)
				}
			}
			th.ChargeOps(sim.CatWork, int64(k))
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

			// Compact dead edges (equal parents mean the components have
			// merged, which is permanent).
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

			// Change detection over the covered block.
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
			probeRound(th, d, kernel, iter)
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

// Variants lists the implemented Liu-Tarjan variants in registry order.
func Variants() []LTVariant { return []LTVariant{LTPRS, LTPUS, LTERS} }
