// Package cc implements the paper's connected-components kernels:
//
//   - Naive: the literal PGAS translation of the shared-memory CC code
//     (Figure 1) — per-edge one-sided reads and writes. On a single node it
//     *is* the paper's CC-SMP baseline; on a cluster it is the CC-UPC code
//     whose Figure 2 performance motivates everything else.
//   - Coalesced: CC rewritten with the GetD/SetD/SetDMin collectives and
//     synchronous pointer jumping (§IV.A), with the compact optimization
//     and all collective options.
//   - SV: the classic Shiloach-Vishkin algorithm rewritten with
//     collectives (Figure 3's third series).
//
// All kernels maintain the invariant that labels only decrease from the
// identity labeling (grafts and shortcuts are minimum writes), which makes
// the racy shared-memory executions convergent and the results exact; every
// kernel's output is verified against sequential union-find in the tests.
package cc

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/sim"
)

// maxIterations bounds kernel iterations; the kernels converge in
// O(log n) rounds, so hitting the bound indicates a bug and panics.
const maxIterations = 512

// Result is the outcome of one CC run.
type Result struct {
	// Labels is the canonical component labeling (smallest vertex id per
	// component).
	Labels []int64
	// Components is the number of connected components.
	Components int64
	// Iterations is the number of outer graft/shortcut rounds.
	Iterations int
	// Run carries the simulated-time accounting.
	Run *pgas.Result
}

// Options configures the collective-based kernels. Nil Options (or a nil
// Col field) select Defaults().
type Options struct {
	// Col configures the collectives (virtual threads, circular,
	// localcpy, id, offload). Nil means collective.Defaults().
	Col *collective.Options
	// Compact filters edges whose endpoints already share a component
	// from the live list each iteration (§V).
	Compact bool
}

// Defaults returns the configuration selected when a caller passes nil
// Options: base collectives, no compaction.
func Defaults() *Options { return &Options{Col: collective.Defaults()} }

// Validate reports whether o is a usable configuration; nil is valid (it
// selects Defaults).
func (o *Options) Validate() error {
	if o == nil {
		return nil
	}
	return o.Col.Validate()
}

func (o *Options) col() *collective.Options {
	if o == nil {
		return collective.Defaults()
	}
	return collective.Sanitize(o.Col, true)
}

func (o *Options) compact() bool { return o != nil && o.Compact }

// finish converts a converged D array into a Result. The collective
// kernels terminate with D fully collapsed to rooted stars; the naive
// kernel's asynchronous short-cutting can leave residual parent chains
// (a race the paper's arbitrary-CRCW model permits), so labels are
// resolved by walking D to its roots — every kernel maintains D[i] <= i,
// so walks strictly decrease and terminate.
func finish(d *pgas.SharedArray, iters int, run *pgas.Result) *Result {
	parent := append([]int64(nil), d.Raw()...)
	for i := range parent {
		r := int64(i)
		for parent[r] != r {
			r = parent[r]
		}
		// Path-compress the walked chain for linear total work.
		j := int64(i)
		for parent[j] != r {
			j, parent[j] = parent[j], r
		}
	}
	labels := seq.Canonical(parent)
	return &Result{
		Labels:     labels,
		Components: seq.CountComponents(labels),
		Iterations: iters,
		Run:        run,
	}
}

// Recoverable state (pgas.Registrar): the label kernels register their D
// array under the Ckpt*D names declared beside each entry point (the
// Liu-Tarjan variants derive one per variant; see LTVariant.ckptName), so
// a checkpointing supervisor resumes them from the last committed
// superstep boundary after an eviction. They qualify because D is
// monotone (labels only decrease from the identity fill) and every
// iteration rescans the full edge list, so any quiesced intermediate
// labeling converges to the same answer — including a restored snapshot
// re-blocked over fewer threads. The per-entry-point names keep snapshots
// from different kernels in one supervised body from contaminating each
// other. MergeCGM, SpanningTree, and Bipartite register nothing: CGM merge
// rounds accumulate edges in host-side slices and the tree/bipartite
// kernels carry parent/side state whose consistency spans barriers, none
// of which survives a cut — they recover by deterministic re-execution
// instead.

// CkptNaiveD names the D array Naive registers for checkpointing.
const CkptNaiveD = "cc.naive.D"

// Naive runs the literal translation of the shared-memory CC code: every
// irregular access is an individual one-sided operation. With a
// single-node runtime this is the paper's CC-SMP baseline; with a
// multi-node runtime it is CC-UPC of Figure 2.
func Naive(rt *pgas.Runtime, g *graph.Graph) *Result {
	d := rt.NewSharedArray("D", g.N)
	d.FillIdentity()
	pgas.Register(rt, CkptNaiveD, d)
	red := pgas.NewOrReducer(rt)
	m := g.M()
	iterations := 0

	run := rt.Run(func(th *pgas.Thread) {
		lo, hi := th.Span(m)
		// Initialize own block of D (charged; data already set).
		dLo, dHi := d.ThreadCover(th.ID)
		th.ChargeSeq(sim.CatWork, dHi-dLo)
		th.Barrier()

		for iter := 0; ; iter++ {
			if iter >= maxIterations {
				panic(fmt.Sprintf("cc: Naive exceeded %d iterations", maxIterations))
			}
			// Graft phase: inspect every local edge and hook the
			// larger root below the smaller label.
			grafted := false
			th.ChargeSeq(sim.CatWork, 2*(hi-lo)) // stream the edge list
			for e := lo; e < hi; e++ {
				u, v := int64(g.U[e]), int64(g.V[e])
				du := th.Get(d, u, sim.CatComm)
				dv := th.Get(d, v, sim.CatComm)
				if du == dv {
					continue
				}
				if du > dv {
					du, dv = dv, du
				}
				// Graft under the constraint D[u] < D[v], writing
				// only when dv is (still) a root.
				ddv := th.Get(d, dv, sim.CatComm)
				if ddv == dv && th.PutMin(d, dv, du, sim.CatComm) {
					grafted = true
				}
			}
			th.Barrier()

			// Asynchronous short-cutting: collapse every owned vertex
			// all the way to its root (no barriers inside).
			for i := dLo; i < dHi; i++ {
				for {
					di := th.Get(d, i, sim.CatComm)
					ddi := th.Get(d, di, sim.CatComm)
					if di == ddi {
						break
					}
					th.PutMin(d, i, ddi, sim.CatComm)
				}
			}

			if !red.Reduce(th, grafted) {
				if th.ID == 0 {
					iterations = iter + 1
				}
				return
			}
		}
	})
	return finish(d, iterations, run)
}

// CkptCoalescedD names the D array Coalesced registers for checkpointing.
const CkptCoalescedD = "cc.coalesced.D"

// Coalesced runs CC rewritten with the collectives: grafting fetches both
// endpoint labels with one GetD and hooks with one SetDMin; short-cutting
// becomes synchronous pointer jumping in lock step ("we insert artificial
// synchronizations into pointer-jumping", §IV.A) so it coalesces too.
//
// Without edge compaction the graft gather requests the same 2m endpoint
// indices every iteration, so the kernel builds one collective.Plan up
// front and re-executes it per iteration: the grouping sort and matrix
// publish are paid once for the whole run instead of once per iteration,
// with bit-identical labels. Compaction shrinks the request vector, so
// that variant stays on the one-shot path (with its warm IDCache).
func Coalesced(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, opts *Options) *Result {
	d := rt.NewSharedArray("D", g.N)
	d.FillIdentity()
	pgas.Register(rt, CkptCoalescedD, d)
	red := pgas.NewOrReducer(rt)
	col := opts.col()
	compact := opts.compact()
	graftPlan := comm.NewPlan()
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

		gatherIdx := make([]int64, 0, 2*len(live))
		gatherVal := make([]int64, 0, 2*len(live))
		setIdx := make([]int64, 0, len(live))
		setVal := make([]int64, 0, len(live))
		jumpIdx := make([]int64, span)
		jumpVal := make([]int64, span)
		var graftCache collective.IDCache
		th.Barrier()

		for iter := 0; ; iter++ {
			if iter >= maxIterations {
				panic(fmt.Sprintf("cc: Coalesced exceeded %d iterations", maxIterations))
			}
			// Fetch both endpoint labels of every live edge.
			k := len(live)
			if compact {
				gatherIdx = gatherIdx[:0]
				for _, e := range live {
					gatherIdx = append(gatherIdx, int64(g.U[e]), int64(g.V[e]))
				}
				gatherVal = gatherVal[:2*k]
				th.ChargeSeq(sim.CatWork, 2*int64(k))
				comm.GetD(th, d, gatherIdx, gatherVal, col, &graftCache)
			} else {
				// The live set never shrinks: the endpoint request vector
				// is identical every iteration, so build the plan once and
				// reuse it for every graft gather.
				if iter == 0 {
					gatherIdx = gatherIdx[:0]
					for _, e := range live {
						gatherIdx = append(gatherIdx, int64(g.U[e]), int64(g.V[e]))
					}
					gatherVal = gatherVal[:2*k]
					th.ChargeSeq(sim.CatWork, 2*int64(k))
					graftPlan.PlanRequests(th, d, gatherIdx, col, nil)
				}
				graftPlan.GetD(th, d, gatherVal)
			}

			// Build the hook list: D[max(du,dv)] <- min(du,dv).
			grafted := false
			setIdx, setVal = setIdx[:0], setVal[:0]
			for j := 0; j < k; j++ {
				du, dv := gatherVal[2*j], gatherVal[2*j+1]
				if du == dv {
					continue
				}
				if du > dv {
					du, dv = dv, du
				}
				setIdx = append(setIdx, dv)
				setVal = append(setVal, du)
				grafted = true
			}
			th.ChargeOps(sim.CatWork, int64(k))
			comm.SetDMin(th, d, setIdx, setVal, col, nil)

			// Synchronous pointer jumping until all trees are rooted
			// stars.
			shortcut(th, comm, d, col, red, jumpIdx, jumpVal, dLo)

			// Compact: an edge whose endpoints shared a label this
			// iteration is dead forever (labels merge monotonically).
			if compact {
				w := 0
				for j := 0; j < k; j++ {
					if gatherVal[2*j] != gatherVal[2*j+1] {
						live[w] = live[j]
						w++
					}
				}
				if w != k {
					live = live[:w]
					graftCache.Invalidate()
				}
				th.ChargeSeq(sim.CatWork, int64(k))
			}

			if !red.Reduce(th, grafted) {
				if th.ID == 0 {
					iterations = iter + 1
				}
				return
			}
		}
	})
	return finish(d, iterations, run)
}

// shortcut applies synchronous pointer jumping (D[i] <- D[D[i]] in lock
// step) until all trees are rooted stars, using one GetD per level. Only
// vertices not yet pointing at a root stay active: within a shortcut
// phase no grafting happens, so a root can never move and a vertex whose
// label did not change is finished. jumpIdx/jumpVal are span-sized
// scratch buffers; dLo is the thread's block base.
func shortcut(th *pgas.Thread, comm *collective.Comm, d *pgas.SharedArray,
	col *collective.Options, red *pgas.OrReducer, jumpIdx, jumpVal []int64, dLo int64) {
	span := int64(len(jumpIdx))
	raw := d.Raw()
	active := make([]int64, span)
	for i := int64(0); i < span; i++ {
		active[i] = dLo + i
	}
	th.ChargeSeq(sim.CatWork, span)
	for level := 0; ; level++ {
		if level >= maxIterations {
			panic(fmt.Sprintf("cc: shortcut exceeded %d levels", maxIterations))
		}
		// Read the active vertices' labels (private pointer arithmetic
		// when localcpy is on, shared-pointer overhead otherwise).
		k := int64(len(active))
		for j, v := range active {
			jumpIdx[j] = raw[v]
		}
		th.ChargeSeq(sim.CatCopy, k)
		if !col.LocalCpy {
			th.ChargeSharedPtr(sim.CatCopy, k)
		}
		// One jump level: fetch the label of every label.
		comm.GetD(th, d, jumpIdx[:k], jumpVal[:k], col, nil)
		w := 0
		for j, v := range active {
			if jumpVal[j] != jumpIdx[j] {
				d.StoreRaw(v, jumpVal[j])
				active[w] = v
				w++
			}
		}
		active = active[:w]
		th.ChargeSeq(sim.CatCopy, 2*k)
		if !col.LocalCpy {
			th.ChargeSharedPtr(sim.CatCopy, k)
		}
		if !red.Reduce(th, w > 0) {
			return
		}
	}
}

// CkptSVD names the D array SV registers for checkpointing.
const CkptSVD = "cc.sv.D"

// SV runs the Shiloach-Vishkin algorithm rewritten with collectives: per
// iteration one grandparent fetch, conditional min-hooks, and a single
// pointer-jump level (rather than CC's full collapse). More collective
// calls per round make it slower than Coalesced, reproducing Figure 3's
// ordering. The hook rule is the monotone minimum variant: lower labels
// always win, which preserves SV's O(log n)-style convergence while being
// exact under concurrent (priority CRCW) writes.
func SV(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, opts *Options) *Result {
	d := rt.NewSharedArray("D", g.N)
	d.FillIdentity()
	pgas.Register(rt, CkptSVD, d)
	red := pgas.NewOrReducer(rt)
	col := opts.col()
	compact := opts.compact()
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
		endVal := make([]int64, 0, 2*len(live))
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
				panic(fmt.Sprintf("cc: SV exceeded %d iterations", maxIterations))
			}
			// Snapshot the owned block to detect global change later.
			raw := d.Raw()
			for i := int64(0); i < span; i++ {
				prev[i] = raw[dLo+i]
			}
			th.ChargeSeq(sim.CatWork, span)

			// Round 1: parents of both endpoints.
			k := len(live)
			endIdx = endIdx[:0]
			for _, e := range live {
				endIdx = append(endIdx, int64(g.U[e]), int64(g.V[e]))
			}
			endVal = endVal[:2*k]
			th.ChargeSeq(sim.CatWork, 2*int64(k))
			comm.GetD(th, d, endIdx, endVal, col, &endpointCache)

			// Round 2: grandparents (labels of the labels).
			gpVal = gpVal[:2*k]
			comm.GetD(th, d, endVal, gpVal, col, nil)

			// Hooks: D[D[v]] <- min(D[u]) and symmetrically. The
			// grandparent value prunes requests that cannot win.
			setIdx, setVal = setIdx[:0], setVal[:0]
			for j := 0; j < k; j++ {
				du, dv := endVal[2*j], endVal[2*j+1]
				ddu, ddv := gpVal[2*j], gpVal[2*j+1]
				if du < ddv {
					setIdx = append(setIdx, dv)
					setVal = append(setVal, du)
				}
				if dv < ddu {
					setIdx = append(setIdx, du)
					setVal = append(setVal, dv)
				}
			}
			th.ChargeOps(sim.CatWork, 2*int64(k))
			comm.SetDMin(th, d, setIdx, setVal, col, nil)

			// Single pointer-jump level.
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

			// Compact dead edges (both grandparents equal means the
			// endpoints' components have merged).
			if compact {
				w := 0
				for j := 0; j < k; j++ {
					if endVal[2*j] != endVal[2*j+1] {
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

			// Change detection: did any owned label move this round?
			changed := false
			raw = d.Raw()
			for i := int64(0); i < span; i++ {
				if raw[dLo+i] != prev[i] {
					changed = true
					break
				}
			}
			th.ChargeSeq(sim.CatWork, span)
			if !red.Reduce(th, changed) {
				if th.ID == 0 {
					iterations = iter + 1
				}
				return
			}
		}
	})
	return finish(d, iterations, run)
}
