// Package triangle implements distributed triangle counting — the graph
// analytic behind clustering coefficients, community detection, and the
// social-network workloads the hybrid generator models. The kernel uses
// the standard degree-ordered wedge scheme: edges orient from lower to
// higher (degree, id) rank, each thread enumerates the wedges of its owned
// vertices' out-neighborhoods, and the wedge-closing queries route to the
// wedge tip's owner through one Exchange per batch — the same coalesced
// discipline as every other kernel here.
//
// Counts are verified against a sequential exact counter in the tests, and
// against the combinatorics of known shapes (K_n has C(n,3) triangles).
package triangle

import (
	"fmt"
	"sort"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// Result is the outcome of one triangle-counting run.
type Result struct {
	// Triangles is the number of distinct triangles in the graph.
	Triangles int64
	// Wedges is the number of wedge-closing queries issued.
	Wedges int64
	// Run carries the simulated-time accounting.
	Run *pgas.Result
}

// batchWedges bounds one exchange batch so buffers stay modest.
const batchWedges = 1 << 16

// orient builds the degree-ordered out-adjacency over the given degree
// vector: ranks (degree, id) ascending; every edge points from lower to
// higher rank. Out-lists are sorted for binary-search closing checks.
// Self-loops and duplicate edges are dropped (neither can close a
// distinct triangle).
func orient(g *graph.Graph, deg []int64) (offs []int64, adj []int32) {
	rank := func(v int32) uint64 {
		return uint64(deg[v])<<32 | uint64(uint32(v))
	}
	offs = make([]int64, g.N+1)
	type halfEdge struct{ from, to int32 }
	var halves []halfEdge
	seen := map[uint64]struct{}{}
	for i := range g.U {
		u, v := g.U[i], g.V[i]
		if u == v {
			continue
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		key := uint64(a)<<32 | uint64(b)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		if rank(u) < rank(v) {
			halves = append(halves, halfEdge{u, v})
		} else {
			halves = append(halves, halfEdge{v, u})
		}
	}
	for _, h := range halves {
		offs[h.from+1]++
	}
	for i := int64(0); i < g.N; i++ {
		offs[i+1] += offs[i]
	}
	adj = make([]int32, len(halves))
	cursor := make([]int64, g.N)
	copy(cursor, offs[:g.N])
	for _, h := range halves {
		adj[cursor[h.from]] = h.to
		cursor[h.from]++
	}
	for v := int64(0); v < g.N; v++ {
		row := adj[offs[v]:offs[v+1]]
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
	}
	return offs, adj
}

// hasOut reports whether the oriented edge u -> w exists.
func hasOut(offs []int64, adj []int32, u, w int64) bool {
	row := adj[offs[u]:offs[u+1]]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if int64(row[mid]) < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && int64(row[lo]) == w
}

// Degrees computes every vertex's degree distributedly with one additive
// scatter: each thread contributes +1 at both endpoints of its owned edge
// span through SetDAdd (the engine's additive concurrent write — all
// competing writers accumulate, order-independent). Self-loops count
// twice and duplicate edges all contribute, matching graph.Degrees.
func Degrees(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, colOpts *collective.Options) ([]int64, *pgas.Result) {
	col := sanitize(colOpts)
	degArr := rt.NewSharedArray("Deg", maxInt64(g.N, 1))
	m := int64(len(g.U))
	run := rt.Run(func(th *pgas.Thread) {
		lo, hi := th.Span(m)
		idx := make([]int64, 0, 2*(hi-lo))
		ones := make([]int64, 0, 2*(hi-lo))
		for e := lo; e < hi; e++ {
			idx = append(idx, int64(g.U[e]), int64(g.V[e]))
			ones = append(ones, 1, 1)
		}
		th.ChargeSeq(sim.CatWork, 2*(hi-lo))
		comm.SetDAdd(th, degArr, idx, ones, col, nil)
	})
	return append([]int64(nil), degArr.Raw()...), run
}

// Count runs the distributed kernel: a SetDAdd degree phase feeds the
// degree-ordered orientation, then wedge-closing queries route through
// ExchangePairs.
//
// Recoverable state (pgas.Registrar): none. Triangle counting carries
// per-thread partial counts in host scalars folded at the end; there is
// no shared-array state worth snapshotting, and a restored count without
// its edge cursor would double-count. After an eviction the count
// recovers by full deterministic re-execution (it is a single pass, so
// re-execution is the checkpoint-optimal policy anyway).
func Count(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, colOpts *collective.Options) *Result {
	if g.N >= 1<<31 {
		panic("triangle: vertex ids overflow wedge packing")
	}
	col := sanitize(colOpts)
	deg, degRun := Degrees(rt, comm, g, colOpts)
	offs, adj := orient(g, deg)
	// A shared array only to define the owner distribution of wedge
	// queries (keyed by the wedge tip vertex).
	dist := rt.NewSharedArray("Owner", maxInt64(g.N, 1))
	sum := pgas.NewSumReducer(rt)
	or := pgas.NewOrReducer(rt)
	s := rt.NumThreads()
	counts := make([]int64, s)
	wedges := make([]int64, s)

	run := rt.Run(func(th *pgas.Thread) {
		lo, hi := dist.ThreadCover(th.ID)
		if g.N == 0 {
			lo, hi = 0, 0
		}
		th.ChargeSeq(sim.CatWork, offs[hi]-offs[lo])

		var items, vals []int64
		var local int64
		var sent int64
		flush := func() {
			recvI, recvV := comm.ExchangePairs(th, dist, items, vals, col, nil)
			for j, u := range recvI {
				// Out-lists sort by id while orientation follows
				// (degree, id) rank, so the closing edge may point
				// either way; at most one direction exists.
				w := recvV[j]
				if hasOut(offs, adj, u, w) || hasOut(offs, adj, w, u) {
					local++
				}
			}
			// Binary searches over the owner's out-lists.
			th.ChargeIrregular(sim.CatCopy, int64(len(recvI))*2, offs[g.N])
			items, vals = items[:0], vals[:0]
		}

		// Enumerate wedges of owned vertices: for v with out-list
		// (sorted ascending), every pair (u, w), u < w, asks u's owner
		// whether u -> w exists.
		v := lo
		for {
			// Generate until the batch fills or vertices run out.
			for v < hi && len(items) < batchWedges {
				row := adj[offs[v]:offs[v+1]]
				for a := 0; a < len(row); a++ {
					for b := a + 1; b < len(row); b++ {
						items = append(items, int64(row[a]))
						vals = append(vals, int64(row[b]))
						sent++
					}
				}
				th.ChargeSeq(sim.CatWork, int64(len(row)*(len(row)+1)/2))
				v++
			}
			flush()
			// Lock-step batching: continue while anyone has work left.
			if !or.Reduce(th, v < hi || len(items) > 0) {
				break
			}
		}
		counts[th.ID] = local
		wedges[th.ID] = sent
		// Final tally.
		sum.Reduce(th, local)
	})

	res := &Result{Run: degRun}
	res.Run.SimNS += run.SimNS
	res.Run.Wall += run.Wall
	res.Run.SumByCategory.Add(&run.SumByCategory)
	res.Run.Messages += run.Messages
	res.Run.Bytes += run.Bytes
	res.Run.RemoteOps += run.RemoteOps
	res.Run.CacheMisses += run.CacheMisses
	for i := range counts {
		res.Triangles += counts[i]
		res.Wedges += wedges[i]
	}
	return res
}

// SeqCount is the sequential exact counter using the same orientation
// (host-computed degrees).
func SeqCount(g *graph.Graph) int64 {
	offs, adj := orient(g, g.Degrees())
	var total int64
	for v := int64(0); v < g.N; v++ {
		row := adj[offs[v]:offs[v+1]]
		for a := 0; a < len(row); a++ {
			for b := a + 1; b < len(row); b++ {
				u, w := int64(row[a]), int64(row[b])
				if hasOut(offs, adj, u, w) || hasOut(offs, adj, w, u) {
					total++
				}
			}
		}
	}
	return total
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// sanitize copies opts and disables offload (no pinned values here).
func sanitize(opts *collective.Options) *collective.Options {
	return collective.Sanitize(opts, false)
}

// String summarizes the result.
func (r *Result) String() string {
	return fmt.Sprintf("triangles{count=%d wedges=%d simMS=%.1f}", r.Triangles, r.Wedges, r.Run.SimMS())
}
