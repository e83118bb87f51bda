// Package bfs implements distributed level-synchronous breadth-first
// search — the algorithm the paper's introduction positions against its
// own (§I): Yoo et al.'s BlueGene/L BFS was the only prior demonstration
// of distributed graph performance, but BFS has an inherent Ω(d) bound on
// parallel time (d the input diameter), whereas the paper's CC/MST kernels
// run in poly-log rounds regardless of topology. The ExpBFS experiment
// makes that contrast measurable.
//
// Two variants mirror the repository's pattern: Naive issues one one-sided
// access per inspected edge and rescans its distance block every level;
// Coalesced pushes each level's frontier candidates to their owners with
// one Exchange (personalized all-to-all) per level. The frontier changes
// every level, so BFS stays on the one-shot collectives — it gains nothing
// from the collective.Plan reuse the fixed-request kernels (cc, mst,
// listrank) amortize their setup with.
package bfs

import (
	"fmt"
	"math"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// Unreached marks vertices not reachable from the source.
const Unreached = int64(math.MaxInt64)

// maxLevels bounds BFS levels (at most n).
const maxLevels = 1 << 26

// Result is the outcome of one BFS run.
type Result struct {
	// Dist[i] is the hop distance from the source, or Unreached.
	Dist []int64
	// Levels is the number of frontier expansions (the graph's
	// eccentricity from the source plus one).
	Levels int
	// Run carries the simulated-time accounting.
	Run *pgas.Result
}

// SeqDistances is the sequential baseline: textbook queue BFS over CSR.
func SeqDistances(g *graph.Graph, src int64) []int64 {
	csr := graph.BuildCSR(g)
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = Unreached
	}
	if g.N == 0 {
		return dist
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range csr.Neighbors(int64(v)) {
			if dist[w] == Unreached {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Coalesced runs level-synchronous BFS with one personalized all-to-all
// per level: each thread expands its owned frontier along its CSR rows and
// routes the neighbor candidates to their owners, which claim unvisited
// vertices into the next frontier.
//
// Recoverable state (pgas.Registrar): none. BFS dist is monotone, but the
// frontier is not reconstructible from an arbitrary superstep cut — a
// restored dist with no frontier strands the traversal short of the
// fringe, so a partial snapshot would silently truncate distances. After
// an eviction BFS recovers by full deterministic re-execution.
func Coalesced(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, src int64, colOpts *collective.Options) *Result {
	col := sanitize(colOpts)
	csr := graph.BuildCSR(g)
	dist := rt.NewSharedArray("Dist", g.N)
	dist.Fill(Unreached)
	if g.N > 0 {
		dist.StoreRaw(src, 0)
	}
	red := pgas.NewOrReducer(rt)
	levels := 0

	run := rt.Run(func(th *pgas.Thread) {
		lo, hi := dist.ThreadCover(th.ID)
		th.ChargeSeq(sim.CatWork, hi-lo)

		frontier := make([]int64, 0, 1024)
		if src >= lo && src < hi && g.N > 0 {
			frontier = append(frontier, src)
		}
		cands := make([]int64, 0, 4096)
		th.Barrier()

		for level := int64(1); ; level++ {
			if level >= maxLevels {
				panic(fmt.Sprintf("bfs: exceeded %d levels", maxLevels))
			}
			// Expand: stream the frontier's adjacency rows.
			cands = cands[:0]
			var scanned int64
			for _, v := range frontier {
				row := csr.Neighbors(v)
				scanned += int64(len(row))
				for _, w := range row {
					cands = append(cands, int64(w))
				}
			}
			th.ChargeSeq(sim.CatWork, scanned+int64(len(frontier)))

			// Route candidates to their owners.
			recv := comm.Exchange(th, dist, cands, col, nil)

			// Claim: owners admit unvisited vertices into the next
			// frontier (duplicates collapse on the first claim).
			frontier = frontier[:0]
			for _, w := range recv {
				if dist.LoadRaw(w) == Unreached {
					dist.StoreRaw(w, level)
					frontier = append(frontier, w)
				}
			}
			th.ChargeIrregular(sim.CatCopy, int64(len(recv)), hi-lo)

			if !red.Reduce(th, len(frontier) > 0) {
				if th.ID == 0 {
					levels = int(level)
				}
				return
			}
		}
	})

	return &Result{Dist: append([]int64(nil), dist.Raw()...), Levels: levels, Run: run}
}

// Naive runs the literal translation: one one-sided read (and conditional
// write) per inspected edge, and a full rescan of the owned distance block
// per level to discover the next frontier — the access pattern a direct
// shared-memory port produces.
func Naive(rt *pgas.Runtime, g *graph.Graph, src int64) *Result {
	csr := graph.BuildCSR(g)
	dist := rt.NewSharedArray("Dist", g.N)
	dist.Fill(Unreached)
	if g.N > 0 {
		dist.StoreRaw(src, 0)
	}
	red := pgas.NewOrReducer(rt)
	levels := 0

	run := rt.Run(func(th *pgas.Thread) {
		lo, hi := dist.ThreadCover(th.ID)
		th.ChargeSeq(sim.CatWork, hi-lo)

		frontier := make([]int64, 0, 1024)
		if src >= lo && src < hi && g.N > 0 {
			frontier = append(frontier, src)
		}
		th.Barrier()

		for level := int64(1); ; level++ {
			if level >= maxLevels {
				panic(fmt.Sprintf("bfs: naive exceeded %d levels", maxLevels))
			}
			// Expand with per-edge one-sided accesses. PutMin keeps the
			// concurrent claims monotone (every writer offers the same
			// level, so any winner is correct).
			for _, v := range frontier {
				for _, w := range csr.Neighbors(v) {
					if th.Get(dist, int64(w), sim.CatComm) == Unreached {
						th.PutMin(dist, int64(w), level, sim.CatComm)
					}
				}
			}
			th.Barrier()

			// Discover the next frontier by rescanning the owned block.
			frontier = frontier[:0]
			for i := lo; i < hi; i++ {
				if dist.LoadRaw(i) == level {
					frontier = append(frontier, i)
				}
			}
			th.ChargeSeq(sim.CatWork, hi-lo)

			if !red.Reduce(th, len(frontier) > 0) {
				if th.ID == 0 {
					levels = int(level)
				}
				return
			}
		}
	})

	return &Result{Dist: append([]int64(nil), dist.Raw()...), Levels: levels, Run: run}
}

// sanitize copies opts and disables offload (vertex 0's distance is not
// constant).
func sanitize(opts *collective.Options) *collective.Options {
	return collective.Sanitize(opts, false)
}
