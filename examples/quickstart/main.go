// Quickstart: build a simulated 16-node cluster, generate a random graph,
// and compare the naive PGAS translation of connected components against
// the locality-optimized implementation and the sequential baseline —
// the core story of the paper in thirty lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pgasgraph"
)

func main() {
	// 8 threads per node is the paper's best configuration (16 hits the
	// all-to-all burst of Figure 7).
	cfg := pgasgraph.PaperCluster()
	cfg.ThreadsPerNode = 8
	cluster, err := pgasgraph.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// A random graph: 200k vertices, 800k edges (the paper's inputs are
	// 100M/400M; scale up if you have the patience).
	g := pgasgraph.RandomGraph(200_000, 800_000, 42)
	fmt.Printf("input: %v on %d threads\n", g, cluster.Threads())

	// The naive translation: every irregular access is one remote op.
	naive, err := cluster.Run(pgasgraph.KernelSpec{Kernel: "cc/naive", Graph: g})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive CC-UPC:    %8.1f simulated ms, %d components, %d iterations\n",
		naive.Run.SimMS(), naive.Components, naive.Iterations)

	// The paper's optimized implementation: GetD/SetDMin collectives,
	// compact + offload + circular + localcpy + id, t' = 2 virtual
	// threads per thread.
	opt, err := cluster.Run(pgasgraph.KernelSpec{
		Kernel: "cc/coalesced", Graph: g,
		Col: pgasgraph.OptimizedCollectives(2), Compact: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimized CC:    %8.1f simulated ms, %d components, %d iterations\n",
		opt.Run.SimMS(), opt.Components, opt.Iterations)

	// Best sequential baseline (union-find) on one modeled CPU.
	seqLabels, seqNS := pgasgraph.SequentialCCTime(g, pgasgraph.SequentialMachine())
	fmt.Printf("sequential:      %8.1f simulated ms\n", seqNS/1e6)

	if !pgasgraph.SamePartition(opt.Labels, seqLabels) {
		log.Fatal("BUG: parallel and sequential labelings disagree")
	}
	fmt.Printf("\nspeedup over naive:      %6.1fx\n", naive.Run.SimNS/opt.Run.SimNS)
	fmt.Printf("speedup over sequential: %6.1fx\n", seqNS/opt.Run.SimNS)
	fmt.Println("results verified against union-find")
}
