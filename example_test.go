package pgasgraph_test

import (
	"fmt"

	"pgasgraph"
)

// Example demonstrates the basic flow: build a cluster, generate a graph,
// run the paper's optimized connected components, verify.
func Example() {
	cfg := pgasgraph.PaperCluster()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 2
	cluster, err := pgasgraph.NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	g := pgasgraph.RandomGraph(10_000, 40_000, 42)
	res, err := cluster.Run(pgasgraph.KernelSpec{
		Kernel: "cc/coalesced", Graph: g,
		Col: pgasgraph.OptimizedCollectives(2), Compact: true,
	})
	if err != nil {
		panic(err)
	}
	ok := pgasgraph.SamePartition(res.Labels, pgasgraph.SequentialCC(g))
	fmt.Println(res.Components, ok)
	// Output: 4 true
}

// ExampleCluster_Run_msf shows the lock-free distributed Borůvka and its
// exact agreement with sequential Kruskal.
func ExampleCluster_Run_msf() {
	cfg := pgasgraph.PaperCluster()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 2
	cluster, _ := pgasgraph.NewCluster(cfg)
	g := pgasgraph.WithRandomWeights(pgasgraph.RandomGraph(5_000, 20_000, 7), 8)
	msf, err := cluster.Run(pgasgraph.KernelSpec{
		Kernel: "mst/coalesced", Graph: g,
		Col: pgasgraph.OptimizedCollectives(2), Compact: true,
	})
	if err != nil {
		panic(err)
	}
	kruskal := pgasgraph.Kruskal(g)
	fmt.Println(len(msf.Edges) == len(kruskal.Edges), msf.Weight == kruskal.Weight)
	// Output: true true
}

// ExampleCluster_Run_bfs shows hop distances from a source vertex.
func ExampleCluster_Run_bfs() {
	cfg := pgasgraph.PaperCluster()
	cfg.Nodes = 2
	cfg.ThreadsPerNode = 2
	cluster, _ := pgasgraph.NewCluster(cfg)
	// Path 0-1-2-3.
	g := &pgasgraph.Graph{N: 4, U: []int32{0, 1, 2}, V: []int32{1, 2, 3}}
	res, err := cluster.Run(pgasgraph.KernelSpec{Kernel: "bfs/coalesced", Graph: g, Src: 0})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Dist)
	// Output: [0 1 2 3]
}

// ExampleCluster_RankList shows distributed list ranking.
func ExampleCluster_ListRankWyllie() {
	cfg := pgasgraph.PaperCluster()
	cfg.Nodes = 2
	cfg.ThreadsPerNode = 2
	cluster, _ := pgasgraph.NewCluster(cfg)
	// Chain 0 -> 1 -> 2 -> 3 (3 is the tail).
	l := &pgasgraph.List{N: 4, Succ: []int32{1, 2, 3, 3}}
	res := cluster.ListRankWyllie(l, nil)
	fmt.Println(res.Ranks)
	// Output: [3 2 1 0]
}

// ExampleCluster_EulerTour shows rooted-tree statistics from the Euler
// tour technique over a path.
func ExampleCluster_EulerTour() {
	cfg := pgasgraph.PaperCluster()
	cfg.Nodes = 2
	cfg.ThreadsPerNode = 2
	cluster, _ := pgasgraph.NewCluster(cfg)
	forest := &pgasgraph.Graph{N: 4, U: []int32{0, 1, 2}, V: []int32{1, 2, 3}}
	st := cluster.EulerTour(forest, nil)
	fmt.Println(st.Depth, st.SubtreeSize)
	// Output: [0 1 2 3] [4 3 2 1]
}

// ExampleCluster_ShortestPaths shows weighted distances via delta-stepping.
func ExampleCluster_SSSPDeltaStepping() {
	cfg := pgasgraph.PaperCluster()
	cfg.Nodes = 2
	cfg.ThreadsPerNode = 2
	cluster, _ := pgasgraph.NewCluster(cfg)
	// Path 0-1-2 with weights 5 and 7, plus a costly shortcut 0-2.
	g := &pgasgraph.Graph{N: 3, U: []int32{0, 1, 0}, V: []int32{1, 2, 2}, W: []uint32{5, 7, 20}}
	res := cluster.SSSPDeltaStepping(g, 0, 0, nil)
	fmt.Println(res.Dist)
	// Output: [0 5 12]
}

// ExampleCluster_Bipartite shows two-colorability per component.
func ExampleCluster_Bipartite() {
	cfg := pgasgraph.PaperCluster()
	cfg.Nodes = 2
	cfg.ThreadsPerNode = 2
	cluster, _ := pgasgraph.NewCluster(cfg)
	// An even cycle (bipartite) next to a triangle (not).
	g := &pgasgraph.Graph{
		N: 7,
		U: []int32{0, 1, 2, 3, 4, 5, 6},
		V: []int32{1, 2, 3, 0, 5, 6, 4},
	}
	res := cluster.Bipartite(g, nil)
	fmt.Println(res.ComponentBipartite[0], res.ComponentBipartite[4])
	// Output: true false
}

// ExampleCluster_MaximalIndependentSet shows Luby's algorithm with the
// certificate checker.
func ExampleCluster_MISLuby() {
	cfg := pgasgraph.PaperCluster()
	cfg.Nodes = 2
	cfg.ThreadsPerNode = 2
	cluster, _ := pgasgraph.NewCluster(cfg)
	g := pgasgraph.RandomGraph(1000, 4000, 7)
	res := cluster.MISLuby(g, nil)
	fmt.Println(pgasgraph.CheckMIS(g, res.InSet) == nil)
	// Output: true
}

// ExampleCluster_SpanningForest shows forest extraction riding on CC.
func ExampleCluster_SpanningForest() {
	cfg := pgasgraph.PaperCluster()
	cfg.Nodes = 2
	cfg.ThreadsPerNode = 2
	cluster, _ := pgasgraph.NewCluster(cfg)
	g := pgasgraph.RandomGraph(100, 300, 9) // connected w.h.p.? use components
	sf := cluster.SpanningForest(g, nil)
	fmt.Println(int64(len(sf.Edges)) == g.N-sf.CC.Components)
	// Output: true
}
