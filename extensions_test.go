package pgasgraph

import (
	"testing"
)

func TestSpanningForestAPI(t *testing.T) {
	c := smallCluster(t)
	g := RandomGraph(400, 1200, 17)
	sf := c.SpanningForest(g, OptimizedCC(2))
	want := SequentialCC(g)
	if !SamePartition(want, sf.CC.Labels) {
		t.Fatal("spanning forest CC labels wrong")
	}
	comps := CountComponents(want)
	if int64(len(sf.Edges)) != g.N-comps {
		t.Fatalf("forest has %d edges, want %d", len(sf.Edges), g.N-comps)
	}
}

func TestListRankAPI(t *testing.T) {
	c := smallCluster(t)
	l := RandomChainList(500, 3)
	want := SequentialListRank(l)

	w := c.ListRankWyllie(l, OptimizedCollectives(2))
	for i := range want {
		if w.Ranks[i] != want[i] {
			t.Fatalf("Wyllie rank[%d] = %d, want %d", i, w.Ranks[i], want[i])
		}
	}
	g := c.ListRankCGM(l, OptimizedCollectives(2))
	for i := range want {
		if g.Ranks[i] != want[i] {
			t.Fatalf("CGM rank[%d] = %d, want %d", i, g.Ranks[i], want[i])
		}
	}
	if w.Run.SimNS <= 0 || g.Run.SimNS <= 0 {
		t.Fatal("missing run stats")
	}
}

func TestChainsListAPI(t *testing.T) {
	l := ChainsList(100, 4, 9)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	ranks := SequentialListRank(l)
	if len(ranks) != 100 {
		t.Fatal("rank length wrong")
	}
}

func TestBFSAPI(t *testing.T) {
	c := smallCluster(t)
	g := HybridGraph(600, 1800, 4)
	want := SequentialBFS(g, 3)

	res := mustRun(t, c, KernelSpec{Kernel: "bfs/coalesced", Graph: g, Src: 3, Col: OptimizedCollectives(2)})
	for i := range want {
		if res.Dist[i] != want[i] {
			t.Fatalf("BFS dist[%d] = %d, want %d", i, res.Dist[i], want[i])
		}
	}
	naive := mustRun(t, c, KernelSpec{Kernel: "bfs/naive", Graph: g, Src: 3})
	for i := range want {
		if naive.Dist[i] != want[i] {
			t.Fatalf("naive BFS dist[%d] wrong", i)
		}
	}
}

func TestBFSUnreachedConstant(t *testing.T) {
	g := Disjoint2ForTest()
	d := SequentialBFS(g, 0)
	if d[2] != BFSUnreached {
		t.Fatalf("unreachable vertex distance %d", d[2])
	}
}

// Disjoint2ForTest returns two isolated edges through the public Graph type.
func Disjoint2ForTest() *Graph {
	return &Graph{N: 4, U: []int32{0, 2}, V: []int32{1, 3}}
}

func TestEulerTourAPI(t *testing.T) {
	c := smallCluster(t)
	g := RandomGraph(300, 900, 21)
	sf := c.SpanningForest(g, OptimizedCC(2))
	forest := &Graph{N: g.N}
	for _, e := range sf.Edges {
		forest.U = append(forest.U, g.U[e])
		forest.V = append(forest.V, g.V[e])
	}
	st := c.EulerTour(forest, OptimizedCollectives(2))
	// Depth/parent consistency: depth(parent)+1 == depth(child).
	for v := int64(0); v < g.N; v++ {
		if p := st.Parent[v]; p >= 0 {
			if st.Depth[v] != st.Depth[p]+1 {
				t.Fatalf("depth chain broken at %d", v)
			}
		} else if st.Depth[v] != 0 {
			t.Fatalf("root %d has nonzero depth", v)
		}
	}
	// Subtree sizes sum to n when restricted to roots.
	var total int64
	for v := int64(0); v < g.N; v++ {
		if st.Parent[v] == -1 {
			total += st.SubtreeSize[v]
		}
	}
	if total != g.N {
		t.Fatalf("root subtree sizes sum to %d, want %d", total, g.N)
	}
}

func TestCCMergeAPI(t *testing.T) {
	c := smallCluster(t)
	g := RandomGraph(400, 1000, 8)
	res := mustRun(t, c, KernelSpec{Kernel: "cc/merge-cgm", Graph: g})
	if !SamePartition(SequentialCC(g), res.Labels) {
		t.Fatal("merge CC labels wrong")
	}
}

func TestBCCAPI(t *testing.T) {
	c := smallCluster(t)
	g := RandomGraph(150, 350, 31)
	res := c.BiconnectedComponents(g, OptimizedCollectives(2))
	want := SequentialBCC(g)
	if res.Blocks != want.Blocks {
		t.Fatalf("blocks = %d, want %d", res.Blocks, want.Blocks)
	}
	for v := int64(0); v < g.N; v++ {
		if res.Articulation[v] != want.Articulation[v] {
			t.Fatalf("articulation[%d] differs", v)
		}
	}
	for e := int64(0); e < g.M(); e++ {
		if res.Bridge[e] != want.Bridge[e] {
			t.Fatalf("bridge[%d] differs", e)
		}
	}
}

func TestShortestPathsAPI(t *testing.T) {
	c := smallCluster(t)
	g := WithRandomWeights(RandomGraph(300, 900, 41), 42)
	res := c.SSSPDeltaStepping(g, 5, 0, OptimizedCollectives(2))
	want := SequentialDijkstra(g, 5)
	for i := range want {
		if res.Dist[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, res.Dist[i], want[i])
		}
	}
}

func TestMISAPI(t *testing.T) {
	c := smallCluster(t)
	g := HybridGraph(500, 1500, 51)
	res := c.MISLuby(g, OptimizedCollectives(2))
	if err := CheckMIS(g, res.InSet); err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestBipartiteAPI(t *testing.T) {
	c := smallCluster(t)
	g := Disjoint2ForTest() // two isolated edges: bipartite everywhere
	res := c.Bipartite(g, OptimizedCC(2))
	for _, bip := range res.ComponentBipartite {
		if !bip {
			t.Fatal("matching reported non-bipartite")
		}
	}
	for i := range g.U {
		if res.Side[g.U[i]] == res.Side[g.V[i]] {
			t.Fatal("coloring not proper")
		}
	}
}

func TestTrianglesAPI(t *testing.T) {
	c := smallCluster(t)
	g := HybridGraph(250, 1200, 61)
	res := c.TriangleCount(g, OptimizedCollectives(2))
	if res.Triangles != SequentialTriangles(g) {
		t.Fatalf("triangles = %d, want %d", res.Triangles, SequentialTriangles(g))
	}
}
