package pgasgraph

import (
	"testing"

	"pgasgraph/internal/cc"
)

// TestCrossKernelConsistency runs every public kernel on one shared input
// and checks the invariants that tie their answers together — a web of
// mutual evidence stronger than any single sequential comparison:
//
//   - BFS reachability from a component's representative covers exactly
//     that component (CC vs BFS);
//   - spanning forest edges stay within components and count n - #comps;
//   - Euler-tour roots agree with CC labels; depths agree with BFS-in-the-
//     forest distances;
//   - weighted SSSP distances are bounded below by hop distances (every
//     weight >= 1) and agree exactly on reachability;
//   - the MIS is independent and maximal against the same adjacency;
//   - MSF weight matches Kruskal and its edges span exactly the components.
func TestCrossKernelConsistency(t *testing.T) {
	cfg := PaperCluster()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 2
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := Disjoint3(t)
	wg := g.Clone()
	wg.W = make([]uint32, g.M())
	for i := range wg.W {
		wg.W[i] = uint32(1 + (i*2654435761)%1000) // >= 1, deterministic
	}

	comps := mustRun(t, c, KernelSpec{Kernel: "cc/coalesced", Graph: g, Col: OptimizedCollectives(2), Compact: true})
	sf := c.SpanningForest(g, OptimizedCC(2))
	msf := mustRun(t, c, KernelSpec{Kernel: "mst/coalesced", Graph: wg, Col: OptimizedCollectives(2), Compact: true})
	misRes := c.MISLuby(g, OptimizedCollectives(2))

	// CC vs BFS reachability, per component representative.
	reps := map[int64]bool{}
	for _, l := range comps.Labels {
		reps[l] = true
	}
	for rep := range reps {
		dist := mustRun(t, c, KernelSpec{Kernel: "bfs/coalesced", Graph: g, Src: rep, Col: OptimizedCollectives(2)})
		for v := int64(0); v < g.N; v++ {
			reached := dist.Dist[v] != BFSUnreached
			sameComp := comps.Labels[v] == comps.Labels[rep]
			if reached != sameComp {
				t.Fatalf("BFS from %d and CC disagree at vertex %d", rep, v)
			}
		}
	}

	// Spanning forest structure.
	if int64(len(sf.Edges)) != g.N-comps.Components {
		t.Fatalf("forest edges %d != n - components %d", len(sf.Edges), g.N-comps.Components)
	}
	for _, e := range sf.Edges {
		if comps.Labels[g.U[e]] != comps.Labels[g.V[e]] {
			t.Fatalf("forest edge %d crosses components", e)
		}
	}

	// Euler tour over the forest agrees with CC and with BFS depths in
	// the forest.
	forest := &Graph{N: g.N}
	for _, e := range sf.Edges {
		forest.U = append(forest.U, g.U[e])
		forest.V = append(forest.V, g.V[e])
	}
	ts := c.EulerTour(forest, OptimizedCollectives(2))
	if !SamePartition(ts.Root, comps.Labels) {
		t.Fatal("Euler-tour roots disagree with CC")
	}
	for v := int64(0); v < g.N; v++ {
		if ts.Root[v] == v {
			fd := SequentialBFS(forest, v)
			for u := int64(0); u < g.N; u++ {
				if ts.Root[u] == v && ts.Depth[u] != fd[u] {
					t.Fatalf("tour depth[%d]=%d, forest BFS says %d", u, ts.Depth[u], fd[u])
				}
			}
		}
	}

	// SSSP vs BFS: weights >= 1 imply dist_w >= dist_hops, with equal
	// reachability.
	rep := comps.Labels[0]
	hops := mustRun(t, c, KernelSpec{Kernel: "bfs/coalesced", Graph: g, Src: rep, Col: OptimizedCollectives(2)})
	weighted := c.SSSPDeltaStepping(wg, rep, 0, OptimizedCollectives(2))
	for v := int64(0); v < g.N; v++ {
		hReached := hops.Dist[v] != BFSUnreached
		wReached := weighted.Dist[v] != SSSPUnreached
		if hReached != wReached {
			t.Fatalf("reachability disagrees at %d", v)
		}
		if wReached && weighted.Dist[v] < hops.Dist[v] {
			t.Fatalf("weighted dist %d below hop count %d at %d",
				weighted.Dist[v], hops.Dist[v], v)
		}
	}

	// MIS against the same adjacency.
	if err := CheckMIS(g, misRes.InSet); err != nil {
		t.Fatal(err)
	}

	// MSF against Kruskal and CC.
	if msf.Weight != Kruskal(wg).Weight {
		t.Fatal("MSF weight differs from Kruskal")
	}
	if int64(len(msf.Edges)) != g.N-comps.Components {
		t.Fatal("MSF edge count inconsistent with components")
	}
}

// TestCCFamilyAcrossSchemes is the fast-converging family's differential
// wall at the public surface: on every partition scheme, every CC kernel
// (Bader-Cong/Coalesced, SV, FastSV, and each Liu-Tarjan variant) must
// produce bit-identical canonical labels — both dispatched by name
// through Cluster.Run and called directly on the cluster's runtime — and
// the labels must not depend on the scheme either.
func TestCCFamilyAcrossSchemes(t *testing.T) {
	g := Disjoint3(t)
	rmat := PermuteVertices(RMATGraph(8, 500, 0.45, 0.25, 0.15, 0.15, 17), 5)

	for _, tg := range []struct {
		name string
		g    *Graph
	}{{"disjoint3", g}, {"rmat", rmat}} {
		var ref []int64 // scheme- and kernel-independent reference labels
		for _, scheme := range []struct {
			name string
			spec func(*Graph) PartitionSpec
		}{
			{"block", func(*Graph) PartitionSpec { return PartitionSpec{Kind: SchemeBlock} }},
			{"cyclic", func(*Graph) PartitionSpec { return PartitionSpec{Kind: SchemeCyclic} }},
			{"hub", func(gr *Graph) PartitionSpec {
				return PartitionSpec{Kind: SchemeHub, Hubs: Hubs(gr, 32)}
			}},
		} {
			newCluster := func() *Cluster {
				cfg := PaperCluster()
				cfg.Nodes = 3
				cfg.ThreadsPerNode = 2
				c, err := NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.SetPartition(scheme.spec(tg.g)); err != nil {
					t.Fatal(err)
				}
				return c
			}
			kernels := []struct {
				name string
				run  func(c *Cluster) *cc.Result
			}{
				{"coalesced", func(c *Cluster) *cc.Result { return cc.Coalesced(c.Runtime(), c.Comm(), tg.g, OptimizedCC(2)) }},
				{"sv", func(c *Cluster) *cc.Result { return cc.SV(c.Runtime(), c.Comm(), tg.g, OptimizedCC(2)) }},
				{"fastsv", func(c *Cluster) *cc.Result { return cc.FastSV(c.Runtime(), c.Comm(), tg.g, OptimizedCC(2)) }},
				{"lt-prs", func(c *Cluster) *cc.Result {
					return cc.LiuTarjan(c.Runtime(), c.Comm(), tg.g, cc.LTPRS, OptimizedCC(2))
				}},
				{"lt-pus", func(c *Cluster) *cc.Result {
					return cc.LiuTarjan(c.Runtime(), c.Comm(), tg.g, cc.LTPUS, OptimizedCC(2))
				}},
				{"lt-ers", func(c *Cluster) *cc.Result {
					return cc.LiuTarjan(c.Runtime(), c.Comm(), tg.g, cc.LTERS, OptimizedCC(2))
				}},
			}
			for _, k := range kernels {
				res := k.run(newCluster())
				if ref == nil {
					ref = res.Labels
				}
				for i := range ref {
					if res.Labels[i] != ref[i] {
						t.Fatalf("%s/%s on %s: label[%d] = %d, reference labeling says %d",
							k.name, scheme.name, tg.name, i, res.Labels[i], ref[i])
					}
				}
				// The same kernel dispatched by name must agree too.
				disp, err := newCluster().Run(KernelSpec{
					Kernel: "cc/" + k.name, Graph: tg.g, Col: OptimizedCollectives(2), Compact: true,
				})
				if err != nil {
					t.Fatalf("%s/%s on %s: dispatch: %v", k.name, scheme.name, tg.name, err)
				}
				for i := range ref {
					if disp.Labels[i] != ref[i] {
						t.Fatalf("cc/%s dispatched on %s/%s: label[%d] = %d, want %d",
							k.name, scheme.name, tg.name, i, disp.Labels[i], ref[i])
					}
				}
			}
		}
	}
}

// Disjoint3 builds a multi-component test graph: a hybrid blob, a grid,
// and isolated vertices.
func Disjoint3(t *testing.T) *Graph {
	t.Helper()
	blob := HybridGraph(300, 900, 5)
	grid := gridGraph(8, 9)
	out := &Graph{}
	var base int64
	for _, g := range []*Graph{blob, grid, {N: 4}} {
		for i := range g.U {
			out.U = append(out.U, g.U[i]+int32(base))
			out.V = append(out.V, g.V[i]+int32(base))
		}
		base += g.N
	}
	out.N = base
	return out
}

func gridGraph(rows, cols int64) *Graph {
	g := &Graph{N: rows * cols}
	id := func(r, c int64) int32 { return int32(r*cols + c) }
	for r := int64(0); r < rows; r++ {
		for c := int64(0); c < cols; c++ {
			if c+1 < cols {
				g.U = append(g.U, id(r, c))
				g.V = append(g.V, id(r, c+1))
			}
			if r+1 < rows {
				g.U = append(g.U, id(r, c))
				g.V = append(g.V, id(r+1, c))
			}
		}
	}
	return g
}
