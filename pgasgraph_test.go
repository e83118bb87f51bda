package pgasgraph

import (
	"reflect"
	"testing"

	"pgasgraph/internal/mst"
)

func smallCluster(t *testing.T) *Cluster {
	t.Helper()
	cfg := PaperCluster()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 2
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mustRun dispatches spec on c, failing the test on a dispatch error.
func mustRun(tb testing.TB, c *Cluster, spec KernelSpec) *KernelResult {
	tb.Helper()
	res, err := c.Run(spec)
	if err != nil {
		tb.Fatalf("%s: %v", spec.Kernel, err)
	}
	return res
}

func TestNewClusterRejectsInvalid(t *testing.T) {
	cfg := PaperCluster()
	cfg.Nodes = -1
	if _, err := NewCluster(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestClusterAccessors(t *testing.T) {
	c := smallCluster(t)
	if c.Threads() != 8 {
		t.Fatalf("Threads = %d", c.Threads())
	}
	if c.Config().Nodes != 4 {
		t.Fatal("Config lost")
	}
	if c.Runtime() == nil || c.Comm() == nil {
		t.Fatal("internals not exposed")
	}
}

func TestEndToEndCC(t *testing.T) {
	c := smallCluster(t)
	g := HybridGraph(1000, 3000, 7)
	want := SequentialCC(g)

	naive := mustRun(t, c, KernelSpec{Kernel: "cc/naive", Graph: g})
	if !SamePartition(want, naive.Labels) {
		t.Fatal("cc/naive wrong")
	}
	opt := mustRun(t, c, KernelSpec{Kernel: "cc/coalesced", Graph: g, Col: OptimizedCollectives(4), Compact: true})
	if !SamePartition(want, opt.Labels) {
		t.Fatal("cc/coalesced wrong")
	}
	sv := mustRun(t, c, KernelSpec{Kernel: "cc/sv", Graph: g, Col: OptimizedCollectives(4), Compact: true})
	if !SamePartition(want, sv.Labels) {
		t.Fatal("cc/sv wrong")
	}
	if opt.Components != CountComponents(want) {
		t.Fatal("component count wrong")
	}
	if opt.Run.SimNS <= 0 || opt.Run.Wall <= 0 {
		t.Fatal("run stats missing")
	}
}

func TestEndToEndCCNilOptions(t *testing.T) {
	c := smallCluster(t)
	g := RandomGraph(300, 900, 3)
	res := mustRun(t, c, KernelSpec{Kernel: "cc/coalesced", Graph: g})
	if !SamePartition(SequentialCC(g), res.Labels) {
		t.Fatal("nil-options CC wrong")
	}
}

func TestEndToEndMSF(t *testing.T) {
	c := smallCluster(t)
	g := WithRandomWeights(RandomGraph(500, 1500, 11), 12)
	want := Kruskal(g)

	naive := mustRun(t, c, KernelSpec{Kernel: "mst/naive", Graph: g})
	if naive.Weight != want.Weight {
		t.Fatalf("mst/naive weight %d, want %d", naive.Weight, want.Weight)
	}
	opt := mustRun(t, c, KernelSpec{Kernel: "mst/coalesced", Graph: g, Col: OptimizedCollectives(4), Compact: true})
	if opt.Weight != want.Weight {
		t.Fatalf("mst/coalesced weight %d, want %d", opt.Weight, want.Weight)
	}
	if len(opt.Edges) != len(want.Edges) {
		t.Fatal("forest size differs")
	}
}

func TestTimedBaselines(t *testing.T) {
	g := RandomGraph(400, 1200, 5)
	labels, ns := SequentialCCTime(g, SequentialMachine())
	if ns <= 0 {
		t.Fatal("no sequential time")
	}
	if !SamePartition(labels, SequentialCC(g)) {
		t.Fatal("timed labels differ")
	}
	wg := WithRandomWeights(g, 6)
	msf, ns2 := KruskalTime(wg, SequentialMachine())
	if ns2 <= 0 || msf.Weight != Kruskal(wg).Weight {
		t.Fatal("timed Kruskal wrong")
	}
}

func TestGraphConstructors(t *testing.T) {
	if g := RandomGraph(100, 200, 1); g.N != 100 || g.M() != 200 {
		t.Fatal("RandomGraph dims")
	}
	if g := HybridGraph(100, 300, 1); g.M() != 300 {
		t.Fatal("HybridGraph dims")
	}
	if g := RMATGraph(7, 200, 0.45, 0.22, 0.22, 0.11, 1); g.N != 128 || g.M() != 200 {
		t.Fatal("RMATGraph dims")
	}
	g := PermuteVertices(PathGraphForTest(), 1)
	if g.N != 4 {
		t.Fatal("PermuteVertices dims")
	}
}

// PathGraphForTest builds a tiny fixed graph through the public Graph type.
func PathGraphForTest() *Graph {
	return &Graph{N: 4, U: []int32{0, 1, 2}, V: []int32{1, 2, 3}}
}

func TestOptionPresets(t *testing.T) {
	if o := OptimizedCollectives(8); !o.Circular || !o.LocalCpy || !o.CachedIDs || !o.Offload || o.VirtualThreads != 8 {
		t.Fatalf("OptimizedCollectives wrong: %+v", o)
	}
	if o := BaseCollectives(); o.Circular || o.VirtualThreads != 1 {
		t.Fatalf("BaseCollectives wrong: %+v", o)
	}
	if o := DefaultCollectives(); *o != *BaseCollectives() {
		t.Fatalf("DefaultCollectives differs from BaseCollectives: %+v", o)
	}
	if o := DefaultCC(); o.Compact || o.Col == nil {
		t.Fatalf("DefaultCC wrong: %+v", o)
	}
	if o := mst.Defaults(); o.Compact || o.Col == nil {
		t.Fatalf("mst.Defaults wrong: %+v", o)
	}
	if o := OptimizedCC(4); !o.Compact || o.Col.VirtualThreads != 4 {
		t.Fatalf("OptimizedCC wrong: %+v", o)
	}
	for _, o := range []*CollectiveOptions{BaseCollectives(), DefaultCollectives(), OptimizedCollectives(8), nil} {
		if err := o.Validate(); err != nil {
			t.Fatalf("preset %+v rejected: %v", o, err)
		}
	}
}

// TestValidateRejectsBadVectors covers the known-bad configurations: a
// non-positive virtual-thread count, an unknown sort kind, a negative
// offload index, and a cluster geometry beyond the packed-key limit.
func TestValidateRejectsBadVectors(t *testing.T) {
	bad := []*CollectiveOptions{
		{VirtualThreads: 0},
		{VirtualThreads: -3},
		{VirtualThreads: 1, Sort: 99},
		{VirtualThreads: 1, Offload: true, OffloadIndex: -1},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Fatalf("bad options accepted: %+v", o)
		}
	}

	cfg := PaperCluster()
	cfg.Nodes = MaxCollectiveThreads // × 16 threads per node
	if _, err := NewCluster(cfg); err == nil {
		t.Fatal("oversized cluster geometry accepted")
	}
}

// TestNilOptionsMatchDefaults calls every typed Cluster kernel, and the
// Run-dispatched kernels that take collective options, once with nil
// options and once with the matching Defaults() and asserts the results
// are identical — the nil ≡ defaults contract of the API.
func TestNilOptionsMatchDefaults(t *testing.T) {
	c := smallCluster(t)
	g := HybridGraph(400, 1200, 21)
	wg := WithRandomWeights(g, 22)
	forest := func() *Graph {
		sf := c.SpanningForest(g, nil)
		f := &Graph{N: g.N}
		for _, e := range sf.Edges {
			f.U = append(f.U, g.U[e])
			f.V = append(f.V, g.V[e])
		}
		return f
	}()
	l := ChainsList(300, 3, 5)

	// col selects the Run spec's collectives: nil, or the defaults.
	col := func(d bool) *CollectiveOptions {
		if d {
			return DefaultCollectives()
		}
		return nil
	}
	kernels := []struct {
		name string
		run  func(defaults bool) any
	}{
		{"cc/coalesced", func(d bool) any {
			return mustRun(t, c, KernelSpec{Kernel: "cc/coalesced", Graph: g, Col: col(d)}).Labels
		}},
		{"cc/sv", func(d bool) any {
			return mustRun(t, c, KernelSpec{Kernel: "cc/sv", Graph: g, Col: col(d)}).Labels
		}},
		{"mst/coalesced", func(d bool) any {
			return mustRun(t, c, KernelSpec{Kernel: "mst/coalesced", Graph: wg, Col: col(d)}).Weight
		}},
		{"SpanningForest", func(d bool) any {
			o := (*CCOptions)(nil)
			if d {
				o = DefaultCC()
			}
			return c.SpanningForest(g, o).Edges
		}},
		{"Bipartite", func(d bool) any {
			o := (*CCOptions)(nil)
			if d {
				o = DefaultCC()
			}
			return c.Bipartite(g, o).Side
		}},
		{"bfs/coalesced", func(d bool) any {
			return mustRun(t, c, KernelSpec{Kernel: "bfs/coalesced", Graph: g, Col: col(d)}).Dist
		}},
		{"SSSPDeltaStepping", func(d bool) any {
			o := (*CollectiveOptions)(nil)
			if d {
				o = DefaultCollectives()
			}
			return c.SSSPDeltaStepping(wg, 0, 0, o).Dist
		}},
		{"MISLuby", func(d bool) any {
			o := (*CollectiveOptions)(nil)
			if d {
				o = DefaultCollectives()
			}
			return c.MISLuby(g, o).InSet
		}},
		{"TriangleCount", func(d bool) any {
			o := (*CollectiveOptions)(nil)
			if d {
				o = DefaultCollectives()
			}
			return c.TriangleCount(g, o).Triangles
		}},
		{"ListRankWyllie", func(d bool) any {
			o := (*CollectiveOptions)(nil)
			if d {
				o = DefaultCollectives()
			}
			return c.ListRankWyllie(l, o).Ranks
		}},
		{"ListRankCGM", func(d bool) any {
			o := (*CollectiveOptions)(nil)
			if d {
				o = DefaultCollectives()
			}
			return c.ListRankCGM(l, o).Ranks
		}},
		{"EulerTour", func(d bool) any {
			o := (*CollectiveOptions)(nil)
			if d {
				o = DefaultCollectives()
			}
			return c.EulerTour(forest, o).Preorder
		}},
		{"BiconnectedComponents", func(d bool) any {
			o := (*CollectiveOptions)(nil)
			if d {
				o = DefaultCollectives()
			}
			return c.BiconnectedComponents(g, o).EdgeBlock
		}},
	}
	for _, k := range kernels {
		withNil := k.run(false)
		withDefaults := k.run(true)
		if !reflect.DeepEqual(withNil, withDefaults) {
			t.Errorf("%s: nil opts and Defaults() disagree", k.name)
		}
	}
}

// TestReusedCluster verifies a single Cluster can run many kernels
// back to back (buffer reuse in Comm must not leak state).
func TestReusedCluster(t *testing.T) {
	c := smallCluster(t)
	for i := 0; i < 3; i++ {
		g := RandomGraph(200+int64(i)*50, 600, uint64(i)+1)
		res := mustRun(t, c, KernelSpec{Kernel: "cc/coalesced", Graph: g, Col: OptimizedCollectives(2), Compact: true})
		if !SamePartition(SequentialCC(g), res.Labels) {
			t.Fatalf("run %d wrong", i)
		}
		wg := WithRandomWeights(g, uint64(i)+10)
		msf := mustRun(t, c, KernelSpec{Kernel: "mst/coalesced", Graph: wg, Col: OptimizedCollectives(2), Compact: true})
		if msf.Weight != Kruskal(wg).Weight {
			t.Fatalf("MST run %d wrong", i)
		}
	}
}
