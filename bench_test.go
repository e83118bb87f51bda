// Benchmarks regenerating the paper's evaluation: one benchmark per figure
// (the paper reports no result tables), plus ablation benchmarks for the
// design choices DESIGN.md calls out and micro-benchmarks of the
// substrates. Each figure benchmark reports the key simulated-time metric
// alongside Go's wall-clock numbers.
//
//	go test -bench=. -benchmem
//
// Figure benchmarks run at a small scale (-0.2% of the paper's inputs) so
// the whole suite completes in minutes; `pgasbench -scale 0.01 -check all`
// is the validated reproduction configuration.
package pgasgraph

import (
	"testing"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/experiments"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/mst"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/psort"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/xrand"
)

// benchScale keeps each figure run around a second of wall time.
const benchScale = 0.002

func benchCfg() experiments.Config {
	return experiments.Config{Scale: benchScale}
}

func BenchmarkFig02NaiveVsSMP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.RunFig02(benchCfg())
		b.ReportMetric(f.Rows[0].NaiveNS/f.Rows[0].SMPNS, "slowdown")
	}
}

func BenchmarkFig03Coalescing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.RunFig03(benchCfg())
		b.ReportMetric(f.OrigNS/f.CCNS, "speedup")
	}
}

func BenchmarkFig04VirtualThreads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.RunFig04(benchCfg())
		in := f.Inputs[0]
		b.ReportMetric(in.SMPNS/in.NS[in.Best()], "best-vs-smp")
	}
}

func BenchmarkFig05AblationRandom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.RunFig05(benchCfg())
		b.ReportMetric(f.Bars[0].TotalNS/f.Bars[len(f.Bars)-1].TotalNS, "base-vs-opt")
	}
}

func BenchmarkFig06AblationHybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.RunFig06(benchCfg())
		b.ReportMetric(f.Bars[0].TotalNS/f.Bars[len(f.Bars)-1].TotalNS, "base-vs-opt")
	}
}

func BenchmarkFig07CCScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.RunFig07(benchCfg())
		b.ReportMetric(f.SMPNS/f.NS[f.Best()], "best-vs-smp")
	}
}

func BenchmarkFig08CCScalingDense(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.RunFig08(benchCfg())
		b.ReportMetric(f.SMPNS/f.NS[f.Best()], "best-vs-smp")
	}
}

func BenchmarkFig09MSTScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.RunFig09(benchCfg())
		b.ReportMetric(f.SMPNS/f.NS[f.Best()], "best-vs-smp")
	}
}

func BenchmarkFig10MSTScalingDense(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.RunFig10(benchCfg())
		b.ReportMetric(f.SMPNS/f.NS[f.Best()], "best-vs-smp")
	}
}

// Ablation benchmarks: each §V optimization toggled alone against the
// fully optimized configuration, on a fixed cluster and input.

func ablationCluster(b *testing.B) (*Cluster, *Graph) {
	b.Helper()
	cfg := PaperCluster()
	cfg.ThreadsPerNode = 8
	cfg.CacheBytes = 64 << 10
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return c, RandomGraph(100_000, 400_000, 42)
}

func benchCCVariant(b *testing.B, mutate func(*CollectiveOptions)) {
	c, g := ablationCluster(b)
	var sim float64
	for i := 0; i < b.N; i++ {
		col := collective.Optimized(2)
		mutate(col)
		res := mustRun(b, c, KernelSpec{Kernel: "cc/coalesced", Graph: g, Col: col, Compact: true})
		sim = res.Run.SimMS()
	}
	b.ReportMetric(sim, "sim-ms")
}

func BenchmarkAblationFullyOptimized(b *testing.B) {
	benchCCVariant(b, func(*CollectiveOptions) {})
}

func BenchmarkAblationNoCircular(b *testing.B) {
	benchCCVariant(b, func(o *CollectiveOptions) { o.Circular = false })
}

func BenchmarkAblationNoLocalCpy(b *testing.B) {
	benchCCVariant(b, func(o *CollectiveOptions) { o.LocalCpy = false })
}

func BenchmarkAblationNoOffload(b *testing.B) {
	benchCCVariant(b, func(o *CollectiveOptions) { o.Offload = false })
}

func BenchmarkAblationNoCachedIDs(b *testing.B) {
	benchCCVariant(b, func(o *CollectiveOptions) { o.CachedIDs = false })
}

func BenchmarkAblationNoBlocking(b *testing.B) {
	benchCCVariant(b, func(o *CollectiveOptions) { o.VirtualThreads = 1 })
}

func BenchmarkAblationQuicksort(b *testing.B) {
	benchCCVariant(b, func(o *CollectiveOptions) { o.Sort = collective.QuickSort })
}

func BenchmarkAblationNoCompact(b *testing.B) {
	c, g := ablationCluster(b)
	var sim float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, c, KernelSpec{Kernel: "cc/coalesced", Graph: g, Col: collective.Optimized(2), Compact: false})
		sim = res.Run.SimMS()
	}
	b.ReportMetric(sim, "sim-ms")
}

// BenchmarkAblationRDMA measures the large-message RDMA path (§V).
func BenchmarkAblationRDMA(b *testing.B) {
	cfg := PaperCluster()
	cfg.ThreadsPerNode = 8
	cfg.RDMA = true
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g := RandomGraph(100_000, 400_000, 42)
	var sim float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, c, KernelSpec{Kernel: "cc/coalesced", Graph: g, Col: collective.Optimized(2), Compact: true})
		sim = res.Run.SimMS()
	}
	b.ReportMetric(sim, "sim-ms")
}

// BenchmarkAblationHierarchicalA2A measures the node-level all-to-all the
// paper proposes as future runtime work, at the thread count where the
// flat all-to-all collapses (16 threads/node).
func BenchmarkAblationHierarchicalA2A(b *testing.B) {
	for _, hier := range []bool{false, true} {
		name := "flat"
		if hier {
			name = "hierarchical"
		}
		b.Run(name, func(b *testing.B) {
			cfg := PaperCluster()
			cfg.HierarchicalA2A = hier
			c, err := NewCluster(cfg)
			if err != nil {
				b.Fatal(err)
			}
			g := RandomGraph(100_000, 400_000, 42)
			var sim float64
			for i := 0; i < b.N; i++ {
				res := mustRun(b, c, KernelSpec{Kernel: "cc/coalesced", Graph: g, Col: collective.Optimized(1), Compact: true})
				sim = res.Run.SimMS()
			}
			b.ReportMetric(sim, "sim-ms")
		})
	}
}

// Steady-state collective micro-benchmarks: all b.N calls run inside one
// SPMD region with per-thread request and output buffers allocated once,
// so `-benchmem` reports the collective layer's own steady-state
// allocation behavior (the numbers BENCH_collectives.json baselines).

func collectiveSteadyCluster(b *testing.B) (*Cluster, [][]int64, [][]int64, [][]int64) {
	b.Helper()
	cfg := PaperCluster()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 4
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := c.Threads()
	const k = 1 << 11
	idx := make([][]int64, s)
	vals := make([][]int64, s)
	out := make([][]int64, s)
	for t := 0; t < s; t++ {
		rng := xrand.New(uint64(t) + 1)
		idx[t] = make([]int64, k)
		vals[t] = make([]int64, k)
		out[t] = make([]int64, k)
		for j := range idx[t] {
			idx[t][j] = rng.Int64n(1 << 16)
			vals[t][j] = rng.Int63()
		}
	}
	return c, idx, vals, out
}

func benchCollectiveSteady(b *testing.B, body func(c *Cluster, th *pgas.Thread, d *pgas.SharedArray, idx, vals, out []int64, opts *CollectiveOptions, cache *collective.IDCache)) {
	c, idx, vals, out := collectiveSteadyCluster(b)
	rt := c.Runtime()
	d := rt.NewSharedArray("D", 1<<16)
	d.FillIdentity()
	opts := collective.Optimized(4)
	caches := make([]collective.IDCache, c.Threads())
	b.ResetTimer()
	rt.Run(func(th *pgas.Thread) {
		for i := 0; i < b.N; i++ {
			body(c, th, d, idx[th.ID], vals[th.ID], out[th.ID], opts, &caches[th.ID])
		}
	})
}

func BenchmarkCollectiveGetD(b *testing.B) {
	benchCollectiveSteady(b, func(c *Cluster, th *pgas.Thread, d *pgas.SharedArray, idx, vals, out []int64, opts *CollectiveOptions, cache *collective.IDCache) {
		c.Comm().GetD(th, d, idx, out, opts, cache)
	})
}

func BenchmarkCollectiveSetD(b *testing.B) {
	benchCollectiveSteady(b, func(c *Cluster, th *pgas.Thread, d *pgas.SharedArray, idx, vals, out []int64, opts *CollectiveOptions, cache *collective.IDCache) {
		c.Comm().SetD(th, d, idx, vals, opts, cache)
	})
}

func BenchmarkCollectiveSetDMin(b *testing.B) {
	benchCollectiveSteady(b, func(c *Cluster, th *pgas.Thread, d *pgas.SharedArray, idx, vals, out []int64, opts *CollectiveOptions, cache *collective.IDCache) {
		c.Comm().SetDMin(th, d, idx, vals, opts, cache)
	})
}

func BenchmarkCollectiveExchange(b *testing.B) {
	benchCollectiveSteady(b, func(c *Cluster, th *pgas.Thread, d *pgas.SharedArray, idx, vals, out []int64, opts *CollectiveOptions, cache *collective.IDCache) {
		c.Comm().Exchange(th, d, idx, opts, cache)
	})
}

func BenchmarkCollectiveGetDPair(b *testing.B) {
	c, idx, _, out := collectiveSteadyCluster(b)
	rt := c.Runtime()
	d1 := rt.NewSharedArray("D1", 1<<16)
	d2 := rt.NewSharedArray("D2", 1<<16)
	d1.FillIdentity()
	d2.FillIdentity()
	opts := collective.Optimized(4)
	out2 := make([][]int64, c.Threads())
	for t := range out2 {
		out2[t] = make([]int64, len(out[t]))
	}
	b.ResetTimer()
	rt.Run(func(th *pgas.Thread) {
		for i := 0; i < b.N; i++ {
			c.Comm().GetDPair(th, d1, d2, idx[th.ID], out[th.ID], out2[th.ID], opts, nil)
		}
	})
}

// BenchmarkCollectiveGetDCheckpointed is BenchmarkCollectiveGetD with the
// superstep checkpoint manager armed (snapshot at every barrier, chaos
// disarmed) and D registered. The steady state must stay 0 allocs/op:
// the snapshot path's shadow buffers are allocated once at registration,
// and every per-barrier copy reuses them.
func BenchmarkCollectiveGetDCheckpointed(b *testing.B) {
	c, idx, _, out := collectiveSteadyCluster(b)
	rt := c.Runtime()
	d := rt.NewSharedArray("D", 1<<16)
	d.FillIdentity()
	rt.ArmCheckpoints(1)
	pgas.Register(rt, "D", d)
	opts := collective.Optimized(4)
	caches := make([]collective.IDCache, c.Threads())
	rt.Run(func(th *pgas.Thread) { // warm the arenas and shadow buffers
		c.Comm().GetD(th, d, idx[th.ID], out[th.ID], opts, &caches[th.ID])
	})
	b.ResetTimer()
	rt.Run(func(th *pgas.Thread) {
		for i := 0; i < b.N; i++ {
			c.Comm().GetD(th, d, idx[th.ID], out[th.ID], opts, &caches[th.ID])
		}
	})
}

// BenchmarkCollectivePlanReuse measures the plan-reuse steady state: the
// grouping sort and matrix publish run once (untimed, in the build
// region), and every timed op is a pure phase-2 execution — the cost a
// fixed-request kernel iteration actually pays.
func BenchmarkCollectivePlanReuse(b *testing.B) {
	c, idx, _, out := collectiveSteadyCluster(b)
	rt := c.Runtime()
	d := rt.NewSharedArray("D", 1<<16)
	d.FillIdentity()
	opts := collective.Optimized(4)
	plan := c.Comm().NewPlan()
	rt.Run(func(th *pgas.Thread) {
		plan.PlanRequests(th, d, idx[th.ID], opts, nil)
		plan.GetD(th, d, out[th.ID]) // warm the serve scratch
	})
	b.ResetTimer()
	rt.Run(func(th *pgas.Thread) {
		for i := 0; i < b.N; i++ {
			plan.GetD(th, d, out[th.ID])
		}
	})
}

// Substrate micro-benchmarks.

func BenchmarkGetD(b *testing.B) {
	cfg := PaperCluster()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 4
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rt := c.Runtime()
	d := rt.NewSharedArray("D", 1<<16)
	d.FillIdentity()
	rng := xrand.New(1)
	idx := make([]int64, 1<<12)
	for i := range idx {
		idx[i] = rng.Int64n(1 << 16)
	}
	opts := collective.Optimized(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Run(func(th *pgas.Thread) {
			out := make([]int64, len(idx))
			c.Comm().GetD(th, d, idx, out, opts, nil)
		})
	}
}

func BenchmarkSeqKruskal(b *testing.B) {
	g := WithRandomWeights(RandomGraph(100_000, 400_000, 1), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq.Kruskal(g)
	}
}

func BenchmarkSeqUnionFindCC(b *testing.B) {
	g := RandomGraph(100_000, 400_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq.CC(g)
	}
}

func BenchmarkGeneratorRandom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		graph.Random(100_000, 400_000, uint64(i))
	}
}

func BenchmarkGeneratorHybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		graph.Hybrid(100_000, 400_000, uint64(i))
	}
}

func BenchmarkSortCount(b *testing.B) {
	rng := xrand.New(1)
	const k = 1 << 16
	items := make([]int64, k)
	keys := make([]int32, k)
	for i := range items {
		items[i] = rng.Int63()
		keys[i] = int32(rng.Int64n(128))
	}
	sorted := make([]int64, k)
	pos := make([]int32, k)
	offs := make([]int64, 129)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		psort.BucketByKey(items, keys, 128, sorted, pos, offs)
	}
}

func BenchmarkSortQuick(b *testing.B) {
	rng := xrand.New(1)
	const k = 1 << 16
	src := make([]int64, k)
	for i := range src {
		src[i] = rng.Int63()
	}
	buf := make([]int64, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		psort.Quicksort(buf)
	}
}

func BenchmarkSortRadix(b *testing.B) {
	rng := xrand.New(1)
	const k = 1 << 16
	src := make([]int64, k)
	for i := range src {
		src[i] = rng.Int63()
	}
	buf := make([]int64, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		psort.RadixSort(buf)
	}
}

// Kernel micro-benchmarks on a small fixed cluster.

func kernelBench(b *testing.B, run func(c *Cluster, g *Graph)) {
	cfg := PaperCluster()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 4
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g := RandomGraph(50_000, 200_000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(c, g)
	}
}

func BenchmarkKernelCCCoalesced(b *testing.B) {
	kernelBench(b, func(c *Cluster, g *Graph) {
		cc.Coalesced(c.Runtime(), c.Comm(), g, OptimizedCC(2))
	})
}

func BenchmarkKernelCCSV(b *testing.B) {
	kernelBench(b, func(c *Cluster, g *Graph) {
		cc.SV(c.Runtime(), c.Comm(), g, OptimizedCC(2))
	})
}

func BenchmarkKernelMSTCoalesced(b *testing.B) {
	wg := WithRandomWeights(RandomGraph(50_000, 200_000, 3), 4)
	cfg := PaperCluster()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 4
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mst.Coalesced(c.Runtime(), c.Comm(), wg, &mst.Options{Col: collective.Optimized(2), Compact: true})
	}
}

// Extension benchmarks: spanning forest, list ranking, BFS.

func BenchmarkKernelSpanningForest(b *testing.B) {
	kernelBench(b, func(c *Cluster, g *Graph) {
		c.SpanningForest(g, OptimizedCC(2))
	})
}

func BenchmarkListRankWyllie(b *testing.B) {
	cfg := PaperCluster()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 4
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	l := RandomChainList(50_000, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ListRankWyllie(l, OptimizedCollectives(2))
	}
}

func BenchmarkListRankCGM(b *testing.B) {
	cfg := PaperCluster()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 4
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	l := RandomChainList(50_000, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ListRankCGM(l, OptimizedCollectives(2))
	}
}

func BenchmarkListRankExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := experiments.RunListRank(benchCfg())
		last := len(e.Nodes) - 1
		b.ReportMetric(e.Wyllie[last]/e.CGM[last], "wyllie-vs-cgm")
	}
}

func BenchmarkBFSCoalesced(b *testing.B) {
	kernelBench(b, func(c *Cluster, g *Graph) {
		mustRun(b, c, KernelSpec{Kernel: "bfs/coalesced", Graph: g, Col: OptimizedCollectives(2)})
	})
}

func BenchmarkBFSDiameterExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := experiments.RunBFS(benchCfg())
		b.ReportMetric(e.Rows[1].BFSNS/e.Rows[0].BFSNS, "grid-vs-random")
	}
}

func BenchmarkKernelCCMerge(b *testing.B) {
	kernelBench(b, func(c *Cluster, g *Graph) {
		mustRun(b, c, KernelSpec{Kernel: "cc/merge-cgm", Graph: g})
	})
}

func BenchmarkCCMergeExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := experiments.RunCCMerge(benchCfg())
		b.ReportMetric(e.Rows[0].MergeNS/e.Rows[0].CoalescedNS, "merge-vs-coalesced")
	}
}

func BenchmarkEulerTour(b *testing.B) {
	cfg := PaperCluster()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 4
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// A random spanning tree over 20k vertices.
	g := RandomGraph(20_000, 60_000, 3)
	sf := c.SpanningForest(g, OptimizedCC(2))
	forest := &Graph{N: g.N}
	for _, e := range sf.Edges {
		forest.U = append(forest.U, g.U[e])
		forest.V = append(forest.V, g.V[e])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EulerTour(forest, OptimizedCollectives(2))
	}
}

func BenchmarkOutOfCoreExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := experiments.RunOutOfCore(benchCfg())
		last := e.Rows[len(e.Rows)-1]
		best := last.SMPNS
		if last.ExternalNS < best {
			best = last.ExternalNS
		}
		b.ReportMetric(best/last.ClusterNS, "cluster-speedup")
	}
}

func BenchmarkKernelBCC(b *testing.B) {
	kernelBench(b, func(c *Cluster, g *Graph) {
		c.BiconnectedComponents(g, OptimizedCollectives(2))
	})
}

// BenchmarkAblationFusedPair compares two separate GetDs against the fused
// GetDPair at the thread count where the setup all-to-all matters.
func BenchmarkAblationFusedPair(b *testing.B) {
	for _, fused := range []bool{false, true} {
		name := "separate"
		if fused {
			name = "fused"
		}
		b.Run(name, func(b *testing.B) {
			cfg := PaperCluster()
			c, err := NewCluster(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rt := c.Runtime()
			n := int64(1 << 18)
			d1 := rt.NewSharedArray("D1", n)
			d2 := rt.NewSharedArray("D2", n)
			rng := xrand.New(1)
			idx := make([]int64, 1<<12)
			for j := range idx {
				idx[j] = rng.Int64n(n)
			}
			opts := collective.Optimized(2)
			var sim float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := rt.Run(func(th *pgas.Thread) {
					o1 := make([]int64, len(idx))
					o2 := make([]int64, len(idx))
					if fused {
						c.Comm().GetDPair(th, d1, d2, idx, o1, o2, opts, nil)
					} else {
						c.Comm().GetD(th, d1, idx, o1, opts, nil)
						c.Comm().GetD(th, d2, idx, o2, opts, nil)
					}
				})
				sim = res.SimMS()
			}
			b.ReportMetric(sim, "sim-ms")
		})
	}
}

func BenchmarkScalingExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := experiments.RunScaling(benchCfg())
		first, last := e.Rows[0], e.Rows[len(e.Rows)-1]
		b.ReportMetric(first.StrongNS/last.StrongNS, "strong-speedup")
	}
}

func BenchmarkKernelSSSP(b *testing.B) {
	wg := WithRandomWeights(RandomGraph(50_000, 200_000, 3), 4)
	cfg := PaperCluster()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 4
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SSSPDeltaStepping(wg, 0, 0, OptimizedCollectives(2))
	}
}

func BenchmarkKernelMIS(b *testing.B) {
	kernelBench(b, func(c *Cluster, g *Graph) {
		c.MISLuby(g, OptimizedCollectives(2))
	})
}

func BenchmarkKernelTriangles(b *testing.B) {
	kernelBench(b, func(c *Cluster, g *Graph) {
		c.TriangleCount(g, OptimizedCollectives(2))
	})
}
