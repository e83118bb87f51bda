// Package pgasgraph is a Go reproduction of "Fast PGAS Implementation of
// Distributed Graph Algorithms" (Cong, Almasi, Saraswat — SC 2010): PRAM
// connected-components and minimum-spanning-forest kernels mapped onto a
// PGAS runtime, rewritten with locality-optimized collectives (GetD, SetD,
// SetDMin) and the paper's full optimization suite (access scheduling with
// virtual threads, communication coalescing, compact, offload, circular,
// localcpy, id, RDMA).
//
// The paper's UPC runtime and 16-node SMP cluster are substituted by an
// in-process PGAS runtime whose threads are goroutines and whose execution
// time is simulated through a calibrated machine model — data movement and
// results are real and verified; timings reproduce the paper's relative
// shapes, not its absolute numbers. See DESIGN.md.
//
// Basic use:
//
//	cluster, err := pgasgraph.NewCluster(pgasgraph.PaperCluster())
//	g := pgasgraph.RandomGraph(1_000_000, 4_000_000, 42)
//	res, err := cluster.Run(pgasgraph.KernelSpec{
//	    Kernel: "cc/coalesced", Graph: g,
//	    Col: pgasgraph.OptimizedCollectives(8), Compact: true,
//	})
//	fmt.Println(res.Components, res.Run.SimMS())
package pgasgraph

import (
	"pgasgraph/internal/bcc"
	"pgasgraph/internal/bfs"
	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/euler"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/listrank"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/mis"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/sssp"
	"pgasgraph/internal/triangle"
)

// Core re-exported types. The aliases make the internal packages' types
// part of the public surface without duplicating them.
type (
	// Graph is an undirected graph in edge-list form.
	Graph = graph.Graph
	// CSR is a compressed-sparse-row adjacency view.
	CSR = graph.CSR
	// MachineConfig describes the modeled cluster hardware.
	MachineConfig = machine.Config
	// CollectiveOptions selects the paper's collective optimizations.
	CollectiveOptions = collective.Options
	// CCOptions configures the connected-components kernels.
	CCOptions = cc.Options
	// MSF is a sequential minimum-spanning-forest result.
	MSF = seq.MSF
	// RunStats carries a run's simulated-time accounting.
	RunStats = pgas.Result
	// Breakdown is simulated time per execution category.
	Breakdown = sim.Breakdown
	// PartitionSpec selects how shared-array elements map onto threads.
	PartitionSpec = pgas.PartitionSpec
	// SchemeKind names a partition scheme.
	SchemeKind = pgas.SchemeKind
)

// Partition schemes selectable through PartitionSpec.
const (
	// SchemeBlock is the paper's blocked distribution (the default).
	SchemeBlock = pgas.SchemeBlock
	// SchemeCyclic deals elements round-robin over the threads.
	SchemeCyclic = pgas.SchemeCyclic
	// SchemeHub spreads listed hub elements round-robin and
	// block-distributes the tail.
	SchemeHub = pgas.SchemeHub
)

// Machine presets.

// PaperCluster models the paper's platform: 16 IBM P575+ nodes (16 CPUs
// each) on a 2 GB/s switch.
func PaperCluster() MachineConfig { return machine.PaperCluster() }

// SingleSMP models one 16-processor node (the paper's SMP baselines).
func SingleSMP() MachineConfig { return machine.SingleSMP() }

// SequentialMachine models a single thread (the sequential baselines).
func SequentialMachine() MachineConfig { return machine.Sequential() }

// ModernCluster is a present-day calibration of the same model.
func ModernCluster() MachineConfig { return machine.ModernCluster() }

// Graph constructors.

// RandomGraph returns a uniform random simple graph (n vertices, m edges).
func RandomGraph(n, m int64, seed uint64) *Graph { return graph.Random(n, m, seed) }

// HybridGraph returns the paper's hybrid random/scale-free graph: a
// preferential-attachment kernel on 2*sqrt(n) vertices plus random fill.
func HybridGraph(n, m int64, seed uint64) *Graph { return graph.Hybrid(n, m, seed) }

// RMATGraph returns an RMAT (Kronecker) graph on 2^scale vertices.
func RMATGraph(scale int, m int64, a, b, c, d float64, seed uint64) *Graph {
	return graph.RMAT(scale, m, a, b, c, d, seed)
}

// WithRandomWeights returns a copy of g with uniform random edge weights.
func WithRandomWeights(g *Graph, seed uint64) *Graph { return graph.WithRandomWeights(g, seed) }

// PermuteVertices relabels g's vertices by a random permutation.
func PermuteVertices(g *Graph, seed uint64) *Graph { return graph.PermuteVertices(g, seed) }

// Collective option presets. Every kernel method on Cluster accepts nil
// options, which select the matching Defaults(); passing Defaults()
// explicitly produces identical results (tested by TestNilOptionsMatchDefaults).

// OptimizedCollectives returns the paper's fully optimized collective
// configuration with t' virtual threads.
func OptimizedCollectives(virtualThreads int) *CollectiveOptions {
	return collective.Optimized(virtualThreads)
}

// BaseCollectives returns the unoptimized (coalescing-only) configuration.
// VirtualThreads is 1 (the canonical "no cache blocking" spelling that
// (*CollectiveOptions).Validate accepts).
func BaseCollectives() *CollectiveOptions { return collective.Base() }

// DefaultCollectives returns the configuration used when a kernel is
// called with nil *CollectiveOptions. Currently the base configuration.
func DefaultCollectives() *CollectiveOptions { return collective.Defaults() }

// DefaultCC returns the configuration used when a CC kernel is called
// with nil *CCOptions: default collectives, no compaction.
func DefaultCC() *CCOptions { return cc.Defaults() }

// OptimizedCC returns fully optimized CC options (all collective
// optimizations plus compact) with t' virtual threads.
func OptimizedCC(virtualThreads int) *CCOptions {
	return &CCOptions{Col: collective.Optimized(virtualThreads), Compact: true}
}

// Cluster is a handle to one simulated PGAS machine. It owns the runtime
// and the collective communication state; create it once and run any
// number of kernels on it.
type Cluster struct {
	rt   *pgas.Runtime
	comm *collective.Comm
}

// NewCluster validates cfg and builds a cluster. Geometry the collective
// layer cannot serve (more than MaxCollectiveThreads total threads) is
// reported as an error here rather than a panic deep in the internals.
func NewCluster(cfg MachineConfig) (*Cluster, error) {
	if err := collective.ValidateGeometry(cfg.Nodes * cfg.ThreadsPerNode); err != nil {
		return nil, err
	}
	rt, err := pgas.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{rt: rt, comm: collective.NewComm(rt)}, nil
}

// MaxCollectiveThreads is the largest total thread count (nodes ×
// threads-per-node) the collectives' packed sort keys support; NewCluster
// rejects configurations beyond it.
const MaxCollectiveThreads = collective.MaxThreads

// Config returns the cluster's machine configuration.
func (c *Cluster) Config() MachineConfig { return c.rt.Config() }

// Threads returns the total thread count.
func (c *Cluster) Threads() int { return c.rt.NumThreads() }

// Runtime exposes the underlying PGAS runtime for advanced use (custom
// kernels over shared arrays and collectives).
func (c *Cluster) Runtime() *pgas.Runtime { return c.rt }

// Comm exposes the underlying collective state for advanced use.
func (c *Cluster) Comm() *collective.Comm { return c.comm }

// SetPartition installs the default partition scheme for every shared
// array the cluster's kernels allocate from now on: block (the paper's
// distribution and the default), cyclic, or hub-aware placement of
// high-degree vertices (see Hubs). Kernel answers are
// partition-independent; what changes is which thread serves each
// element, and hence the simulated-time profile on skewed graphs.
func (c *Cluster) SetPartition(spec PartitionSpec) error { return c.rt.SetPartition(spec) }

// Hubs returns up to max highest-degree vertices of g (degree-descending,
// deterministic) — the natural hub list for a SchemeHub PartitionSpec.
func Hubs(g *Graph, max int) []int64 { return graph.Hubs(g, max) }

// Typed kernel methods. Kernels whose answer fits a KernelResult — the CC
// family, the minimum spanning forest, BFS — run through Cluster.Run by
// registry name (see Kernels); the methods below return results a
// KernelResult cannot carry. Every one accepts nil options ≡ the matching
// Defaults(), and every result type exposes a `Run RunStats` field with
// the run's simulated-time accounting.

// SpanningForest runs the spanning-forest variant of coalesced CC (the
// paper's "closely related spanning tree problem", §V): the SetDMin
// election records which edge won each hook, so the forest falls out of
// the same collective traffic. opts may be nil for defaults.
func (c *Cluster) SpanningForest(g *Graph, opts *CCOptions) *SpanningForestResult {
	return cc.SpanningTree(c.rt, c.comm, g, opts)
}

// ListRankWyllie runs Wyllie pointer-jumping list ranking with coalesced
// collectives (see the listrank experiment for the §I-§II context). opts
// may be nil for defaults.
func (c *Cluster) ListRankWyllie(l *List, opts *CollectiveOptions) *ListRankResult {
	return listrank.Wyllie(c.rt, c.comm, l, opts)
}

// ListRankCGM runs the communication-efficient (contraction-based) list
// ranking the paper's §II surveys. opts may be nil for defaults.
func (c *Cluster) ListRankCGM(l *List, opts *CollectiveOptions) *ListRankResult {
	return listrank.CGM(c.rt, c.comm, l, opts)
}

// SSSPDeltaStepping runs distributed delta-stepping single-source
// shortest paths from src. delta <= 0 selects the classic default bucket
// width. opts may be nil for defaults.
func (c *Cluster) SSSPDeltaStepping(g *Graph, src, delta int64, opts *CollectiveOptions) *SSSPResult {
	return sssp.DeltaStepping(c.rt, c.comm, g, src, delta, opts)
}

// SequentialDijkstra returns weighted distances via binary-heap Dijkstra.
func SequentialDijkstra(g *Graph, src int64) []int64 { return sssp.SeqDijkstra(g, src) }

// MISLuby runs distributed Luby's maximal-independent-set algorithm.
// opts may be nil for defaults.
func (c *Cluster) MISLuby(g *Graph, opts *CollectiveOptions) *MISResult {
	return mis.Luby(c.rt, c.comm, g, opts)
}

// CheckMIS verifies a maximal-independent-set certificate directly against
// the definition (independence and maximality).
func CheckMIS(g *Graph, inSet []bool) error { return mis.Check(g, inSet) }

// Bipartite tests every component for two-colorability via the bipartite
// double cover (one distributed CC over 2n vertices). opts may be nil
// for defaults.
func (c *Cluster) Bipartite(g *Graph, opts *CCOptions) *BipartiteResult {
	return cc.Bipartite(c.rt, c.comm, g, opts)
}

// TriangleCount counts the graph's triangles with the distributed
// degree-ordered wedge kernel. opts may be nil for defaults.
func (c *Cluster) TriangleCount(g *Graph, opts *CollectiveOptions) *TriangleResult {
	return triangle.Count(c.rt, c.comm, g, opts)
}

// SequentialTriangles counts triangles sequentially (exact).
func SequentialTriangles(g *Graph) int64 { return triangle.SeqCount(g) }

// EulerTour computes rooted-forest statistics (parent, depth, preorder,
// subtree size) for a spanning forest via the Euler tour technique:
// distributed list ranking over the tour's arc chain. Composes with
// SpanningForest. opts may be nil for defaults.
func (c *Cluster) EulerTour(forest *Graph, opts *CollectiveOptions) *TreeStats {
	return euler.Tour(c.rt, c.comm, forest, opts)
}

// BiconnectedComponents runs distributed Tarjan-Vishkin: spanning forest,
// Euler tour, priority-write extrema, and CC on the auxiliary graph — the
// full PRAM pipeline over this library's collectives. opts may be nil
// for defaults.
func (c *Cluster) BiconnectedComponents(g *Graph, opts *CollectiveOptions) *BCCResult {
	return bcc.TarjanVishkin(c.rt, c.comm, g, opts)
}

// SequentialBCC computes the decomposition with Hopcroft-Tarjan.
func SequentialBCC(g *Graph) *SeqBCC { return seq.BiconnectedComponents(g) }

// Extension types.
type (
	// TreeStats are per-vertex rooted-forest statistics.
	TreeStats = euler.TreeStats
	// BCCResult is a distributed biconnected-components outcome.
	BCCResult = bcc.Result
	// SSSPResult is a shortest-paths outcome.
	SSSPResult = sssp.Result
	// MISResult is a maximal-independent-set outcome.
	MISResult = mis.Result
	// BipartiteResult is a two-colorability outcome.
	BipartiteResult = cc.BipartiteResult
	// TriangleResult is a triangle-counting outcome.
	TriangleResult = triangle.Result
	// SeqBCC is a sequential biconnected-components outcome.
	SeqBCC = seq.BCC
	// SpanningForestResult is a spanning-forest outcome.
	SpanningForestResult = cc.SpanningForest
	// List is a collection of disjoint linked chains.
	List = listrank.List
	// ListRankResult is a list-ranking outcome.
	ListRankResult = listrank.Result
)

// BFSUnreached marks vertices a BFS did not reach.
const BFSUnreached = bfs.Unreached

// SSSPUnreached marks vertices with no path from the source.
const SSSPUnreached = sssp.Unreached

// RandomChainList builds one random chain over n nodes.
func RandomChainList(n int64, seed uint64) *List { return listrank.RandomList(n, seed) }

// ChainsList builds k disjoint random chains over n nodes.
func ChainsList(n, k int64, seed uint64) *List { return listrank.Chains(n, k, seed) }

// SequentialListRank ranks a list with the sequential baseline.
func SequentialListRank(l *List) []int64 { return listrank.SeqRank(l) }

// SequentialBFS returns hop distances from src via textbook queue BFS.
func SequentialBFS(g *Graph, src int64) []int64 { return bfs.SeqDistances(g, src) }

// Sequential baselines.

// SequentialCC returns canonical component labels via union-find.
func SequentialCC(g *Graph) []int64 { return seq.CC(g) }

// SequentialCCTime returns labels plus the simulated time of the best
// sequential implementation on the given machine.
func SequentialCCTime(g *Graph, cfg MachineConfig) ([]int64, float64) {
	return seq.CCTimed(g, sim.NewModel(cfg))
}

// Kruskal returns the minimum spanning forest via sequential Kruskal with
// the cache-friendly merge sort (the paper's best sequential MST).
func Kruskal(g *Graph) *MSF { return seq.Kruskal(g) }

// KruskalTime returns the forest plus the simulated sequential time.
func KruskalTime(g *Graph, cfg MachineConfig) (*MSF, float64) {
	return seq.KruskalTimed(g, sim.NewModel(cfg))
}

// CountComponents returns the number of distinct labels in a labeling.
func CountComponents(labels []int64) int64 { return seq.CountComponents(labels) }

// SamePartition reports whether two labelings induce the same partition.
func SamePartition(a, b []int64) bool { return seq.SamePartition(a, b) }
