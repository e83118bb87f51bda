// Package serve turns the kernel library into a long-lived graph service:
// a uniform name-dispatched kernel entry (KernelSpec → KernelResult), a
// Service that keeps kernel results resident in the PGAS cluster and
// answers batched point queries as coalesced bulk gathers, incremental
// connected components under edge insertions, and the length-prefixed
// frame protocol cmd/pgasd speaks over a unix socket. See docs/SERVING.md.
package serve

import (
	"sort"

	"pgasgraph/internal/bfs"
	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/euler"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/mst"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sssp"
)

// KernelSpec names one kernel run: which kernel, on which graph, with
// which options. It is the uniform dispatch currency shared by
// Cluster.Run, the Service, pgasd's wire protocol, and the spec-driven
// tables in cmd/pgasbench — one registry instead of per-tool switch
// statements.
type KernelSpec struct {
	// Kernel is the registry name (see Kernels): "cc/coalesced",
	// "bfs/coalesced", "sssp/delta-stepping", "mst/coalesced", ...
	Kernel string `json:"kernel"`
	// Graph is the input. The Service fills it with its resident graph;
	// direct Cluster.Run callers pass their own.
	Graph *graph.Graph `json:"-"`
	// Col configures the collectives; nil means collective.Defaults().
	Col *collective.Options `json:"col,omitempty"`
	// Compact enables edge compaction where the kernel supports it
	// (cc/*, mst/coalesced).
	Compact bool `json:"compact,omitempty"`
	// Src is the BFS/SSSP source vertex.
	Src int64 `json:"src,omitempty"`
	// Delta is the SSSP bucket width (<= 0 selects the kernel default).
	Delta int64 `json:"delta,omitempty"`
}

// KernelResult is the uniform outcome of a dispatched kernel run. Fields
// not produced by the kernel stay zero/nil; Run is always set.
type KernelResult struct {
	// Kernel echoes the spec's registry name.
	Kernel string
	// Labels is the canonical component labeling (cc/*, spanning-forest).
	Labels []int64
	// Components is the component count (cc/*, spanning-forest).
	Components int64
	// Dist holds per-vertex distances (bfs/*: hops, sssp/*: weighted);
	// unreached vertices hold bfs.Unreached / sssp.Unreached.
	Dist []int64
	// Parent is the per-vertex tree parent, -1 for roots
	// (spanning-forest, via the Euler tour).
	Parent []int64
	// Edges are chosen edge ids (mst/*, spanning-forest).
	Edges []int64
	// Weight is the forest weight (mst/*).
	Weight uint64
	// Iterations counts outer rounds (kernel-specific: grafts, Borůvka
	// rounds, BFS levels, SSSP buckets).
	Iterations int
	// Run carries the simulated-time accounting.
	Run *pgas.Result
}

// Sum is a deterministic content checksum over the result's payload
// arrays — what a remote caller compares against an offline oracle run
// without shipping million-entry arrays.
func (r *KernelResult) Sum() int64 {
	var s int64
	for _, v := range r.Labels {
		s += v
	}
	for _, v := range r.Dist {
		s += v & 0xffffffff // clamp Unreached sentinels into additive range
	}
	for _, v := range r.Parent {
		s += v
	}
	for _, v := range r.Edges {
		s += v
	}
	return s + int64(r.Weight) + r.Components
}

// kernelEntry is one registry row.
type kernelEntry struct {
	name     string
	weighted bool // requires edge weights
	// racy marks kernels that perform a scheduling-dependent NUMBER of
	// runtime operations by design (benign arbitrary-CRCW races that
	// change iteration counts, not answers). The verify harness derives
	// its chaos-rotation exclusion from this flag — a new kernel declares
	// it here instead of being name-matched into a string list.
	racy bool
	run  func(rt *pgas.Runtime, comm *collective.Comm, spec *KernelSpec) *KernelResult
}

func ccResult(name string, res *cc.Result) *KernelResult {
	return &KernelResult{Kernel: name, Labels: res.Labels, Components: res.Components,
		Iterations: res.Iterations, Run: res.Run}
}

func ccOpts(spec *KernelSpec) *cc.Options {
	return &cc.Options{Col: spec.Col, Compact: spec.Compact}
}

// registry is the kernel dispatch table. Order is the presentation order
// of Kernels().
var registry = []kernelEntry{
	{"cc/coalesced", false, false, func(rt *pgas.Runtime, comm *collective.Comm, spec *KernelSpec) *KernelResult {
		return ccResult(spec.Kernel, cc.Coalesced(rt, comm, spec.Graph, ccOpts(spec)))
	}},
	{"cc/sv", false, false, func(rt *pgas.Runtime, comm *collective.Comm, spec *KernelSpec) *KernelResult {
		return ccResult(spec.Kernel, cc.SV(rt, comm, spec.Graph, ccOpts(spec)))
	}},
	{"cc/fastsv", false, false, func(rt *pgas.Runtime, comm *collective.Comm, spec *KernelSpec) *KernelResult {
		return ccResult(spec.Kernel, cc.FastSV(rt, comm, spec.Graph, ccOpts(spec)))
	}},
	{"cc/lt-prs", false, false, func(rt *pgas.Runtime, comm *collective.Comm, spec *KernelSpec) *KernelResult {
		return ccResult(spec.Kernel, cc.LiuTarjan(rt, comm, spec.Graph, cc.LTPRS, ccOpts(spec)))
	}},
	{"cc/lt-pus", false, false, func(rt *pgas.Runtime, comm *collective.Comm, spec *KernelSpec) *KernelResult {
		return ccResult(spec.Kernel, cc.LiuTarjan(rt, comm, spec.Graph, cc.LTPUS, ccOpts(spec)))
	}},
	{"cc/lt-ers", false, false, func(rt *pgas.Runtime, comm *collective.Comm, spec *KernelSpec) *KernelResult {
		return ccResult(spec.Kernel, cc.LiuTarjan(rt, comm, spec.Graph, cc.LTERS, ccOpts(spec)))
	}},
	// cc/naive's graft test re-reads labels mid-phase while peers PutMin
	// them, so its iteration count is scheduling-dependent: racy.
	{"cc/naive", false, true, func(rt *pgas.Runtime, comm *collective.Comm, spec *KernelSpec) *KernelResult {
		return ccResult(spec.Kernel, cc.Naive(rt, spec.Graph))
	}},
	{"cc/merge-cgm", false, false, func(rt *pgas.Runtime, comm *collective.Comm, spec *KernelSpec) *KernelResult {
		return ccResult(spec.Kernel, cc.MergeCGM(rt, spec.Graph))
	}},
	{"spanning-forest", false, false, func(rt *pgas.Runtime, comm *collective.Comm, spec *KernelSpec) *KernelResult {
		sf := cc.SpanningTree(rt, comm, spec.Graph, ccOpts(spec))
		forest := forestGraph(spec.Graph, sf.Edges)
		tour := euler.Tour(rt, comm, forest, spec.Col)
		res := ccResult(spec.Kernel, sf.CC)
		res.Parent = tour.Parent
		res.Edges = sf.Edges
		res.Run = sf.Run
		return res
	}},
	{"bfs/coalesced", false, false, func(rt *pgas.Runtime, comm *collective.Comm, spec *KernelSpec) *KernelResult {
		r := bfs.Coalesced(rt, comm, spec.Graph, spec.Src, spec.Col)
		return &KernelResult{Kernel: spec.Kernel, Dist: r.Dist, Iterations: r.Levels, Run: r.Run}
	}},
	{"bfs/naive", false, false, func(rt *pgas.Runtime, comm *collective.Comm, spec *KernelSpec) *KernelResult {
		r := bfs.Naive(rt, spec.Graph, spec.Src)
		return &KernelResult{Kernel: spec.Kernel, Dist: r.Dist, Iterations: r.Levels, Run: r.Run}
	}},
	{"sssp/delta-stepping", true, false, func(rt *pgas.Runtime, comm *collective.Comm, spec *KernelSpec) *KernelResult {
		r := sssp.DeltaStepping(rt, comm, spec.Graph, spec.Src, spec.Delta, spec.Col)
		return &KernelResult{Kernel: spec.Kernel, Dist: r.Dist, Iterations: r.Buckets, Run: r.Run}
	}},
	{"mst/coalesced", true, false, func(rt *pgas.Runtime, comm *collective.Comm, spec *KernelSpec) *KernelResult {
		r := mst.Coalesced(rt, comm, spec.Graph, &mst.Options{Col: spec.Col, Compact: spec.Compact})
		return &KernelResult{Kernel: spec.Kernel, Edges: r.Edges, Weight: r.Weight,
			Iterations: r.Iterations, Run: r.Run}
	}},
	{"mst/naive", true, false, func(rt *pgas.Runtime, comm *collective.Comm, spec *KernelSpec) *KernelResult {
		r := mst.Naive(rt, spec.Graph)
		return &KernelResult{Kernel: spec.Kernel, Edges: r.Edges, Weight: r.Weight,
			Iterations: r.Iterations, Run: r.Run}
	}},
}

// RacyOps reports whether the named kernel performs a scheduling-
// dependent number of runtime operations by design (see kernelEntry.racy).
// Consumers that need a deterministic per-thread operation stream — the
// chaos soak's bit-for-bit fault-schedule replay — must skip such
// kernels. Unknown names report false.
func RacyOps(name string) bool {
	for i := range registry {
		if registry[i].name == name {
			return registry[i].racy
		}
	}
	return false
}

// Kernels returns the registry names in presentation order.
func Kernels() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// lookup finds a registry row by name; misses are reported with the full
// sorted name list so a typo is self-correcting.
func lookup(name string) (*kernelEntry, error) {
	for i := range registry {
		if registry[i].name == name {
			return &registry[i], nil
		}
	}
	known := Kernels()
	sort.Strings(known)
	return nil, pgas.Errorf(pgas.ErrMisuse, -1, "serve.run",
		"unknown kernel %q (known: %v)", name, known)
}

// RunKernel validates spec and dispatches it on the given cluster.
// Misconfiguration — unknown kernel name, nil or invalid graph, invalid
// options, a weighted kernel on an unweighted graph, a source out of
// range — returns a classified pgas.ErrMisuse; classified runtime
// failures (chaos faults, evictions) come back as their own classes.
// Kernel bugs still panic.
func RunKernel(rt *pgas.Runtime, comm *collective.Comm, spec KernelSpec) (res *KernelResult, err error) {
	entry, err := lookup(spec.Kernel)
	if err != nil {
		return nil, err
	}
	if spec.Graph == nil {
		return nil, pgas.Errorf(pgas.ErrMisuse, -1, "serve.run", "%s: nil graph", spec.Kernel)
	}
	if err := spec.Graph.Validate(); err != nil {
		return nil, pgas.Errorf(pgas.ErrMisuse, -1, "serve.run", "%s: %v", spec.Kernel, err)
	}
	if entry.weighted && !spec.Graph.Weighted() {
		return nil, pgas.Errorf(pgas.ErrMisuse, -1, "serve.run",
			"%s needs edge weights; the loaded graph has none", spec.Kernel)
	}
	if spec.Src < 0 || spec.Src >= spec.Graph.N {
		return nil, pgas.Errorf(pgas.ErrMisuse, -1, "serve.run",
			"%s: source %d out of range [0,%d)", spec.Kernel, spec.Src, spec.Graph.N)
	}
	// Validate the sanitized form: the kernels themselves accept
	// VirtualThreads 0 as "disabled" (Sanitize maps it to 1), so dispatch
	// must not be stricter than the kernels it fronts.
	if err := collective.Sanitize(spec.Col, true).Validate(); err != nil {
		return nil, pgas.Errorf(pgas.ErrMisuse, -1, "serve.run", "%s: %v", spec.Kernel, err)
	}
	defer pgas.Recover(&err)
	return entry.run(rt, comm, &spec), nil
}

// forestGraph materializes chosen edge ids as a graph on g's vertex set
// (the shape euler.Tour consumes).
func forestGraph(g *graph.Graph, edges []int64) *graph.Graph {
	f := &graph.Graph{N: g.N, U: make([]int32, len(edges)), V: make([]int32, len(edges))}
	for i, e := range edges {
		f.U[i], f.V[i] = g.U[e], g.V[e]
	}
	return f
}
