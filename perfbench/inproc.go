package main

import (
	"fmt"
	"strings"
	"time"

	"pgasgraph"
	"pgasgraph/internal/bfs"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/serve"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/xrand"
)

// inprocWorkload is paper-inproc: the paper's batch setting on the
// in-process fabric. Each pass runs cc/coalesced, cc/fastsv,
// mst/coalesced and bfs/coalesced on one hybrid graph through
// Cluster.Run, with the paper's optimized collectives and compaction.
type inprocWorkload struct {
	cfg     *config
	g, gw   *graph.Graph
	src     int64
	cluster *pgasgraph.Cluster
	specs   []serve.KernelSpec
	results []*serve.KernelResult
	errs    []error

	wantLabels []int64
	wantComps  int64
	wantWeight uint64
	wantDist   []int64
}

// graphSeeds derives the generator seeds of a run from its seed.
func graphSeeds(seed uint64) (graphSeed, weightSeed uint64, r *xrand.Rand) {
	r = xrand.New(seed)
	return r.Uint64(), r.Uint64(), r
}

// kernelKey names a registry kernel in metric names.
func kernelKey(name string) string { return strings.ReplaceAll(name, "/", "-") }

func (w *inprocWorkload) setup(rec *recorder, t *tracer) error {
	n, m := int64(1)<<18, int64(1)<<20
	if w.cfg.small {
		n, m = 1<<10, 1<<12
	}
	gs, ws, r := graphSeeds(w.cfg.seed)
	start := time.Now()
	w.g = graph.Hybrid(n, m, gs)
	w.gw = graph.WithRandomWeights(w.g, ws)
	rec.add("graph.gen_ms", ms(time.Since(start)))
	w.src = r.Int64n(n)
	c, err := pgasgraph.NewCluster(machineConfig())
	if err != nil {
		return err
	}
	w.cluster = c
	if t != nil {
		c.Comm().SetTracer(t)
	}
	c.Comm().InjectFault(w.cfg.fault)
	col := collective.Optimized(4)
	w.specs = []serve.KernelSpec{
		{Kernel: "cc/coalesced", Graph: w.g, Col: col, Compact: true},
		{Kernel: "cc/fastsv", Graph: w.g, Col: col, Compact: true},
		{Kernel: "mst/coalesced", Graph: w.gw, Col: col, Compact: true},
		{Kernel: "bfs/coalesced", Graph: w.g, Col: col, Src: w.src},
	}
	return nil
}

func (w *inprocWorkload) oracle(rec *recorder) error {
	w.wantLabels = seq.CC(w.g)
	w.wantComps = seq.CountComponents(w.wantLabels)
	w.wantWeight = seq.Kruskal(w.gw).Weight
	w.wantDist = bfs.SeqDistances(w.g, w.src)
	sampleCSR(rec, w.g)
	return nil
}

// sampleCSR times graph.BuildCSR on g three times (graph.csr_ms), the
// CSR build bfs/coalesced repeats on every call.
func sampleCSR(rec *recorder, g *graph.Graph) {
	for i := 0; i < 3; i++ {
		start := time.Now()
		graph.BuildCSR(g)
		rec.samples["graph.csr_ms"] = append(rec.samples["graph.csr_ms"], ms(time.Since(start)))
	}
}

// callKernel times one kernel call, turning a panic into an error.
func callKernel(run func() (*serve.KernelResult, error)) (res *serve.KernelResult, d time.Duration, err error) {
	start := time.Now()
	defer func() {
		d = time.Since(start)
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("kernel panicked: %v", p)
		}
	}()
	res, err = run()
	return res, d, err
}

// recordKernel records one kernel call's per-layer figures.
func recordKernel(rec *recorder, name string, call time.Duration, res *serve.KernelResult) {
	k := "kernel." + kernelKey(name)
	rec.add(k+".call_ms", ms(call))
	rec.add(k+".region_ms", ms(res.Run.Wall))
	rec.add(k+".host_ms", ms(call-res.Run.Wall))
	rec.setExact(k+".iters", float64(res.Iterations))
	rec.setExact(k+".sim_ms", res.Run.SimMS())
}

// passTotals sums the runtime counters of a pass's regions.
type passTotals struct {
	simMS                     float64
	messages, bytes, remoteOp int64
	cats                      sim.Breakdown
	threads                   int
}

func (p *passTotals) add(r *pgas.Result) {
	p.messages += r.Messages
	p.bytes += r.Bytes
	p.remoteOp += r.RemoteOps
	p.cats.Add(&r.SumByCategory)
}

// record reports the pass's exact runtime counters; categories are
// per-thread averages.
func (p *passTotals) record(rec *recorder) {
	rec.add("sim_ms", p.simMS)
	rec.setExact("pgas.messages", float64(p.messages))
	rec.setExact("pgas.bytes", float64(p.bytes))
	rec.setExact("pgas.remote_ops", float64(p.remoteOp))
	for i, c := range simCats {
		rec.setExact("pgas.sim."+c+"_ms", p.cats[i]/float64(p.threads)/1e6)
	}
}

func (w *inprocWorkload) pass(rec *recorder, t *tracer, passSpan int64) error {
	w.results, w.errs = w.results[:0], w.errs[:0]
	tot := passTotals{threads: int(threadCount())}
	for _, spec := range w.specs {
		var end func()
		if t != nil {
			_, end = t.begin(layerCall, spec.Kernel, passSpan)
		}
		res, d, err := callKernel(func() (*serve.KernelResult, error) { return w.cluster.Run(spec) })
		if end != nil {
			end()
		}
		w.results = append(w.results, res)
		w.errs = append(w.errs, err)
		if err != nil {
			continue
		}
		recordKernel(rec, spec.Kernel, d, res)
		tot.simMS += res.Run.SimMS()
		tot.add(res.Run)
	}
	tot.record(rec)
	return nil
}

func (w *inprocWorkload) check(rec *recorder) {
	for i, res := range w.results {
		err := w.errs[i]
		if err == nil {
			err = w.verify(w.specs[i].Kernel, res)
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", w.specs[i].Kernel, err)
		}
		rec.op(err)
	}
}

func (w *inprocWorkload) verify(kernel string, res *serve.KernelResult) error {
	switch kernel {
	case "cc/coalesced", "cc/fastsv":
		if res.Components != w.wantComps || !samePartition(res.Labels, w.wantLabels) {
			return fmt.Errorf("labels differ from union-find (%d components, want %d)", res.Components, w.wantComps)
		}
	case "mst/coalesced":
		if res.Weight != w.wantWeight {
			return fmt.Errorf("forest weight %d, Kruskal says %d", res.Weight, w.wantWeight)
		}
	case "bfs/coalesced":
		if !equal(res.Dist, w.wantDist) {
			return fmt.Errorf("distances differ from sequential BFS")
		}
	}
	return nil
}

// samePartition compares a labeling with the oracle's, taking the
// element-wise fast path when both use the same canonical labels.
func samePartition(got, want []int64) bool {
	return equal(got, want) || seq.SamePartition(got, want)
}

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (w *inprocWorkload) report(rec *recorder, t *tracer, s *sheet) {
	reportKernels(rec, t, s)
	cc, _ := s.get("kernel.cc-coalesced.call_ms")
	s.set("op_p50_ms", cc.value, "ms", cc.samples)
}

// reportKernels reports the figures the kernel workloads share.
func reportKernels(rec *recorder, t *tracer, s *sheet) {
	s.setMedian("wall_s", rec.samples["wall_s"], "s")
	s.setMedian("sim_ms", rec.samples["sim_ms"], "ms")
	s.setMedian("graph.gen_ms", rec.samples["graph.gen_ms"], "ms")
	s.setMedian("graph.csr_ms", rec.samples["graph.csr_ms"], "ms")
	for _, k := range kernelKeys {
		for _, f := range []string{"call_ms", "region_ms", "host_ms"} {
			s.setMedian("kernel."+k+"."+f, rec.samples["kernel."+k+"."+f], "ms")
		}
	}
	for short, k := range map[string]string{"cc_ms": "cc-coalesced", "msf_ms": "mst-coalesced", "bfs_ms": "bfs-coalesced"} {
		s.setMedian(short, rec.samples["kernel."+k+".call_ms"], "ms")
	}
	copyExact(rec, s)
	if t != nil {
		var region float64
		for _, k := range kernelKeys {
			region += sum(rec.samples["kernel."+k+".region_ms"])
		}
		threads := threadCount()
		if region > 0 {
			s.set("collective.share", float64(rec.tc.collWallNS())/threads/1e6/region, "ratio", 1)
		}
	}
}

func (w *inprocWorkload) close() {}
