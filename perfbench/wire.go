package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"pgasgraph"
	"pgasgraph/internal/bfs"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/pgas/wiretransport"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/serve"
)

// wireTimeout bounds every blocking wire operation, so a node that
// stops answering fails the run instead of hanging it.
const wireTimeout = 60 * time.Second

// wirePassesPerSecond fixes wire-longlived's timed pass count at
// -seconds × wirePassesPerSecond. A pass costs more the longer the
// cluster lives (wire.cc_drift), so a phase that ran until its time was
// up would reach later, slower passes on a faster host or a faster
// commit; a fixed count measures the same run indices every time. At
// -seconds 25 the 75 passes take about 25 s on a 2-vCPU x86-64 host.
const wirePassesPerSecond = 3

// wireWorkload is wire-longlived: one 2-node unix-socket cluster, hosted
// in this process, lives through the whole timed phase and runs
// cc/coalesced, bfs/coalesced and mst/coalesced round-robin on a small
// uniform random graph, so per-region wire costs outweigh compute.
type wireWorkload struct {
	cfg   *config
	g, gw *graph.Graph
	src   int64
	dir   string
	nodes []*wireNode
	specs []serve.KernelSpec
	ref   []refResult // in-process answer per spec
	calls []wireCall  // the last pass's outcomes
	dead  error       // first failed call: the cluster is poisoned after it
}

// refResult is the in-process run a wire run must reproduce exactly.
type refResult struct {
	sum   int64
	simNS float64
}

type wireCall struct {
	res []*serve.KernelResult // per node
	err error
}

// wireNode is one SPMD replica: it runs every spec sent on cmds and
// answers on replies, until cmds closes.
type wireNode struct {
	tr      pgas.Transport
	rt      *pgas.Runtime
	comm    *collective.Comm
	cmds    chan serve.KernelSpec
	replies chan nodeReply
	done    chan struct{}
}

type nodeReply struct {
	res  *serve.KernelResult
	call time.Duration
	err  error
}

func (n *wireNode) loop() {
	defer close(n.done)
	for spec := range n.cmds {
		res, d, err := callKernel(func() (*serve.KernelResult, error) { return serve.RunKernel(n.rt, n.comm, spec) })
		n.replies <- nodeReply{res: res, call: d, err: err}
	}
}

func (w *wireWorkload) setup(rec *recorder, t *tracer) error {
	n, m := int64(1)<<14, int64(1)<<16
	if w.cfg.small {
		n, m = 1<<9, 1<<11
	}
	gs, ws, r := graphSeeds(w.cfg.seed)
	start := time.Now()
	w.g = graph.Random(n, m, gs)
	w.gw = graph.WithRandomWeights(w.g, ws)
	rec.add("graph.gen_ms", ms(time.Since(start)))
	w.src = r.Int64n(n)
	w.specs = []serve.KernelSpec{
		{Kernel: "cc/coalesced", Graph: w.g, Compact: true},
		{Kernel: "bfs/coalesced", Graph: w.g, Src: w.src},
		{Kernel: "mst/coalesced", Graph: w.gw, Compact: true},
	}
	// A directory under the relative output directory keeps socket paths
	// short wherever the checkout lives.
	dir, err := os.MkdirTemp(w.cfg.dir, "wire-")
	if err != nil {
		return err
	}
	w.dir = dir
	return w.connect(t)
}

// connect assembles the mesh: every node dials and accepts concurrently,
// then builds its runtime replica on the (optionally counting) transport.
func (w *wireWorkload) connect(t *tracer) error {
	cfg := machineConfig()
	w.nodes = make([]*wireNode, cfg.Nodes)
	errs := make([]error, cfg.Nodes)
	var wg sync.WaitGroup
	for nd := range w.nodes {
		wg.Add(1)
		go func(nd int) {
			defer wg.Done()
			tr, err := wiretransport.Connect(wiretransport.Config{
				Nodes: cfg.Nodes, Node: nd, ThreadsPerNode: cfg.ThreadsPerNode, Dir: w.dir, Timeout: wireTimeout,
			})
			if err != nil {
				errs[nd] = err
				return
			}
			node := &wireNode{tr: tr, cmds: make(chan serve.KernelSpec), replies: make(chan nodeReply), done: make(chan struct{})}
			var under pgas.Transport = tr
			if t != nil {
				under = &countingTransport{Transport: tr, tpn: tr.ThreadsPerNode(), t: t}
			}
			if node.rt, err = pgas.NewOnTransport(cfg, under); err != nil {
				tr.Close()
				errs[nd] = err
				return
			}
			node.comm = collective.NewComm(node.rt)
			if t != nil {
				node.comm.SetTracer(t)
			}
			node.comm.InjectFault(w.cfg.fault)
			w.nodes[nd] = node
		}(nd)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, node := range w.nodes {
			if node != nil {
				node.tr.Close()
			}
		}
		w.nodes = nil
		return err
	}
	for _, node := range w.nodes {
		go node.loop()
	}
	return nil
}

// oracle runs every spec once on an in-process cluster of the same
// geometry, checks it against the sequential oracles, and keeps its
// checksum and simulated time as the reference every wire run must hit.
func (w *wireWorkload) oracle(rec *recorder) error {
	c, err := pgasgraph.NewCluster(machineConfig())
	if err != nil {
		return err
	}
	labels := seq.CC(w.g)
	w.ref = w.ref[:0]
	for _, spec := range w.specs {
		res, err := c.Run(spec)
		if err != nil {
			return fmt.Errorf("in-process %s: %w", spec.Kernel, err)
		}
		switch spec.Kernel {
		case "cc/coalesced":
			err = boolErr(samePartition(res.Labels, labels), "labels differ from union-find")
		case "bfs/coalesced":
			err = boolErr(equal(res.Dist, bfs.SeqDistances(w.g, w.src)), "distances differ from sequential BFS")
		case "mst/coalesced":
			err = boolErr(res.Weight == seq.Kruskal(w.gw).Weight, "forest weight differs from Kruskal")
		}
		if err != nil {
			return fmt.Errorf("in-process %s: %w", spec.Kernel, err)
		}
		w.ref = append(w.ref, refResult{sum: res.Sum(), simNS: res.Run.SimNS})
	}
	sampleCSR(rec, w.g)
	return nil
}

func boolErr(ok bool, msg string) error {
	if ok {
		return nil
	}
	return errors.New(msg)
}

// call runs spec on every node (the SPMD discipline: all replicas issue
// the same call) and waits for all of them.
func (w *wireWorkload) call(spec serve.KernelSpec) ([]nodeReply, error) {
	for _, n := range w.nodes {
		n.cmds <- spec
	}
	out := make([]nodeReply, len(w.nodes))
	var errs []error
	for i, n := range w.nodes {
		out[i] = <-n.replies
		if out[i].err != nil {
			errs = append(errs, fmt.Errorf("node %d: %w", i, out[i].err))
		}
	}
	return out, errors.Join(errs...)
}

func (w *wireWorkload) pass(rec *recorder, t *tracer, passSpan int64) error {
	w.calls = w.calls[:0]
	if w.dead != nil {
		return errStop
	}
	tot := passTotals{threads: int(threadCount())}
	for _, spec := range w.specs {
		var end func()
		if t != nil {
			_, end = t.begin(layerCall, spec.Kernel, passSpan)
		}
		replies, err := w.call(spec)
		if end != nil {
			end()
		}
		c := wireCall{err: err}
		if err != nil {
			// A failed wire region retires the cluster: stop the phase.
			w.dead = err
			w.calls = append(w.calls, c)
			break
		}
		for _, r := range replies {
			c.res = append(c.res, r.res)
			tot.add(r.res.Run)
		}
		w.calls = append(w.calls, c)
		// Node 0 drives the load; its call time is the user's view.
		recordKernel(rec, spec.Kernel, replies[0].call, replies[0].res)
		tot.simMS += replies[0].res.Run.SimMS()
	}
	tot.record(rec)
	return nil
}

// check compares every replica's answer with the in-process run. Label
// and distance arrays are shared arrays, so each replica holds all of
// them; mst/coalesced's edge list is gathered per thread, so each
// replica returns the edges its own threads chose and the cluster's
// answer is the union — checked as the sum of the replicas' checksums.
func (w *wireWorkload) check(rec *recorder) {
	for i, c := range w.calls {
		err := c.err
		var total int64
		for nd, res := range c.res {
			if err != nil {
				break
			}
			total += res.Sum()
			if res.Run.SimNS != w.ref[i].simNS {
				err = fmt.Errorf("node %d simulated %v ns, in-process %v ns", nd, res.Run.SimNS, w.ref[i].simNS)
				break
			}
			if got, want := res.Sum(), w.ref[i].sum; got != want && w.specs[i].Kernel != "mst/coalesced" {
				err = fmt.Errorf("node %d checksum %d, in-process %d", nd, got, want)
			}
		}
		if err == nil && w.specs[i].Kernel == "mst/coalesced" && total != w.ref[i].sum {
			err = fmt.Errorf("replica checksums sum to %d, in-process %d", total, w.ref[i].sum)
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", w.specs[i].Kernel, err)
		}
		rec.op(err)
	}
}

func (w *wireWorkload) report(rec *recorder, t *tracer, s *sheet) {
	reportKernels(rec, t, s)
	cc, _ := s.get("kernel.cc-coalesced.call_ms")
	s.set("op_p50_ms", cc.value, "ms", cc.samples)
	// Drift: the median cc call of the last fifth of the timed runs
	// over that of the first fifth. The run count is fixed, so the
	// windows are fixed run indices (runs 0–14 against 60–74 at
	// -seconds 25).
	calls := rec.samples["kernel.cc-coalesced.call_ms"]
	if k := len(calls) / 5; k >= 1 {
		s.set("wire.cc_drift", median(calls[len(calls)-k:])/median(calls[:k]), "ratio", 2*k)
	}
}

func (w *wireWorkload) close() {
	var wg sync.WaitGroup
	for _, n := range w.nodes {
		if n == nil {
			continue
		}
		wg.Add(1)
		go func(n *wireNode) {
			defer wg.Done()
			close(n.cmds)
			<-n.done
			n.tr.Close()
		}(n)
	}
	wg.Wait()
	w.nodes = nil
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
