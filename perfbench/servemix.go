package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"pgasgraph/client"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/serve"
	"pgasgraph/internal/xrand"
)

// The serve-mix request mix: every block of blockLen requests is
// blockLen-1 query batches of batchLen lookups (half same-component,
// half component-size) and one insertion of insertLen random edges, all
// endpoints drawn uniformly.
//
// The mix is an assumption, not measured traffic: no recorded pgasd
// traffic exists to take it from. Only part of it has a source in the
// repository. batchLen is the batch size TestQueryBatchGathersAreBulk
// and docs/SERVING.md pin plan reuse on. Uniform endpoints and an even
// split over the label lookups follow the serve/query-batch and
// serve/incremental-cc verification checks. The 19:1 ratio of query
// batches to inserts and the 64-edge insert have no source. Revisit the
// mix once real pgasd traffic is recorded.
const (
	blockLen  = 20
	batchLen  = 128
	insertLen = 64
)

// serveWorkload is serve-mix: the pgasd serving path — a serve.Server
// built as cmd/pgasd builds it, on a unix socket, driven in a closed
// loop by one client connection. Reads and writes share the resident
// labels and plan caches, and every insertion invalidates the caches.
type serveWorkload struct {
	cfg    *config
	req    serve.LoadReq
	dir    string // holds the server's socket
	l      net.Listener
	served chan error
	cl     *client.Client
	simMS  float64 // the setup cc/coalesced run's simulated time
	comps  int64   // its component count
	rng    *xrand.Rand
	n      int64
	t      *tracer

	uf       *sizedUF
	reqKinds []byte // 'q' or 'i' per request sent, setup requests included
	reqSpans []int64
	block    []reply
}

// reply is one request of the last block, kept for check.
type reply struct {
	queries []serve.Query
	answers []int64
	edges   []serve.Edge
	comps   int64
	err     error
}

func (w *serveWorkload) setup(rec *recorder, t *tracer) error {
	w.n = int64(1) << 18
	m := int64(1) << 20
	if w.cfg.small {
		// Sparse enough for many components, so wrong answers show.
		w.n, m = 1<<10, 1<<9
	}
	gs, _, r := graphSeeds(w.cfg.seed)
	w.rng = r
	w.t = t
	w.req = serve.LoadReq{Family: "hybrid", N: w.n, M: m, Seed: gs}
	var err error
	if w.dir, err = os.MkdirTemp(w.cfg.dir, "pgasd-"); err != nil {
		return err
	}
	sock := filepath.Join(w.dir, "pgasd.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	if t != nil {
		l = &tracedListener{Listener: l, t: t}
	}
	w.l = l
	scfg := serve.Config{Machine: machineConfig(), Col: collective.Optimized(2)}
	srv := serve.NewServer(func(g *graph.Graph) (*serve.Service, error) {
		svc, err := serve.New(scfg, g)
		if err != nil {
			return nil, err
		}
		if t != nil {
			svc.Comm().SetTracer(t)
		}
		svc.Comm().InjectFault(w.cfg.fault)
		return svc, nil
	})
	w.served = make(chan error, 1)
	go func() { w.served <- srv.Serve(l) }()
	if w.cl, err = client.Dial(sock); err != nil {
		return err
	}
	if _, err := w.request('s', 0, func() error { _, err := w.cl.Load(w.req); return err }); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	var run *client.RunResp
	if _, err := w.request('s', 0, func() (err error) {
		run, err = w.cl.Run(client.KernelSpec{Kernel: "cc/coalesced"})
		return err
	}); err != nil {
		return fmt.Errorf("run cc/coalesced: %w", err)
	}
	w.simMS, w.comps = run.SimMS, run.Components
	return nil
}

// request sends one request, timing its round trip and opening a call
// span when traced.
func (w *serveWorkload) request(kind byte, passSpan int64, do func() error) (time.Duration, error) {
	var end func()
	if w.t != nil {
		var id int64
		id, end = w.t.begin(layerCall, "request", passSpan)
		w.reqSpans = append(w.reqSpans, id)
	}
	w.reqKinds = append(w.reqKinds, kind)
	start := time.Now()
	err := do()
	d := time.Since(start)
	if end != nil {
		end()
	}
	return d, err
}

// oracle generates the same graph host-side and builds the union-find
// the answers are checked against.
func (w *serveWorkload) oracle(rec *recorder) error {
	start := time.Now()
	g, err := serve.Generate(&w.req)
	if err != nil {
		return err
	}
	// The server generated the same graph inside its Load request;
	// generating it here times that step alone.
	rec.samples["graph.gen_ms"] = []float64{ms(time.Since(start))}
	sampleCSR(rec, g)
	w.uf = newSizedUF(g.N)
	for i := range g.U {
		w.uf.union(int64(g.U[i]), int64(g.V[i]))
	}
	if w.uf.sets != w.comps {
		rec.op(fmt.Errorf("cc/coalesced: %d components, union-find says %d", w.comps, w.uf.sets))
	}
	return nil
}

func (w *serveWorkload) pass(rec *recorder, t *tracer, passSpan int64) error {
	w.block = w.block[:0]
	for i := 0; i < blockLen; i++ {
		var sv reply
		var before int64
		if t != nil {
			before = t.snapshot().builds
		}
		if i < blockLen-1 {
			sv.queries = w.queryBatch()
			d, err := w.request('q', passSpan, func() (err error) {
				sv.answers, err = w.cl.Query(sv.queries)
				return err
			})
			sv.err = err
			rec.add("query_us", float64(d)/1e3)
			if t != nil {
				rec.add("query_builds", float64(t.snapshot().builds-before))
			}
		} else {
			sv.edges = w.edgeBatch()
			d, err := w.request('i', passSpan, func() error {
				resp, err := w.cl.Insert(sv.edges)
				if err == nil {
					sv.comps = resp.Components
					rec.add("insert_rounds", float64(resp.Rounds))
					rec.add("insert_incremental", float64(b2i(resp.Incremental)))
				}
				return err
			})
			sv.err = err
			rec.add("insert_ms", ms(d))
		}
		w.block = append(w.block, sv)
	}
	return nil
}

// queryBatch draws batchLen lookups over uniformly random vertices.
func (w *serveWorkload) queryBatch() []serve.Query {
	qs := make([]serve.Query, batchLen)
	for i := range qs {
		if i%2 == 0 {
			qs[i] = serve.Query{Op: serve.SameComponent, U: w.rng.Int64n(w.n), V: w.rng.Int64n(w.n)}
		} else {
			qs[i] = serve.Query{Op: serve.ComponentSize, U: w.rng.Int64n(w.n)}
		}
	}
	return qs
}

// edgeBatch draws insertLen random edges without self-loops.
func (w *serveWorkload) edgeBatch() []serve.Edge {
	es := make([]serve.Edge, insertLen)
	for i := range es {
		u := w.rng.Int64n(w.n)
		v := (u + 1 + w.rng.Int64n(w.n-1)) % w.n
		es[i] = serve.Edge{U: u, V: v}
	}
	return es
}

// check replays the block against the union-find: query answers see the
// graph before the block's insertion, the insertion's component count
// the graph after it.
func (w *serveWorkload) check(rec *recorder) {
	for _, sv := range w.block {
		err := sv.err
		if err == nil && sv.queries != nil {
			err = w.checkQueries(sv.queries, sv.answers)
		}
		if err == nil && sv.edges != nil {
			for _, e := range sv.edges {
				w.uf.union(e.U, e.V)
			}
			if sv.comps != w.uf.sets {
				err = fmt.Errorf("insert: %d components, union-find says %d", sv.comps, w.uf.sets)
			}
		}
		rec.op(err)
	}
}

func (w *serveWorkload) checkQueries(qs []serve.Query, ans []int64) error {
	if len(ans) != len(qs) {
		return fmt.Errorf("query: %d answers for %d lookups", len(ans), len(qs))
	}
	for i, q := range qs {
		var want int64
		switch q.Op {
		case serve.SameComponent:
			want = b2i(w.uf.find(q.U) == w.uf.find(q.V))
		case serve.ComponentSize:
			want = w.uf.size[w.uf.find(q.U)]
		}
		if ans[i] != want {
			return fmt.Errorf("query %d (%s %d %d): answer %d, union-find says %d", i, q.Op, q.U, q.V, ans[i], want)
		}
	}
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (w *serveWorkload) report(rec *recorder, t *tracer, s *sheet) {
	q, ins := rec.samples["query_us"], rec.samples["insert_ms"]
	s.setMedian("wall_s", rec.samples["wall_s"], "s")
	s.set("sim_ms", w.simMS, "ms", 1)
	copyExact(rec, s)
	s.set("op_p50_ms", median(q)/1e3, "ms", len(q))
	s.setMedian("graph.gen_ms", rec.samples["graph.gen_ms"], "ms")
	s.setMedian("graph.csr_ms", rec.samples["graph.csr_ms"], "ms")
	s.setMedian("query_p50_us", q, "us")
	if tailOK(len(q), 99) {
		s.set("query_p99_us", percentile(q, 99), "us", len(q))
	}
	s.setMedian("insert_p50_ms", ins, "ms")
	if tailOK(len(ins), 90) {
		s.set("insert_p90_ms", percentile(ins, 90), "ms", len(ins))
	}
	if t == nil {
		return
	}
	rounds, incr := rec.samples["insert_rounds"], rec.samples["insert_incremental"]
	if len(rounds) > 0 {
		s.set("serve.insert_rounds", sum(rounds)/float64(len(rounds)), "count", len(rounds))
		s.set("serve.insert_incremental_ratio", sum(incr)/float64(len(incr)), "ratio", len(incr))
	}
	threads := threadCount()
	if b := rec.samples["query_builds"]; len(b) > 0 {
		s.set("serve.plan_builds_per_batch", sum(b)/threads/float64(len(b)), "count", len(b))
	}
	w.reportHandles(rec, t, s)
}

// reportHandles splits each timed request's round trip into the
// server's handling (first byte read to last byte written) and the rest
// (client and server codec plus the socket), and each query's handling
// into its collective gathers.
func (w *serveWorkload) reportHandles(rec *recorder, t *tracer, s *sheet) {
	t.linkHandles(w.reqSpans)
	handles := t.handleSpans()
	gather := map[int64]int64{} // request span -> summed collective wall over threads
	t.mu.Lock()
	for _, sp := range t.spans {
		if sp.Layer == layerCollective {
			gather[sp.Req] += sp.End - sp.Start
		}
	}
	t.mu.Unlock()
	q, ins := rec.samples["query_us"], rec.samples["insert_ms"]
	// The timed requests are the last len(q)+len(ins) sent.
	first := len(w.reqKinds) - len(q) - len(ins)
	var qHandle, qCodec, qGather, iHandle []float64
	qi := 0
	threads := threadCount()
	for i := first; i < len(w.reqKinds) && i < len(handles); i++ {
		h := float64(handles[i].End-handles[i].Start) / 1e3 // us
		switch w.reqKinds[i] {
		case 'q':
			qHandle = append(qHandle, h)
			qCodec = append(qCodec, q[qi]-h)
			qGather = append(qGather, float64(gather[w.reqSpans[i]])/threads/1e3)
			qi++
		case 'i':
			iHandle = append(iHandle, h/1e3)
		}
	}
	s.setMedian("serve.query_handle_p50_us", qHandle, "us")
	s.setMedian("serve.query_codec_p50_us", qCodec, "us")
	if len(qGather) > 0 {
		s.set("serve.query_gather_us", sum(qGather)/float64(len(qGather)), "us", len(qGather))
	}
	s.setMedian("serve.insert_handle_p50_ms", iHandle, "ms")
	var handleNS int64
	for _, h := range handles[min(first, len(handles)):] {
		handleNS += h.End - h.Start
	}
	if handleNS > 0 {
		s.set("collective.share", float64(rec.tc.collWallNS())/threads/float64(handleNS), "ratio", 1)
	}
}

func (w *serveWorkload) close() {
	if w.cl != nil {
		w.cl.Close()
	}
	if w.l != nil {
		w.l.Close()
		<-w.served
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// sizedUF is a union-find that tracks set sizes and the set count.
type sizedUF struct {
	parent, size []int64
	sets         int64
}

func newSizedUF(n int64) *sizedUF {
	u := &sizedUF{parent: make([]int64, n), size: make([]int64, n), sets: n}
	for i := range u.parent {
		u.parent[i], u.size[i] = int64(i), 1
	}
	return u
}

func (u *sizedUF) find(x int64) int64 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *sizedUF) union(a, b int64) {
	a, b = u.find(a), u.find(b)
	if a == b {
		return
	}
	if u.size[a] < u.size[b] {
		a, b = b, a
	}
	u.parent[b] = a
	u.size[a] += u.size[b]
	u.sets--
}
