package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// Span layers, outermost first: one pass of the workload's fixed
// sequence, one kernel call or client request, the server's handling of
// a request, one thread's part in a collective, one transport call.
const (
	layerPass = iota
	layerCall
	layerHandle
	layerCollective
	layerTransport
	numLayers
)

var layerNames = [numLayers]string{"pass", "call", "handle", "collective", "transport"}

// maxSpans bounds the spans a traced run keeps; later spans are counted
// in dropped, and their layer's self time is then an undercount.
const maxSpans = 400_000

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch; Thread is the runtime thread id, -1 for the
// host side; Req identifies the kernel call or client request the span
// belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  int    `json:"layer"`
	Name   string `json:"name"`
	Thread int    `json:"thread"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// collAgg sums one collective kind's calls.
type collAgg struct {
	calls    int64 // thread participations
	elements int64
	wallNS   int64 // summed over threads
}

// wireCounts are the counting transport's totals.
type wireCounts struct {
	getCalls, getBytes, getNS       int64
	putCalls, putBytes, putMinCalls int64
	rdvCalls, rdvNS                 int64
	syncGets, syncBytes, syncNS     int64
}

// tracer records spans and per-layer counts from the benchmark's side of
// every layer boundary: it is the collective.Tracer and PlanTracer the
// benchmark attaches with Comm.SetTracer, the sink of the counting
// transport, and the sink of the traced listener. All methods are safe
// for concurrent use by the runtime's threads.
type tracer struct {
	epoch   time.Time
	nextID  atomic.Int64
	curCall atomic.Int64 // span id of the in-flight kernel call or client request

	mu      sync.Mutex
	spans   []span
	dropped int64
	handles []int // indices into spans of server handle spans, in arrival order
	coll    map[string]*collAgg
	builds  int64
	reuses  int64
	growths int64
	wire    wireCounts
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), coll: map[string]*collAgg{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// addLocked appends s, assigning an id when it has none, and returns its
// index, or -1 when the span budget is spent. t.mu must be held.
func (t *tracer) addLocked(s span) int {
	if s.ID == 0 {
		s.ID = t.nextID.Add(1)
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(s)
}

// begin opens a host-side span and returns a function that closes it.
// A call span becomes the parent of the collective and transport spans
// recorded until the next call span opens (one goroutine drives the
// load, so calls do not overlap).
func (t *tracer) begin(layer int, name string, parent int64) (id int64, end func()) {
	id = t.nextID.Add(1)
	var req int64
	if layer == layerCall {
		req = id
		t.curCall.Store(id)
	}
	start := t.now()
	return id, func() {
		t.record(span{ID: id, Parent: parent, Layer: layer, Name: name, Thread: -1, Req: req, Start: start, End: t.now()})
	}
}

// Collective implements collective.Tracer.
func (t *tracer) Collective(kind string, thread int, delta sim.Breakdown, elements int64, wall time.Duration, scratchGrowths int64) {
	end := t.now()
	t.mu.Lock()
	a := t.coll[kind]
	if a == nil {
		a = &collAgg{}
		t.coll[kind] = a
	}
	a.calls++
	a.elements += elements
	a.wallNS += int64(wall)
	t.growths += scratchGrowths
	t.mu.Unlock()
	call := t.curCall.Load()
	t.record(span{Parent: call, Layer: layerCollective, Name: kind, Thread: thread,
		Req: call, Start: end - int64(wall), End: end})
}

// Transfer implements collective.Tracer; transfers are counted by the
// transport layer instead.
func (t *tracer) Transfer(server, requester int, elems int64) {}

// PlanBuild implements collective.PlanTracer.
func (t *tracer) PlanBuild(thread int, elements int64) {
	t.mu.Lock()
	t.builds++
	t.mu.Unlock()
}

// PlanReuse implements collective.PlanTracer.
func (t *tracer) PlanReuse(thread int, elements int64) {
	t.mu.Lock()
	t.reuses++
	t.mu.Unlock()
}

// counts is a snapshot of the tracer's counters, so a pass's share is
// the difference of two snapshots.
type counts struct {
	coll                    map[string]collAgg
	builds, reuses, growths int64
	wire                    wireCounts
}

func (t *tracer) snapshot() counts {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := counts{coll: map[string]collAgg{}, builds: t.builds, reuses: t.reuses, growths: t.growths, wire: t.wire}
	for k, a := range t.coll {
		c.coll[k] = *a
	}
	return c
}

// minus returns c - b.
func (c counts) minus(b counts) counts {
	d := counts{coll: map[string]collAgg{}, builds: c.builds - b.builds, reuses: c.reuses - b.reuses,
		growths: c.growths - b.growths}
	for k, a := range c.coll {
		o := b.coll[k]
		d.coll[k] = collAgg{calls: a.calls - o.calls, elements: a.elements - o.elements, wallNS: a.wallNS - o.wallNS}
	}
	w, o := c.wire, b.wire
	d.wire = wireCounts{
		getCalls: w.getCalls - o.getCalls, getBytes: w.getBytes - o.getBytes, getNS: w.getNS - o.getNS,
		putCalls: w.putCalls - o.putCalls, putBytes: w.putBytes - o.putBytes, putMinCalls: w.putMinCalls - o.putMinCalls,
		rdvCalls: w.rdvCalls - o.rdvCalls, rdvNS: w.rdvNS - o.rdvNS,
		syncGets: w.syncGets - o.syncGets, syncBytes: w.syncBytes - o.syncBytes, syncNS: w.syncNS - o.syncNS,
	}
	return d
}

// collWallNS sums the collective wall time of c over all kinds.
func (c counts) collWallNS() int64 {
	var ns int64
	for _, a := range c.coll {
		ns += a.wallNS
	}
	return ns
}

// countingTransport is a pgas.Transport decorator that counts and times
// every call the runtime makes into the wire transport. Gets with a nil
// thread are the runtime's end-of-region replica sync.
type countingTransport struct {
	pgas.Transport
	tpn int
	t   *tracer
}

// ThreadsPerNode forwards the geometry NewOnTransport checks the
// transport against.
func (c *countingTransport) ThreadsPerNode() int { return c.tpn }

func threadID(th *pgas.Thread) int {
	if th == nil {
		return -1
	}
	return th.ID
}

func (c *countingTransport) transportSpan(name string, th *pgas.Thread, start int64) int64 {
	end := c.t.now()
	call := c.t.curCall.Load()
	c.t.record(span{Parent: call, Layer: layerTransport, Name: name, Thread: threadID(th),
		Req: call, Start: start, End: end})
	return end - start
}

func (c *countingTransport) Get(th *pgas.Thread, node int, w pgas.Win, off int64, dst []int64) error {
	start := c.t.now()
	err := c.Transport.Get(th, node, w, off, dst)
	name := "Get"
	if th == nil {
		name = "SyncGet"
	}
	ns := c.transportSpan(name, th, start)
	bytes := int64(len(dst)) * sim.ElemBytes
	c.t.mu.Lock()
	if th == nil {
		c.t.wire.syncGets++
		c.t.wire.syncBytes += bytes
		c.t.wire.syncNS += ns
	} else {
		c.t.wire.getCalls++
		c.t.wire.getBytes += bytes
		c.t.wire.getNS += ns
	}
	c.t.mu.Unlock()
	return err
}

func (c *countingTransport) Put(th *pgas.Thread, node int, w pgas.Win, off int64, src []int64) error {
	start := c.t.now()
	err := c.Transport.Put(th, node, w, off, src)
	c.transportSpan("Put", th, start)
	c.t.mu.Lock()
	c.t.wire.putCalls++
	c.t.wire.putBytes += int64(len(src)) * sim.ElemBytes
	c.t.mu.Unlock()
	return err
}

func (c *countingTransport) PutMin(th *pgas.Thread, node int, w pgas.Win, off int64, v int64) (bool, error) {
	start := c.t.now()
	stored, err := c.Transport.PutMin(th, node, w, off, v)
	c.transportSpan("PutMin", th, start)
	c.t.mu.Lock()
	c.t.wire.putMinCalls++
	c.t.mu.Unlock()
	return stored, err
}

func (c *countingTransport) Rendezvous(localMax float64) (float64, error) {
	start := c.t.now()
	m, err := c.Transport.Rendezvous(localMax)
	ns := c.transportSpan("Rendezvous", nil, start)
	c.t.mu.Lock()
	c.t.wire.rdvCalls++
	c.t.wire.rdvNS += ns
	c.t.mu.Unlock()
	return m, err
}

// tracedListener wraps the server's listener so every accepted
// connection records a handle span from a request's first byte read to
// its reply's last byte written.
type tracedListener struct {
	net.Listener
	t *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t}, nil
}

// tracedConn is used by the server's connection goroutine only.
type tracedConn struct {
	net.Conn
	t       *tracer
	inReq   bool
	start   int64
	replied bool // the last handle span is still open for more reply writes
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && !c.inReq {
		c.inReq, c.replied = true, false
		c.start = c.t.now()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	end := c.t.now()
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	switch {
	case c.inReq:
		c.inReq = false
		i := c.t.addLocked(span{Layer: layerHandle, Name: "handle", Thread: -1, Start: c.start, End: end})
		if c.replied = i >= 0; c.replied {
			c.t.handles = append(c.t.handles, i)
		}
	case c.replied:
		c.t.spans[c.t.handles[len(c.t.handles)-1]].End = end
	}
	return n, err
}

// handleSpans returns the server handle spans in arrival order.
func (t *tracer) handleSpans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, len(t.handles))
	for i, j := range t.handles {
		out[i] = t.spans[j]
	}
	return out
}

// linkHandles makes the i-th handle span a child of the i-th request
// span (the client sends one request at a time) and re-parents each
// collective span inside a handle onto it.
func (t *tracer) linkHandles(requests []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := map[int64]int64{}
	for i, j := range t.handles {
		if i < len(requests) {
			t.spans[j].Parent = requests[i]
			t.spans[j].Req = requests[i]
			byReq[requests[i]] = t.spans[j].ID
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Layer == layerCollective {
			if h, ok := byReq[s.Req]; ok {
				s.Parent = h
			}
		}
	}
}

// selfTimes returns, per layer, the summed span durations minus the part
// of each span its children cover (children of one span may run
// concurrently on several threads; their union counts once), over the
// spans that start at or after from. Transport spans issued inside a
// collective are attributed to that thread's enclosing collective span.
// Host-issued transport spans (replica sync and rendezvous, one issuer
// per node) are summed apart in host, not in self's transport layer.
func (t *tracer) selfTimes(from int64) (self [numLayers]float64, host float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nestTransport()
	kids := map[int64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		if s.Start < from {
			continue
		}
		d := float64(s.End - s.Start - union(kids[s.ID], s.Start, s.End))
		if s.Layer == layerTransport && s.Thread < 0 {
			host += d
		} else {
			self[s.Layer] += d
		}
	}
	return self, host
}

// nestTransport re-parents each thread-issued transport span onto the
// collective span of the same thread that contains it.
func (t *tracer) nestTransport() {
	byThread := map[int][]int{}
	for i, s := range t.spans {
		if s.Layer == layerCollective {
			byThread[s.Thread] = append(byThread[s.Thread], i)
		}
	}
	for _, idx := range byThread {
		sort.Slice(idx, func(a, b int) bool { return t.spans[idx[a]].Start < t.spans[idx[b]].Start })
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Layer != layerTransport || s.Thread < 0 {
			continue
		}
		idx := byThread[s.Thread]
		k := sort.Search(len(idx), func(j int) bool { return t.spans[idx[j]].Start > s.Start }) - 1
		if k >= 0 && t.spans[idx[k]].End >= s.End {
			s.Parent = t.spans[idx[k]].ID
		}
	}
}

// union returns the length of the union of ivs clipped to [lo, hi].
func union(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes every kept span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
