// Package wiretransport is the multi-process pgas.Transport: every node is
// its own OS process and the fabric is a full mesh of stream sockets —
// unix-domain sockets under a shared rendezvous directory, or TCP when the
// cluster spans hosts. It carries exactly the operations the transport seam
// names — bulk get/put against exposed windows, the min-combining word
// store, barrier rendezvous — and nothing else: simulated time, message
// counters, and chaos verdicts are charged above the seam, so a kernel run
// observes the same schedule of charges and injected faults on the wire as
// in process.
//
// Wire protocol. Every frame is a fixed 40-byte little-endian header and an
// optional payload of 8-byte words:
//
//	[0]     frame type
//	[1]     window kind
//	[2:4]   status (GETRESP, PUTMINRESP)
//	[4:8]   window id; membership epoch for BARRIER
//	[8:12]  window sub; the dialing seat for HELLO
//	[12:20] offset (elements); rendezvous generation for BARRIER,
//	        membership epoch for EVICT, the cause's length in bytes for
//	        ABORT
//	[20:28] count (words): the payload's length, or the words a GET asks
//	        for
//	[28:36] request id; float64 bits of the clock maximum for BARRIER
//	[36:40] CRC-32C of the payload (0 when there is none)
//
// Every frame but GET is followed by count payload words. Responses
// (GETRESP, PUTMINRESP) leave bytes [1:2] and [4:20] zero.
//
// PUT frames coalesce: they are buffered per destination connection and
// flushed by the next frame on that connection that needs an answer (GET,
// PUTMIN) or orders delivery (BARRIER, EVICT, ABORT), so a serve phase's
// pushes to one peer ride the wire together. Per-connection FIFO plus the
// flush-before-BARRIER rule realizes the seam's ordering contract: a Put is
// applied at its destination before any later Rendezvous completes.
//
// Failure model. Real wire failures surface through the runtime's
// classified taxonomy and the transport never hangs. Three teardown classes
// are distinguished at the socket layer:
//
//   - goodbye: EOF after a GOODBYE frame is an orderly end-of-trial
//     shutdown and is silent;
//   - crash: EOF (or a read/write error) without a GOODBYE is a dead peer
//     process. The seat is marked crashed and every operation that depends
//     on it — pending GET/PUTMIN requests, open rendezvous generations,
//     and later calls — resolves promptly with *pgas.EvictionError naming
//     that node's thread ids. A crash does NOT poison the transport: the
//     survivors can agree on the dead set (EvictNodes) and keep computing
//     on the shrunk geometry;
//   - deadline: a missed per-operation deadline is ErrTimeout and still
//     poisons the transport (Abort, sticky, first cause wins) — a wedged
//     but live peer cannot be safely evicted.
//
// A checksum mismatch on a response is ErrCorrupt to its waiter; on a
// one-way frame it poisons the transport.
//
// Membership. Live nodes are tracked as a view: the sorted list of
// surviving original seats. Nodes()/Node() report virtual (dense) numbering
// over the view and the data plane translates virtual ids to original
// seats, so a pgas.Runtime rebuilt for the shrunk geometry works unchanged.
// Eviction is agreed cluster-wide by a leaderless epoch-stamped rendezvous:
// each survivor broadcasts an EVICT frame carrying the proposed dead-seat
// bitmap for epoch e+1, every receiver folds the union, and the epoch
// commits once every live seat has either proposed or crashed. The union
// fold makes the agreed set deterministic regardless of proposal order.
// Rendezvous generations restart at the new epoch (BARRIER frames carry
// their epoch, so stragglers cannot alias across the reset). A node that
// must evict itself (its own threads were killed) proposes its own seat,
// keeps serving reads until the agreement completes so survivors drain
// deterministically, then hard-closes its sockets (Fail).
package wiretransport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pgasgraph/internal/pgas"
)

// frame types
const (
	frHello uint8 = iota + 1
	frGet
	frGetResp
	frPut
	frPutMin
	frPutMinResp
	frBarrier
	frAbort
	frGoodbye
	frEvict
)

// response status codes ([2:4] of the header)
const (
	stOK uint16 = iota
	stStored
	stBadWindow
)

const headerLen = 40

// DefaultTimeout bounds every blocking wire operation when Config.Timeout
// is zero. It is deliberately generous: it only fires when a peer process
// is dead or wedged, and then it converts a hang into a classified
// ErrTimeout.
const DefaultTimeout = 30 * time.Second

// Dial backoff: retries start short and double up to the cap, so a mesh
// assembling over TCP neither spins nor waits out long fixed sleeps.
const (
	dialBackoffMin = 5 * time.Millisecond
	dialBackoffMax = 250 * time.Millisecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Config describes one node's seat in the cluster.
type Config struct {
	// Nodes is the cluster size p; Node is this process's seat in [0,p).
	Nodes int
	Node  int
	// ThreadsPerNode is the machine geometry's threads-per-node. The
	// transport needs it only to name thread ids in EvictionError; it must
	// match the runtime's machine config. Zero means 1.
	ThreadsPerNode int
	// Network selects the socket family: "unix" (default) or "tcp".
	Network string
	// Dir is the rendezvous directory all p processes share when Network
	// is "unix"; node i listens on Dir/node-<i>.sock.
	Dir string
	// Addrs holds each node's host:port when Network is "tcp"; it must
	// have exactly Nodes entries and be identical on every node.
	Addrs []string
	// Timeout bounds every blocking operation (connect, get, putmin,
	// rendezvous, evict agreement). Zero means DefaultTimeout.
	Timeout time.Duration
}

func (c *Config) network() string {
	if c.Network == "" {
		return "unix"
	}
	return c.Network
}

// addr returns the listening address of seat nd under this config.
func (c *Config) addr(nd int) string {
	if c.network() == "unix" {
		return SocketPath(c.Dir, nd)
	}
	if nd >= 0 && nd < len(c.Addrs) {
		return c.Addrs[nd]
	}
	return fmt.Sprintf("<no addr for seat %d>", nd)
}

// SocketPath returns the listening socket path of node in dir.
func SocketPath(dir string, node int) string {
	return filepath.Join(dir, fmt.Sprintf("node-%d.sock", node))
}

// peerConn is one mesh edge: the connection, its buffered writer, and the
// frame scratch the writer reuses. wmu serializes frame writes from the
// node's threads and from reader goroutines answering GETs.
type peerConn struct {
	conn net.Conn
	wmu  sync.Mutex
	bw   *bufio.Writer
	buf  []byte
}

// frame is one header in the layout of the package comment.
type frame struct {
	typ    uint8
	status uint16
	win    pgas.Win
	off    int64
	count  int64
	reqID  uint64
	crc    uint32
}

// appendFrame appends f's header and payload to b. The checksum is
// computed from payload; f.crc is ignored.
func appendFrame(b []byte, f frame, payload []int64) []byte {
	n := len(b)
	b = append(b, make([]byte, headerLen)...)
	for _, v := range payload {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	h := b[n : n+headerLen]
	h[0] = f.typ
	h[1] = byte(f.win.Kind)
	binary.LittleEndian.PutUint16(h[2:4], f.status)
	binary.LittleEndian.PutUint32(h[4:8], f.win.ID)
	binary.LittleEndian.PutUint32(h[8:12], uint32(f.win.Sub))
	binary.LittleEndian.PutUint64(h[12:20], uint64(f.off))
	binary.LittleEndian.PutUint64(h[20:28], uint64(f.count))
	binary.LittleEndian.PutUint64(h[28:36], f.reqID)
	binary.LittleEndian.PutUint32(h[36:40], crc32.Checksum(b[n+headerLen:], castagnoli))
	return b
}

// decodeFrame parses a headerLen-byte header.
func decodeFrame(h []byte) frame {
	return frame{
		typ:    h[0],
		status: binary.LittleEndian.Uint16(h[2:4]),
		win: pgas.Win{
			Kind: pgas.WinKind(h[1]),
			ID:   binary.LittleEndian.Uint32(h[4:8]),
			Sub:  int32(binary.LittleEndian.Uint32(h[8:12])),
		},
		off:   int64(binary.LittleEndian.Uint64(h[12:20])),
		count: int64(binary.LittleEndian.Uint64(h[20:28])),
		reqID: binary.LittleEndian.Uint64(h[28:36]),
		crc:   binary.LittleEndian.Uint32(h[36:40]),
	}
}

// rdvKey names one rendezvous generation within one membership epoch.
// Keying by epoch keeps a fast survivor's first post-eviction barrier frame
// (which can arrive before this node commits the epoch) from aliasing a
// pre-eviction generation number.
type rdvKey struct {
	epoch, gen uint64
}

// rdvState accumulates one rendezvous generation: how many peers have
// arrived and the running maximum of their clock values. A generation that
// cannot complete because a participant died is closed with err set.
type rdvState struct {
	got    int
	max    float64
	err    error
	closed bool
	done   chan struct{}
}

// seat liveness classes (guarded by rdvMu, indexed by original seat).
const (
	seatAlive   uint8 = iota
	seatLeaving       // named dead by an EVICT proposal; still serving reads
	seatCrashed       // connection died without GOODBYE
)

// evState accumulates one membership epoch's agreement: the union of
// proposed dead seats and which live peers have proposed. agreed is filled
// (in original seat numbering) when the epoch commits.
type evState struct {
	epoch   uint64
	union   []bool // by original seat
	arrived []bool // by original seat
	self    bool   // local proposal contributed
	closed  bool
	agreed  []int // original seats, set at commit
	done    chan struct{}
}

// viewState is the live membership: surviving original seats in ascending
// order and this node's index among them (its virtual node id).
type viewState struct {
	seats []int
	vnode int
}

type pendReq struct {
	ch   chan wireResp
	seat int // destination original seat, so a crash can resolve it
}

type wireResp struct {
	vals   []int64
	status uint16
	err    error
}

// Transport is one node's endpoint of the socket mesh. It implements
// pgas.Transport (Shared() == false) and pgas.NodeEvictor.
type Transport struct {
	cfg   Config
	tpn   int
	ln    net.Listener
	peers []*peerConn // indexed by original seat; nil at cfg.Node
	wins  *pgas.Windows

	// rmu serializes window access: inbound frame application across the
	// per-connection reader goroutines, and this node's own data plane.
	// Together with per-connection FIFO and the rendezvous channel close
	// it forms the happens-before chain that makes replica reads after a
	// barrier race-free: apply (under rmu) → barrier arrival (under
	// rdvMu) → done close → waiting caller.
	rmu sync.Mutex

	// rdvMu guards all membership state: rendezvous generations, the
	// epoch, seat liveness, eviction agreements, and view transitions.
	rdvMu       sync.Mutex
	rdvGen      uint64
	rdv         map[rdvKey]*rdvState
	epoch       uint64
	gone        []uint8 // seatAlive/seatLeaving/seatCrashed by original seat
	evs         map[uint64]*evState
	selfEvicted bool

	liveView atomic.Pointer[viewState]

	pendMu sync.Mutex
	reqSeq uint64
	pend   map[uint64]pendReq

	abortOnce sync.Once
	abortCh   chan struct{}
	causeMu   sync.Mutex
	cause     string

	closed   atomic.Bool
	departed []atomic.Bool // peers that announced a clean shutdown
}

// Connect joins the mesh: listen on this node's socket, dial every lower
// seat, accept every higher seat, and start one reader per connection. It
// returns once all p-1 edges are up, or a classified error when the
// cluster does not assemble within the timeout.
func Connect(cfg Config) (*Transport, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Nodes < 1 || cfg.Node < 0 || cfg.Node >= cfg.Nodes {
		return nil, pgas.Errorf(pgas.ErrMisuse, -1, "wire Connect",
			"node %d out of range [0,%d)", cfg.Node, cfg.Nodes)
	}
	switch cfg.network() {
	case "unix":
	case "tcp":
		if len(cfg.Addrs) != cfg.Nodes {
			return nil, pgas.Errorf(pgas.ErrMisuse, -1, "wire Connect",
				"tcp mesh needs %d addrs, got %d", cfg.Nodes, len(cfg.Addrs))
		}
	default:
		return nil, pgas.Errorf(pgas.ErrMisuse, -1, "wire Connect",
			"unknown network %q (unix, tcp)", cfg.Network)
	}
	tpn := cfg.ThreadsPerNode
	if tpn <= 0 {
		tpn = 1
	}
	t := &Transport{
		cfg:      cfg,
		tpn:      tpn,
		peers:    make([]*peerConn, cfg.Nodes),
		wins:     pgas.NewWindows(),
		rdv:      make(map[rdvKey]*rdvState),
		gone:     make([]uint8, cfg.Nodes),
		evs:      make(map[uint64]*evState),
		pend:     make(map[uint64]pendReq),
		abortCh:  make(chan struct{}),
		departed: make([]atomic.Bool, cfg.Nodes),
	}
	seats := make([]int, cfg.Nodes)
	for i := range seats {
		seats[i] = i
	}
	t.liveView.Store(&viewState{seats: seats, vnode: cfg.Node})

	laddr := cfg.addr(cfg.Node)
	if cfg.network() == "unix" {
		_ = os.Remove(laddr)
	}
	ln, err := net.Listen(cfg.network(), laddr)
	if err != nil {
		return nil, pgas.Errorf(pgas.ErrTransport, -1, "wire Connect",
			"node %d: listen %s %s: %v", cfg.Node, cfg.network(), laddr, err)
	}
	t.ln = ln

	deadline := time.Now().Add(cfg.Timeout)

	// Accept the higher seats concurrently with dialing the lower ones —
	// both directions progress at every node, so the mesh cannot deadlock
	// on connect order.
	accErr := make(chan error, 1)
	go func() { accErr <- t.acceptPeers(deadline) }()

	for nd := 0; nd < cfg.Node; nd++ {
		if err := t.dialPeer(nd, deadline); err != nil {
			ln.Close()
			return nil, err
		}
	}
	if err := <-accErr; err != nil {
		ln.Close()
		return nil, err
	}
	for nd, p := range t.peers {
		if nd != cfg.Node {
			go t.readLoop(nd, p)
		}
	}
	return t, nil
}

// dialPeer connects to a lower seat, retrying with capped exponential
// backoff until the deadline: the peer process may not have started
// listening yet, and over TCP the first connect can be refused outright.
func (t *Transport) dialPeer(nd int, deadline time.Time) error {
	addr := t.cfg.addr(nd)
	backoff := dialBackoffMin
	var conn net.Conn
	var err error
	for {
		conn, err = net.DialTimeout(t.cfg.network(), addr, time.Until(deadline))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return pgas.Errorf(pgas.ErrTimeout, -1, "wire Connect",
				"%s never came up: %v", t.edge(nd), err)
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
	p := &peerConn{conn: conn, bw: bufio.NewWriter(conn)}
	t.peers[nd] = p
	// Identify this seat to the acceptor.
	return t.sendFrame(nd, frame{typ: frHello, win: pgas.Win{Sub: int32(t.cfg.Node)}}, nil)
}

func (t *Transport) acceptPeers(deadline time.Time) error {
	want := t.cfg.Nodes - 1 - t.cfg.Node // seats above ours dial us
	for got := 0; got < want; got++ {
		if d, ok := t.ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(deadline)
		}
		conn, err := t.ln.Accept()
		if err != nil {
			return pgas.Errorf(pgas.ErrTimeout, -1, "wire Connect",
				"node %d: %d of %d higher seats connected: %v", t.cfg.Node, got, want, err)
		}
		conn.SetReadDeadline(deadline)
		var hdr [headerLen]byte
		_, err = io.ReadFull(conn, hdr[:])
		hello := decodeFrame(hdr[:])
		if err != nil || hello.typ != frHello {
			conn.Close()
			return pgas.Errorf(pgas.ErrTransport, -1, "wire Connect",
				"node %d: bad hello from peer: %v", t.cfg.Node, err)
		}
		conn.SetReadDeadline(time.Time{})
		nd := int(hello.win.Sub)
		if nd <= t.cfg.Node || nd >= t.cfg.Nodes || t.peers[nd] != nil {
			conn.Close()
			return pgas.Errorf(pgas.ErrTransport, -1, "wire Connect",
				"node %d: hello names invalid seat %d", t.cfg.Node, nd)
		}
		t.peers[nd] = &peerConn{conn: conn, bw: bufio.NewWriter(conn)}
	}
	return nil
}

// edge names a mesh edge for error messages: originating node, remote
// node, and the remote address, so an abort cause says which peer failed.
func (t *Transport) edge(nd int) string {
	return fmt.Sprintf("node %d -> node %d (%s %s)", t.cfg.Node, nd, t.cfg.network(), t.cfg.addr(nd))
}

func (t *Transport) Shared() bool { return false }

// Nodes and Node report the surviving geometry in virtual (dense)
// numbering; they shrink when an eviction epoch commits.
func (t *Transport) Nodes() int { return len(t.liveView.Load().seats) }
func (t *Transport) Node() int  { return t.liveView.Load().vnode }

// ThreadsPerNode reports the configured machine geometry (for runtime
// validation against the machine config).
func (t *Transport) ThreadsPerNode() int { return t.cfg.ThreadsPerNode }

// SelfEvicted reports whether this node was evicted from the cluster
// (its own seat was in a committed dead set, or Fail was called).
func (t *Transport) SelfEvicted() bool {
	t.rdvMu.Lock()
	defer t.rdvMu.Unlock()
	return t.selfEvicted
}

func (t *Transport) Expose(w pgas.Win, data []int64) { t.wins.Expose(w, data) }

// DropWindows unregisters every window whose ID is above mark. A peer
// request that names a dropped window is answered "bad window" (GET,
// PUTMIN) or poisons the transport (PUT), never served stale.
func (t *Transport) DropWindows(mark uint32) { t.wins.DropWindows(mark) }

// LiveWindows returns the number of registered windows.
func (t *Transport) LiveWindows() int { return t.wins.LiveWindows() }

func tid(th *pgas.Thread) int {
	if th == nil {
		return -1
	}
	return th.ID
}

// sendFrame encodes and writes one frame to original seat nd under its
// connection's write lock. Every frame but PUT then flushes the
// connection's buffered frames (earlier coalesced PUTs included) onto the
// wire with a write deadline, so a wedged peer surfaces as an error here
// rather than a hang.
func (t *Transport) sendFrame(nd int, f frame, payload []int64) error {
	p := t.peers[nd]
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.buf = appendFrame(p.buf[:0], f, payload)
	if _, err := p.bw.Write(p.buf); err != nil {
		return pgas.Errorf(pgas.ErrTransport, -1, "wire send", "%s: %v", t.edge(nd), err)
	}
	if f.typ == frPut {
		return nil
	}
	p.conn.SetWriteDeadline(time.Now().Add(t.cfg.Timeout))
	if err := p.bw.Flush(); err != nil {
		class := pgas.ErrTransport
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			class = pgas.ErrTimeout
		}
		return pgas.Errorf(class, -1, "wire send", "flush %s: %v", t.edge(nd), err)
	}
	return nil
}

// sendFailed classifies a failed write to seat. A deadline is a wedged but
// live peer and keeps the sticky-abort contract; a broken connection without
// a GOODBYE is the write side of crash detection — the reader's EOF may not
// have landed yet when a send to a freshly dead peer fails, and the writer
// must not poison the cluster for a death the survivors can recover from.
// It returns the error the caller surfaces: *pgas.EvictionError for a
// crash, after which a broadcast goes on to the remaining peers.
func (t *Transport) sendFailed(seat int, err error) error {
	if errors.Is(err, pgas.ErrTimeout) || t.departed[seat].Load() {
		t.Abort(err.Error())
		return err
	}
	t.peerCrashed(seat, err)
	t.rdvMu.Lock()
	defer t.rdvMu.Unlock()
	return t.evictErrLocked(seat)
}

func (t *Transport) resolve(id uint64, r wireResp) {
	t.pendMu.Lock()
	pr, ok := t.pend[id]
	if ok {
		delete(t.pend, id)
	}
	t.pendMu.Unlock()
	if ok {
		pr.ch <- r
	}
}

func (t *Transport) aborted() bool {
	select {
	case <-t.abortCh:
		return true
	default:
		return false
	}
}

func (t *Transport) abortErr(th *pgas.Thread, op string) error {
	t.causeMu.Lock()
	cause := t.cause
	t.causeMu.Unlock()
	return pgas.Errorf(pgas.ErrTransport, tid(th), op, "transport aborted: %s", cause)
}

// evictErrLocked builds the EvictionError for dead seats under the current
// virtual numbering: only original seat `only` when only >= 0, else every
// non-alive seat still in the view. Caller holds rdvMu.
func (t *Transport) evictErrLocked(only int) error {
	vs := t.liveView.Load()
	var ths []int
	for v, s := range vs.seats {
		if only >= 0 {
			if s != only {
				continue
			}
		} else if t.gone[s] == seatAlive {
			continue
		}
		for k := 0; k < t.tpn; k++ {
			ths = append(ths, v*t.tpn+k)
		}
	}
	return &pgas.EvictionError{Threads: ths}
}

// crashedFast resolves an operation against a crashed seat without waiting
// out a deadline. Leaving seats (named in a proposal but still draining)
// keep serving, so they do not fail fast.
func (t *Transport) crashedFast(seat int) error {
	t.rdvMu.Lock()
	defer t.rdvMu.Unlock()
	if t.gone[seat] == seatCrashed {
		return t.evictErrLocked(seat)
	}
	return nil
}

// remoteSeat resolves virtual node for a data-plane operation: -1 when it
// is this node, which the caller serves from its own windows; otherwise
// the node's original seat, once the transport is neither poisoned nor
// facing a crashed seat.
func (t *Transport) remoteSeat(th *pgas.Thread, op string, node int) (int, error) {
	vs := t.liveView.Load()
	if node == vs.vnode {
		return -1, nil
	}
	if node < 0 || node >= len(vs.seats) {
		return 0, pgas.Errorf(pgas.ErrMisuse, tid(th), op, "node %d out of range [0,%d)", node, len(vs.seats))
	}
	seat := vs.seats[node]
	if t.aborted() {
		return 0, t.abortErr(th, op)
	}
	return seat, t.crashedFast(seat)
}

// request sends f to seat under a fresh request id and waits for the
// answer. An answer of "bad window", or a GET answer of the wrong length,
// is ErrMisuse. A crash of seat resolves the wait with
// *pgas.EvictionError; an abort unwinds it; a missed deadline against a
// live seat is ErrTimeout and poisons the transport.
func (t *Transport) request(th *pgas.Thread, op string, seat int, f frame, payload []int64) (wireResp, error) {
	ch := make(chan wireResp, 1)
	t.pendMu.Lock()
	t.reqSeq++
	id := t.reqSeq
	t.pend[id] = pendReq{ch: ch, seat: seat}
	t.pendMu.Unlock()
	f.reqID = id
	var r wireResp
	if err := t.sendFrame(seat, f, payload); err != nil {
		r.err = t.sendFailed(seat, err)
	} else {
		select {
		case r = <-ch:
			if r.err == nil && (r.status == stBadWindow || f.typ == frGet && int64(len(r.vals)) != f.count) {
				r.err = pgas.Errorf(pgas.ErrMisuse, tid(th), op, "%s rejected window %+v [%d,+%d)",
					t.edge(seat), f.win, f.off, f.count)
			}
			if r.err == nil {
				return r, nil
			}
		case <-t.abortCh:
			r.err = t.abortErr(th, op)
		case <-time.After(t.cfg.Timeout):
			if r.err = t.crashedFast(seat); r.err == nil {
				r.err = pgas.Errorf(pgas.ErrTimeout, tid(th), op,
					"%s: no response within %v", t.edge(seat), t.cfg.Timeout)
				t.Abort(r.err.Error())
			}
		}
	}
	t.pendMu.Lock()
	delete(t.pend, id)
	t.pendMu.Unlock()
	return wireResp{}, r.err
}

// Get reads len(dst) elements of virtual node's window w starting at off.
func (t *Transport) Get(th *pgas.Thread, node int, w pgas.Win, off int64, dst []int64) error {
	const op = "wire Get"
	seat, err := t.remoteSeat(th, op, node)
	if err != nil {
		return err
	}
	if seat < 0 {
		t.rmu.Lock()
		defer t.rmu.Unlock()
		return t.wins.Get(th, op, w, off, dst)
	}
	r, err := t.request(th, op, seat, frame{typ: frGet, win: w, off: off, count: int64(len(dst))}, nil)
	copy(dst, r.vals)
	return err
}

// Put writes src into virtual node's window w starting at off. The frame is
// buffered on the destination's connection and flushed by the next
// ordering frame (GET, PUTMIN, BARRIER, EVICT, ABORT) to that node.
func (t *Transport) Put(th *pgas.Thread, node int, w pgas.Win, off int64, src []int64) error {
	const op = "wire Put"
	seat, err := t.remoteSeat(th, op, node)
	if err != nil {
		return err
	}
	if seat < 0 {
		t.rmu.Lock()
		defer t.rmu.Unlock()
		return t.wins.Put(th, op, w, off, src)
	}
	if err := t.sendFrame(seat, frame{typ: frPut, win: w, off: off, count: int64(len(src))}, src); err != nil {
		return t.sendFailed(seat, err)
	}
	return nil
}

// PutMin atomically lowers virtual node's window element to v if smaller.
func (t *Transport) PutMin(th *pgas.Thread, node int, w pgas.Win, off int64, v int64) (bool, error) {
	const op = "wire PutMin"
	seat, err := t.remoteSeat(th, op, node)
	if err != nil {
		return false, err
	}
	if seat < 0 {
		t.rmu.Lock()
		defer t.rmu.Unlock()
		return t.wins.PutMin(th, op, w, off, v)
	}
	r, err := t.request(th, op, seat, frame{typ: frPutMin, win: w, off: off, count: 1}, []int64{v})
	return r.status == stStored, err
}

// rdvGetLocked returns generation k's accumulator, creating it on first
// touch from either side (a fast peer's arrival may precede the local
// call). Caller holds rdvMu.
func (t *Transport) rdvGetLocked(k rdvKey) *rdvState {
	st, ok := t.rdv[k]
	if !ok {
		st = &rdvState{max: math.Inf(-1), done: make(chan struct{})}
		t.rdv[k] = st
	}
	return st
}

// rdvCheckLocked completes a generation once every live peer of its epoch
// has arrived. Future-epoch accumulations wait for the epoch to commit
// (the commit sweeps them). Caller holds rdvMu.
func (t *Transport) rdvCheckLocked(k rdvKey, st *rdvState) {
	if st.closed || k.epoch != t.epoch {
		return
	}
	if st.got >= len(t.liveView.Load().seats)-1 {
		st.closed = true
		close(st.done)
	}
}

// failRdvLocked closes every open generation of the current epoch with the
// eviction error naming the currently-dead seats: a generation cannot
// complete once a participant is gone. Caller holds rdvMu.
func (t *Transport) failRdvLocked() {
	var err error
	for k, st := range t.rdv {
		if k.epoch != t.epoch || st.closed {
			continue
		}
		if err == nil {
			err = t.evictErrLocked(-1)
		}
		st.err = err
		st.closed = true
		close(st.done)
	}
}

// Rendezvous is the cross-process barrier leg: broadcast the local clock
// maximum under the next generation number (every process calls Rendezvous
// in the same SPMD sequence, so generations align without negotiation),
// wait for all live peers, and fold the global maximum. When a participant
// is dead — crashed, or named in an eviction proposal — the rendezvous
// fails promptly with *pgas.EvictionError instead of waiting out the
// deadline, and the transport stays usable for the membership agreement.
func (t *Transport) Rendezvous(localMax float64) (float64, error) {
	const op = "wire Rendezvous"
	if t.aborted() {
		return 0, t.abortErr(nil, op)
	}
	t.rdvMu.Lock()
	vs := t.liveView.Load()
	for _, s := range vs.seats {
		if s != t.cfg.Node && t.gone[s] != seatAlive {
			err := t.evictErrLocked(-1)
			t.rdvMu.Unlock()
			return 0, err
		}
	}
	t.rdvGen++
	gen := t.rdvGen
	k := rdvKey{epoch: t.epoch, gen: gen}
	st := t.rdvGetLocked(k)
	t.rdvCheckLocked(k, st)
	t.rdvMu.Unlock()

	for _, s := range vs.seats {
		if s == t.cfg.Node {
			continue
		}
		f := frame{typ: frBarrier, win: pgas.Win{ID: uint32(k.epoch)}, off: int64(gen), reqID: math.Float64bits(localMax)}
		if err := t.sendFrame(s, f, nil); err != nil {
			// A crash fails the registered generation; wait on it below
			// so every caller observes the same classified error.
			if err = t.sendFailed(s, err); !errors.Is(err, pgas.ErrEvicted) {
				return 0, err
			}
		}
	}
	select {
	case <-st.done:
		t.rdvMu.Lock()
		ferr := st.err
		g := st.max
		delete(t.rdv, k)
		t.rdvMu.Unlock()
		if ferr != nil {
			return 0, ferr
		}
		if localMax > g {
			g = localMax
		}
		return g, nil
	case <-t.abortCh:
		return 0, t.abortErr(nil, op)
	case <-time.After(t.cfg.Timeout):
		t.rdvMu.Lock()
		var goneErr error
		for _, s := range vs.seats {
			if s != t.cfg.Node && t.gone[s] != seatAlive {
				goneErr = t.evictErrLocked(-1)
				break
			}
		}
		got := st.got
		t.rdvMu.Unlock()
		if goneErr != nil {
			return 0, goneErr
		}
		err := pgas.Errorf(pgas.ErrTimeout, -1, op,
			"node %d: rendezvous gen %d incomplete after %v (%d of %d peers)",
			t.cfg.Node, gen, t.cfg.Timeout, got, len(vs.seats)-1)
		t.Abort(err.Error())
		return 0, err
	}
}

// evGetLocked returns epoch's agreement accumulator, creating it on first
// touch from either side. Caller holds rdvMu.
func (t *Transport) evGetLocked(epoch uint64) *evState {
	st, ok := t.evs[epoch]
	if !ok {
		st = &evState{
			epoch:   epoch,
			union:   make([]bool, t.cfg.Nodes),
			arrived: make([]bool, t.cfg.Nodes),
			done:    make(chan struct{}),
		}
		t.evs[epoch] = st
	}
	return st
}

// markLeavingLocked marks every union-named live seat as leaving and fails
// the current epoch's open rendezvous generations, so local waiters unwind
// with EvictionError at their next barrier instead of a deadline. Caller
// holds rdvMu.
func (t *Transport) markLeavingLocked(st *evState) {
	vs := t.liveView.Load()
	marked := false
	for _, s := range vs.seats {
		if s != t.cfg.Node && st.union[s] && t.gone[s] == seatAlive {
			t.gone[s] = seatLeaving
			marked = true
		}
	}
	if marked {
		t.failRdvLocked()
	}
}

// evCheckLocked commits the next membership epoch once this node has
// proposed and every live seat has either proposed, been proposed dead, or
// crashed. The agreed set is the union of proposals plus crash-detected
// seats; the view shrinks, rendezvous generations restart, and pre-arrived
// new-epoch barrier frames are re-checked for completion. Caller holds
// rdvMu.
func (t *Transport) evCheckLocked() {
	st := t.evs[t.epoch+1]
	if st == nil || st.closed || !st.self {
		return
	}
	vs := t.liveView.Load()
	me := t.cfg.Node
	for _, s := range vs.seats {
		if s == me || st.arrived[s] || st.union[s] || t.gone[s] == seatCrashed {
			continue
		}
		return
	}
	var agreed, newSeats []int
	selfOut := false
	for _, s := range vs.seats {
		if st.union[s] || t.gone[s] == seatCrashed {
			agreed = append(agreed, s)
			if s == me {
				selfOut = true
			}
		} else {
			newSeats = append(newSeats, s)
		}
	}
	st.agreed = agreed
	t.epoch = st.epoch
	t.rdvGen = 0
	for k := range t.rdv {
		if k.epoch < t.epoch {
			delete(t.rdv, k)
		}
	}
	if selfOut {
		t.selfEvicted = true
	} else {
		vnode := 0
		for i, s := range newSeats {
			if s == me {
				vnode = i
			}
		}
		t.liveView.Store(&viewState{seats: newSeats, vnode: vnode})
	}
	st.closed = true
	close(st.done)
	delete(t.evs, st.epoch)
	// A fast survivor's first new-epoch barrier frames may already have
	// accumulated; complete them against the shrunk view.
	for k, rst := range t.rdv {
		if k.epoch == t.epoch {
			t.rdvCheckLocked(k, rst)
		}
	}
}

// EvictNodes proposes the given virtual node ids (under the current view)
// as dead and blocks until the cluster commits the next membership epoch.
// It returns the agreed dead set in the same pre-agreement virtual
// numbering — possibly a superset of the proposal, when other survivors or
// crash detection contributed more seats. A node evicting itself proposes
// its own seat, keeps serving reads until the commit so survivors drain
// deterministically, and must call Fail afterwards.
func (t *Transport) EvictNodes(dead []int) ([]int, error) {
	const op = "wire EvictNodes"
	if t.aborted() {
		return nil, t.abortErr(nil, op)
	}
	t.rdvMu.Lock()
	vs := t.liveView.Load()
	epoch := t.epoch + 1
	st := t.evGetLocked(epoch)
	for _, v := range dead {
		if v < 0 || v >= len(vs.seats) {
			t.rdvMu.Unlock()
			return nil, pgas.Errorf(pgas.ErrMisuse, -1, op,
				"node %d out of range [0,%d)", v, len(vs.seats))
		}
		st.union[vs.seats[v]] = true
	}
	// Fold in every seat this node independently knows is gone, so the
	// agreement converges even when survivors detected different deaths.
	for _, s := range vs.seats {
		if s != t.cfg.Node && t.gone[s] != seatAlive {
			st.union[s] = true
		}
	}
	st.self = true
	t.markLeavingLocked(st)
	words := make([]int64, (t.cfg.Nodes+63)/64)
	for s, dead := range st.union {
		if dead {
			words[s/64] |= 1 << (s % 64)
		}
	}
	var targets []int
	for _, s := range vs.seats {
		if s != t.cfg.Node && t.gone[s] != seatCrashed {
			targets = append(targets, s)
		}
	}
	t.evCheckLocked()
	t.rdvMu.Unlock()

	for _, s := range targets {
		if err := t.sendFrame(s, frame{typ: frEvict, off: int64(epoch), count: int64(len(words))}, words); err != nil {
			// A crash raced with the proposal; it accounts the seat.
			if err = t.sendFailed(s, err); !errors.Is(err, pgas.ErrEvicted) {
				return nil, err
			}
		}
	}
	select {
	case <-st.done:
		t.rdvMu.Lock()
		agreed := st.agreed
		t.rdvMu.Unlock()
		out := make([]int, 0, len(agreed))
		for _, s := range agreed {
			for v, orig := range vs.seats {
				if orig == s {
					out = append(out, v)
				}
			}
		}
		return out, nil
	case <-t.abortCh:
		return nil, t.abortErr(nil, op)
	case <-time.After(t.cfg.Timeout):
		err := pgas.Errorf(pgas.ErrTimeout, -1, op,
			"node %d: membership epoch %d incomplete after %v", t.cfg.Node, epoch, t.cfg.Timeout)
		t.Abort(err.Error())
		return nil, err
	}
}

// applyEvict folds a peer's membership proposal for the given epoch.
func (t *Transport) applyEvict(nd int, epoch uint64, words []int64) {
	t.rdvMu.Lock()
	defer t.rdvMu.Unlock()
	if epoch <= t.epoch {
		return // stale duplicate of an already-committed epoch
	}
	st := t.evGetLocked(epoch)
	for s := 0; s < t.cfg.Nodes; s++ {
		if s/64 < len(words) && words[s/64]&(1<<(s%64)) != 0 {
			st.union[s] = true
		}
	}
	st.arrived[nd] = true
	t.markLeavingLocked(st)
	t.evCheckLocked()
}

// peerCrashed classifies a dead connection: mark the seat crashed, fail the
// open rendezvous generations and every pending request to that seat with
// EvictionError, and re-check a waiting membership agreement (a crash
// during the agreement counts as that seat's accounting).
func (t *Transport) peerCrashed(seat int, cause error) {
	t.rdvMu.Lock()
	vs := t.liveView.Load()
	inView := false
	for _, s := range vs.seats {
		if s == seat {
			inView = true
		}
	}
	if !inView || t.gone[seat] == seatCrashed || t.selfEvicted {
		t.rdvMu.Unlock()
		return
	}
	t.gone[seat] = seatCrashed
	t.failRdvLocked()
	evErr := t.evictErrLocked(seat)
	t.evCheckLocked()
	t.rdvMu.Unlock()

	t.pendMu.Lock()
	for id, pr := range t.pend {
		if pr.seat == seat {
			delete(t.pend, id)
			pr.ch <- wireResp{err: evErr}
		}
	}
	t.pendMu.Unlock()
}

// Abort poisons the transport: local waiters unblock with ErrTransport and
// every peer is told (best effort) so the whole cluster unwinds instead of
// waiting out deadlines. The first cause wins; a poisoned transport stays
// poisoned.
func (t *Transport) Abort(cause string) {
	t.abortOnce.Do(func() {
		t.causeMu.Lock()
		t.cause = cause
		t.causeMu.Unlock()
		close(t.abortCh)
		payload := make([]int64, (len(cause)+7)/8)
		b := make([]byte, len(payload)*8)
		copy(b, cause)
		for j := range payload {
			payload[j] = int64(binary.LittleEndian.Uint64(b[j*8:]))
		}
		for nd := range t.peers {
			if nd == t.cfg.Node || t.peers[nd] == nil {
				continue
			}
			_ = t.sendFrame(nd, frame{typ: frAbort, off: int64(len(cause)), count: int64(len(payload))}, payload)
		}
	})
}

// Close tears the mesh down: announce a clean departure to every peer
// (best effort), then close the sockets. The GOODBYE lets a peer that is
// still draining its final frames tell an orderly end-of-trial shutdown
// apart from a crash — EOF after GOODBYE is silence, EOF without it marks
// the seat crashed and evictable.
func (t *Transport) Close() error {
	t.closed.Store(true)
	for nd, p := range t.peers {
		if nd != t.cfg.Node && p != nil {
			_ = t.sendFrame(nd, frame{typ: frGoodbye}, nil)
		}
	}
	t.hangUp()
	return nil
}

// Fail hard-closes the mesh without a GOODBYE: the deliberate teardown of a
// node that has been evicted. Peers classify the EOF as a crash and resolve
// their operations with EvictionError. An evicted node that already
// completed the membership agreement cooperatively (EvictNodes on its own
// seat) calls Fail afterwards; survivors have moved to the new epoch and
// ignore the dead edge.
func (t *Transport) Fail() error {
	t.rdvMu.Lock()
	t.selfEvicted = true
	t.rdvMu.Unlock()
	t.closed.Store(true)
	t.hangUp()
	return nil
}

// hangUp closes the listener and every mesh connection.
func (t *Transport) hangUp() {
	if t.ln != nil {
		t.ln.Close()
	}
	for nd, p := range t.peers {
		if nd != t.cfg.Node && p != nil {
			p.conn.Close()
		}
	}
}

// connDown handles a broken mesh edge: silent after our own Close/Fail or
// the peer's announced departure; silent for a peer already evicted out of
// the view; otherwise the peer process died without a GOODBYE and the seat
// is classified as crashed.
func (t *Transport) connDown(nd int, err error) {
	if t.closed.Load() || t.departed[nd].Load() {
		return
	}
	t.peerCrashed(nd, err)
}

// readLoop drains one mesh edge. Every frame is applied under rmu; answers
// (GETRESP, PUTMINRESP) are sent from fresh goroutines over snapshots so a
// reader never blocks on a send — the mesh cannot deadlock on mutual
// bulk responses.
func (t *Transport) readLoop(nd int, p *peerConn) {
	br := bufio.NewReader(p.conn)
	hdr := make([]byte, headerLen)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			t.connDown(nd, err)
			return
		}
		f := decodeFrame(hdr)
		var raw []byte
		var payload []int64
		if f.typ != frGet && f.count != 0 {
			if f.count < 0 || f.count > (1<<31) {
				t.Abort(fmt.Sprintf("%s: frame type %d count %d out of range", t.edge(nd), f.typ, f.count))
				return
			}
			raw = make([]byte, f.count*8)
			if _, err := io.ReadFull(br, raw); err != nil {
				t.connDown(nd, err)
				return
			}
			if crc32.Checksum(raw, castagnoli) != f.crc {
				t.frameCorrupt(nd, f)
				continue
			}
			payload = make([]int64, f.count)
			for j := range payload {
				payload[j] = int64(binary.LittleEndian.Uint64(raw[j*8:]))
			}
		}

		switch f.typ {
		case frPut:
			t.applyPut(nd, f, payload)
		case frGet:
			t.serveGet(nd, f)
		case frPutMin:
			t.servePutMin(nd, f, payload)
		case frGetResp:
			t.resolve(f.reqID, wireResp{vals: payload, status: f.status})
		case frPutMinResp:
			t.resolve(f.reqID, wireResp{status: f.status})
		case frBarrier:
			t.applyBarrier(uint64(f.win.ID), uint64(f.off), math.Float64frombits(f.reqID))
		case frEvict:
			t.applyEvict(nd, uint64(f.off), payload)
		case frAbort:
			n := f.off // byte length rides the offset field
			if n < 0 || n > int64(len(raw)) {
				n = int64(len(raw))
			}
			t.Abort(fmt.Sprintf("node %d aborted: %s", nd, raw[:n]))
		case frGoodbye:
			t.departed[nd].Store(true)
		case frHello:
			// Late HELLO is a protocol violation, not a crash.
			t.Abort(fmt.Sprintf("%s: unexpected HELLO", t.edge(nd)))
			return
		default:
			t.Abort(fmt.Sprintf("%s: unknown frame type %d", t.edge(nd), f.typ))
			return
		}
	}
}

// frameCorrupt reports a checksum mismatch. A corrupt response is delivered
// to its waiter as ErrCorrupt (the caller decides whether to retry above
// the seam); a corrupt one-way frame poisons the transport — its effect is
// lost and the region cannot be trusted.
func (t *Transport) frameCorrupt(nd int, f frame) {
	err := pgas.Errorf(pgas.ErrCorrupt, -1, "wire recv",
		"checksum mismatch on frame type %d from node %d at node %d", f.typ, nd, t.cfg.Node)
	if f.typ == frGetResp {
		t.resolve(f.reqID, wireResp{err: err})
		return
	}
	t.Abort(err.Error())
}

func (t *Transport) applyPut(nd int, f frame, src []int64) {
	t.rmu.Lock()
	err := t.wins.Put(nil, "wire serve", f.win, f.off, src)
	t.rmu.Unlock()
	if err != nil {
		t.Abort(fmt.Sprintf("node %d put at node %d: %v", nd, t.cfg.Node, err))
	}
}

// serveGet and servePutMin answer off the reader goroutine: the reader
// keeps draining while bulk responses flow the other way.
func (t *Transport) serveGet(nd int, f frame) {
	t.rmu.Lock()
	snap, err := t.wins.Snapshot(nil, "wire serve", f.win, f.off, f.count)
	t.rmu.Unlock()
	resp := frame{typ: frGetResp, count: int64(len(snap)), reqID: f.reqID}
	if err != nil {
		resp.status = stBadWindow
	}
	go func() { _ = t.sendFrame(nd, resp, snap) }()
}

func (t *Transport) servePutMin(nd int, f frame, payload []int64) {
	resp := frame{typ: frPutMinResp, status: stBadWindow, reqID: f.reqID}
	if len(payload) == 1 {
		t.rmu.Lock()
		stored, err := t.wins.PutMin(nil, "wire serve", f.win, f.off, payload[0])
		t.rmu.Unlock()
		switch {
		case stored:
			resp.status = stStored
		case err == nil:
			resp.status = stOK
		}
	}
	go func() { _ = t.sendFrame(nd, resp, nil) }()
}

func (t *Transport) applyBarrier(epoch, gen uint64, v float64) {
	t.rdvMu.Lock()
	if epoch < t.epoch {
		// Straggler from a committed epoch; its generation was already
		// failed and cleaned up.
		t.rdvMu.Unlock()
		return
	}
	k := rdvKey{epoch: epoch, gen: gen}
	st := t.rdvGetLocked(k)
	if v > st.max {
		st.max = v
	}
	st.got++
	t.rdvCheckLocked(k, st)
	t.rdvMu.Unlock()
}

var (
	_ pgas.Transport   = (*Transport)(nil)
	_ pgas.NodeEvictor = (*Transport)(nil)
)
