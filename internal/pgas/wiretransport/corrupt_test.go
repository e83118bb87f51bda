package wiretransport

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"pgasgraph/internal/pgas"
)

// hdr names the header fields at the offsets the package comment gives.
type hdr struct {
	typ, kind  uint8
	status     uint16
	id         uint32
	sub        int32
	off, count int64
	reqID      uint64
}

// layout builds a frame byte by byte from the package comment's layout,
// independently of the codec under test.
func layout(h hdr, payload []int64) []byte {
	b := make([]byte, 40+8*len(payload))
	b[0] = h.typ
	b[1] = h.kind
	binary.LittleEndian.PutUint16(b[2:4], h.status)
	binary.LittleEndian.PutUint32(b[4:8], h.id)
	binary.LittleEndian.PutUint32(b[8:12], uint32(h.sub))
	binary.LittleEndian.PutUint64(b[12:20], uint64(h.off))
	binary.LittleEndian.PutUint64(b[20:28], uint64(h.count))
	binary.LittleEndian.PutUint64(b[28:36], h.reqID)
	for j, v := range payload {
		binary.LittleEndian.PutUint64(b[40+8*j:], uint64(v))
	}
	if len(payload) > 0 {
		binary.LittleEndian.PutUint32(b[36:40], crc32.Checksum(b[40:], crc32.MakeTable(crc32.Castagnoli)))
	}
	return b
}

// rawSeat1 assembles a 2-node mesh in which seat 0 is a real Transport and
// seat 1 is a bare socket: it dials seat 0 and sends a HELLO, and from then
// on speaks whatever bytes the test writes.
func rawSeat1(t *testing.T) (*Transport, net.Conn) {
	t.Helper()
	dir := t.TempDir()
	type result struct {
		tr  *Transport
		err error
	}
	done := make(chan result, 1)
	go func() {
		tr, err := Connect(Config{Nodes: 2, Node: 0, Dir: dir, Timeout: 5 * time.Second})
		done <- result{tr, err}
	}()
	var conn net.Conn
	for deadline := time.Now().Add(5 * time.Second); ; {
		var err error
		if conn, err = net.Dial("unix", SocketPath(dir, 0)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seat 0 never listened: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := conn.Write(layout(hdr{typ: frHello, sub: 1}, nil)); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		conn.Close()
		t.Fatalf("seat 0 Connect: %v", r.err)
	}
	t.Cleanup(func() {
		r.tr.Close()
		conn.Close()
	})
	return r.tr, conn
}

// readRaw reads one frame seat 0 sent: the header fields the tests look at
// and the payload bytes.
func readRaw(t *testing.T, conn net.Conn) (typ uint8, off int64, reqID uint64, payload []byte) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var h [40]byte
	if _, err := io.ReadFull(conn, h[:]); err != nil {
		t.Fatalf("read header: %v", err)
	}
	typ = h[0]
	off = int64(binary.LittleEndian.Uint64(h[12:20]))
	count := int64(binary.LittleEndian.Uint64(h[20:28]))
	reqID = binary.LittleEndian.Uint64(h[28:36])
	if typ != frGet {
		payload = make([]byte, 8*count)
		if _, err := io.ReadFull(conn, payload); err != nil {
			t.Fatalf("read payload: %v", err)
		}
	}
	return typ, off, reqID, payload
}

// expectAbort reads seat 0's ABORT frame and checks its cause.
func expectAbort(t *testing.T, conn net.Conn, want string) {
	t.Helper()
	typ, n, _, payload := readRaw(t, conn)
	if typ != frAbort {
		t.Fatalf("seat 0 sent frame type %d, want ABORT", typ)
	}
	if cause := string(payload[:n]); !strings.Contains(cause, want) {
		t.Fatalf("abort cause %q does not mention %q", cause, want)
	}
}

// TestCorruptFrames feeds seat 0 crafted frames: a damaged answer fails only
// the request waiting for it, while a damaged one-way frame or an
// impossible count poisons the transport.
func TestCorruptFrames(t *testing.T) {
	w := pgas.Win{Kind: pgas.WinArray, ID: 1}

	t.Run("GETRESP bad CRC is ErrCorrupt to the waiter", func(t *testing.T) {
		tr, conn := rawSeat1(t)
		got := make(chan error, 1)
		go func() { got <- tr.Get(nil, 1, w, 0, make([]int64, 1)) }()
		typ, _, reqID, _ := readRaw(t, conn)
		if typ != frGet {
			t.Fatalf("seat 0 sent frame type %d, want GET", typ)
		}
		resp := layout(hdr{typ: frGetResp, count: 1, reqID: reqID}, []int64{42})
		resp[36] ^= 0xff
		if _, err := conn.Write(resp); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-got:
			if !errors.Is(err, pgas.ErrCorrupt) {
				t.Fatalf("Get answered with a bad CRC: %v, want ErrCorrupt", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Get still waiting after a corrupt answer")
		}
		if tr.aborted() {
			t.Fatal("a corrupt answer poisoned the transport")
		}
	})

	t.Run("PUT bad CRC poisons", func(t *testing.T) {
		tr, conn := rawSeat1(t)
		data := []int64{7}
		tr.Expose(w, data)
		put := layout(hdr{typ: frPut, kind: uint8(w.Kind), id: w.ID, count: 1}, []int64{99})
		put[36] ^= 0xff
		if _, err := conn.Write(put); err != nil {
			t.Fatal(err)
		}
		expectAbort(t, conn, "checksum")
		if data[0] != 7 {
			t.Fatalf("corrupt PUT was applied: %d", data[0])
		}
		if _, err := tr.Rendezvous(0); !errors.Is(err, pgas.ErrTransport) {
			t.Fatalf("rendezvous after corrupt PUT: %v, want ErrTransport", err)
		}
	})

	t.Run("out-of-range count aborts", func(t *testing.T) {
		tr, conn := rawSeat1(t)
		if _, err := conn.Write(layout(hdr{typ: frPut, kind: uint8(w.Kind), id: w.ID, count: 1 << 40}, nil)); err != nil {
			t.Fatal(err)
		}
		expectAbort(t, conn, "out of range")
		if _, err := tr.Rendezvous(0); !errors.Is(err, pgas.ErrTransport) {
			t.Fatalf("rendezvous after bad count: %v, want ErrTransport", err)
		}
	})
}
