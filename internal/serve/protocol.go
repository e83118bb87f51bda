package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"pgasgraph/internal/pgas"
)

// The pgasd request protocol: length-prefixed frames over a unix socket,
// following the wiretransport conventions — little-endian fixed header,
// CRC-32C (Castagnoli) payload checksum, fail-fast on any malformed
// frame. Payloads are JSON (requests are small; bulk data stays resident
// server-side, which is the whole point of the service).
//
// Frame layout (16-byte header, then payload):
//
//	off size  field
//	0   4     magic "pgsd"
//	4   1     protocol version (1)
//	5   1     frame type
//	6   2     reserved (0)
//	8   4     payload length (bytes)
//	12  4     CRC-32C of payload
const (
	protoMagic   = "pgsd"
	protoVersion = 1
	headerSize   = 16
	// MaxFrame bounds a frame's payload; a larger announced length is a
	// corrupt or hostile stream and fails fast.
	MaxFrame = 16 << 20
)

// Frame types. Every request frame is answered with exactly one response
// frame: the matching *Resp on success, FrameError on failure.
const (
	FrameLoad byte = iota + 1
	FrameRun
	FrameQuery
	FrameInsert
	FrameInfo
	FrameOK
	FrameError
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("pgasd: frame payload %d exceeds %d", len(payload), MaxFrame)
	}
	var h [headerSize]byte
	copy(h[0:4], protoMagic)
	h[4] = protoVersion
	h[5] = typ
	binary.LittleEndian.PutUint32(h[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[12:16], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, validating magic, version, reserved bytes,
// length bound, and checksum. A failed checksum classifies as
// pgas.ErrCorrupt.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var h [headerSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, nil, err
	}
	if string(h[0:4]) != protoMagic {
		return 0, nil, pgas.Errorf(pgas.ErrCorrupt, -1, "pgasd.frame", "bad magic %q", h[0:4])
	}
	if h[4] != protoVersion {
		return 0, nil, fmt.Errorf("pgasd: protocol version %d, want %d", h[4], protoVersion)
	}
	if h[6] != 0 || h[7] != 0 {
		return 0, nil, pgas.Errorf(pgas.ErrCorrupt, -1, "pgasd.frame", "reserved bytes %#x not zero", h[6:8])
	}
	n := binary.LittleEndian.Uint32(h[8:12])
	if n > MaxFrame {
		return 0, nil, pgas.Errorf(pgas.ErrCorrupt, -1, "pgasd.frame",
			"announced payload %d exceeds %d", n, MaxFrame)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(h[12:16]); got != want {
		return 0, nil, pgas.Errorf(pgas.ErrCorrupt, -1, "pgasd.frame",
			"payload checksum %#x, header says %#x", got, want)
	}
	return h[5], payload, nil
}

// WriteMsg marshals v and writes it as one frame of the given type.
func WriteMsg(w io.Writer, typ byte, v interface{}) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return WriteFrame(w, typ, payload)
}

// --- Request / response payloads ---------------------------------------

// LoadReq asks the server to generate and load a graph. Family is
// "random" or "hybrid" (the paper's generators); Weighted attaches
// deterministic random edge weights for MST/SSSP.
type LoadReq struct {
	Family   string `json:"family"`
	N        int64  `json:"n"`
	M        int64  `json:"m"`
	Seed     uint64 `json:"seed"`
	Weighted bool   `json:"weighted,omitempty"`
}

// LoadResp confirms a load.
type LoadResp struct {
	N int64 `json:"n"`
	M int64 `json:"m"`
}

// RunReq dispatches a kernel on the resident graph; the spec's Graph
// field is server-side.
type RunReq struct {
	Spec KernelSpec `json:"spec"`
}

// RunResp summarizes a kernel run. Result arrays stay resident; Sum is
// the deterministic content checksum an offline oracle reproduces.
type RunResp struct {
	Kernel     string  `json:"kernel"`
	Components int64   `json:"components,omitempty"`
	Weight     uint64  `json:"weight,omitempty"`
	Iterations int     `json:"iterations"`
	Sum        int64   `json:"sum"`
	SimMS      float64 `json:"sim_ms"`
}

// QueryReq carries one query batch.
type QueryReq struct {
	Queries []Query `json:"queries"`
}

// QueryResp carries the batch's answers in query order.
type QueryResp struct {
	Answers []int64 `json:"answers"`
}

// InsertReq carries one edge-insertion batch.
type InsertReq struct {
	Edges []Edge `json:"edges"`
}

// InsertResp mirrors InsertReport.
type InsertResp struct {
	Edges       int   `json:"edges"`
	Incremental bool  `json:"incremental"`
	Rounds      int   `json:"rounds"`
	Rollbacks   int   `json:"rollbacks,omitempty"`
	Components  int64 `json:"components"`
	Verified    bool  `json:"verified,omitempty"`
}

// InfoResp describes the server's resident state.
type InfoResp struct {
	N          int64    `json:"n"`
	M          int64    `json:"m"`
	Nodes      int      `json:"nodes"`
	Threads    int      `json:"threads"`
	Components int64    `json:"components"`
	Resident   []string `json:"resident,omitempty"`
	Kernels    []string `json:"kernels"`
}

// ErrorResp reports a failure with its error class preserved, so a remote
// caller's errors.Is checks work exactly like a local caller's.
type ErrorResp struct {
	Class string `json:"class,omitempty"`
	Msg   string `json:"msg"`
}

// classes maps the pgas error taxonomy to wire names and back.
var classes = []struct {
	name     string
	sentinel error
}{
	{"transport", pgas.ErrTransport},
	{"timeout", pgas.ErrTimeout},
	{"corrupt", pgas.ErrCorrupt},
	{"misuse", pgas.ErrMisuse},
	{"evicted", pgas.ErrEvicted},
}

// ErrorClass names err's classification for the wire, or "" when
// unclassified.
func ErrorClass(err error) string {
	for _, c := range classes {
		if errors.Is(err, c.sentinel) {
			return c.name
		}
	}
	return ""
}

// AsError reconstructs a client-side error from a wire ErrorResp,
// restoring the classification so errors.Is(err, pgas.ErrMisuse) etc.
// hold across the socket.
func (e *ErrorResp) AsError() error {
	for _, c := range classes {
		if e.Class == c.name {
			return pgas.Errorf(c.sentinel, -1, "pgasd", "%s", e.Msg)
		}
	}
	return errors.New("pgasd: " + e.Msg)
}
