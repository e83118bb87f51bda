package wiretransport

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"

	"pgasgraph/internal/pgas"
)

// TestFrameGolden encodes one frame of every type and compares the bytes
// with the package comment's layout, written out with literal type, kind
// and status codes; decoding the encoding gives the frame back.
func TestFrameGolden(t *testing.T) {
	plan := pgas.Win{Kind: pgas.WinPlanVal, ID: 7, Sub: 3}
	arr := pgas.Win{Kind: pgas.WinArray, ID: 12}
	cases := []struct {
		f       frame
		payload []int64
		want    hdr
	}{
		{frame{typ: frHello, win: pgas.Win{Sub: 2}}, nil,
			hdr{typ: 1, sub: 2}},
		{frame{typ: frGet, win: plan, off: 5, count: 4, reqID: 9}, nil,
			hdr{typ: 2, kind: 3, id: 7, sub: 3, off: 5, count: 4, reqID: 9}},
		{frame{typ: frGetResp, count: 2, reqID: 9}, []int64{-1, 1 << 40},
			hdr{typ: 3, count: 2, reqID: 9}},
		{frame{typ: frGetResp, status: stBadWindow, reqID: 10}, nil,
			hdr{typ: 3, status: 2, reqID: 10}},
		{frame{typ: frPut, win: plan, off: 6, count: 3}, []int64{1, 2, 3},
			hdr{typ: 4, kind: 3, id: 7, sub: 3, off: 6, count: 3}},
		{frame{typ: frPutMin, win: arr, off: 1, count: 1, reqID: 11}, []int64{-7},
			hdr{typ: 5, kind: 1, id: 12, off: 1, count: 1, reqID: 11}},
		{frame{typ: frPutMinResp, status: stStored, reqID: 11}, nil,
			hdr{typ: 6, status: 1, reqID: 11}},
		{frame{typ: frBarrier, win: pgas.Win{ID: 3}, off: 12, reqID: math.Float64bits(2.5)}, nil,
			hdr{typ: 7, id: 3, off: 12, reqID: math.Float64bits(2.5)}},
		{frame{typ: frAbort, off: 5, count: 1}, []int64{0x216d6f6f62}, // "boom!"
			hdr{typ: 8, off: 5, count: 1}},
		{frame{typ: frGoodbye}, nil,
			hdr{typ: 9}},
		{frame{typ: frEvict, off: 4, count: 1}, []int64{0b101},
			hdr{typ: 10, off: 4, count: 1}},
	}
	for _, c := range cases {
		got := appendFrame(nil, c.f, c.payload)
		want := layout(c.want, c.payload)
		if !bytes.Equal(got, want) {
			t.Errorf("frame type %d:\n got %x\nwant %x", c.f.typ, got, want)
			continue
		}
		back := decodeFrame(got[:headerLen])
		c.f.crc = back.crc
		if back != c.f {
			t.Errorf("frame type %d: decoded %+v, want %+v", c.f.typ, back, c.f)
		}
	}

	// One frame spelled out in full pins the layout helper itself:
	// little-endian fields and the CRC-32C of the payload at [36:40].
	want, _ := hex.DecodeString("04" + "03" + "0000" + "07000000" + "03000000" +
		"0600000000000000" + "0100000000000000" + "0000000000000000" + "87296b51" +
		"2a00000000000000")
	if got := appendFrame(nil, frame{typ: frPut, win: plan, off: 6, count: 1}, []int64{42}); !bytes.Equal(got, want) {
		t.Fatalf("PUT frame:\n got %x\nwant %x", got, want)
	}
}
