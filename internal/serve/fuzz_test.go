package serve

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame feeds ReadFrame arbitrary byte streams. It must never
// panic, and every frame it accepts must re-encode to exactly the bytes it
// consumed: the header carries nothing WriteFrame would not write.
func FuzzReadFrame(f *testing.F) {
	frame := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	for typ := FrameLoad; typ <= FrameError; typ++ {
		f.Add(frame(typ, []byte(`{"family":"random","n":8}`)))
	}
	valid := frame(FrameQuery, []byte(`{"queries":[]}`))
	f.Add(frame(FrameInfo, nil))
	f.Add(valid[:headerSize-1])
	f.Add(valid[:len(valid)-1])
	badMagic := bytes.Clone(valid)
	badMagic[0] = 'X'
	f.Add(badMagic)
	badVersion := bytes.Clone(valid)
	badVersion[4] = protoVersion + 1
	f.Add(badVersion)
	oversized := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(oversized[8:12], MaxFrame+1)
	f.Add(oversized)
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		typ, payload, err := ReadFrame(r)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, typ, payload); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if consumed := in[:len(in)-r.Len()]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("re-encoded %x, read %x", out.Bytes(), consumed)
		}
	})
}
