package wiretransport

import (
	"errors"
	"math"
	"testing"
	"time"

	"pgasgraph/internal/pgas"
)

// TestMisuseTable runs one misuse table against both backends, the
// in-process reference and a 2-node wire mesh, addressing the local and the
// remote node: every entry is ErrMisuse on every target. A Put is one-way on
// the wire, so a remote Put to a dropped window cannot be refused; it
// poisons the transport instead.
func TestMisuseTable(t *testing.T) {
	arr := pgas.Win{Kind: pgas.WinArray, ID: 7}
	plan := pgas.Win{Kind: pgas.WinPlanVal, ID: 8, Sub: 1}
	unexposed := pgas.Win{Kind: pgas.WinArray, ID: 99}
	buf := make([]int64, 4)
	type op func(tr pgas.Transport, node int) error
	putMin := func(w pgas.Win, off int64) op {
		return func(tr pgas.Transport, node int) error {
			_, err := tr.PutMin(nil, node, w, off, 0)
			return err
		}
	}
	get := func(w pgas.Win, off int64, n int) op {
		return func(tr pgas.Transport, node int) error { return tr.Get(nil, node, w, off, buf[:n]) }
	}
	put := func(w pgas.Win, off int64, n int) op {
		return func(tr pgas.Transport, node int) error { return tr.Put(nil, node, w, off, buf[:n]) }
	}
	cases := []struct {
		name   string
		op     op
		oneWay bool // a Put: refused locally, poisons remotely on the wire
	}{
		{name: "get unexposed", op: get(unexposed, 0, 1)},
		{name: "get out of range", op: get(arr, 6, 4)},
		{name: "get past a plan window", op: get(plan, 1, 2)},
		{name: "get negative offset", op: get(arr, -1, 1)},
		{name: "get range overflowing int64", op: get(arr, math.MaxInt64-1, 4)},
		{name: "putmin unexposed", op: putMin(unexposed, 0)},
		{name: "putmin out of range", op: putMin(arr, 8)},
		{name: "putmin negative offset", op: putMin(arr, -1)},
		{name: "put unexposed", op: put(unexposed, 0, 1), oneWay: true},
		{name: "put out of range", op: put(arr, 6, 4), oneWay: true},
		{name: "put negative offset", op: put(arr, -1, 1), oneWay: true},
		{name: "put range overflowing int64", op: put(arr, math.MaxInt64-1, 4), oneWay: true},
	}

	inproc := pgas.NewInprocTransport(2)
	trs := connectMesh(t, 2, 10*time.Second)
	for _, tr := range []pgas.Transport{inproc, trs[0], trs[1]} {
		tr.Expose(arr, make([]int64, 8))
		tr.Expose(plan, make([]int64, 2))
	}
	targets := []struct {
		name   string
		tr     pgas.Transport
		node   int
		remote bool
	}{
		{"inproc/local", inproc, 0, false},
		{"inproc/remote", inproc, 1, false},
		{"wire/local", trs[0], 0, false},
		{"wire/remote", trs[0], 1, true},
	}
	for _, tg := range targets {
		for _, c := range cases {
			if c.oneWay && tg.remote {
				continue
			}
			if err := c.op(tg.tr, tg.node); !errors.Is(err, pgas.ErrMisuse) {
				t.Errorf("%s: %s: %v, want ErrMisuse", tg.name, c.name, err)
			}
		}
	}

	// The remote Put to a dropped window poisons the owner, whose abort
	// unblocks the writer's next rendezvous.
	dropped := pgas.Win{Kind: pgas.WinArray, ID: 20}
	trs[1].Expose(dropped, make([]int64, 1))
	trs[1].DropWindows(10)
	if err := trs[0].Put(nil, 1, dropped, 0, buf[:1]); err != nil {
		t.Fatalf("buffered Put: %v", err)
	}
	if _, err := trs[0].Rendezvous(0); !errors.Is(err, pgas.ErrTransport) {
		t.Fatalf("writer rendezvous after Put to a dropped window: %v, want ErrTransport", err)
	}
	if _, err := trs[1].Rendezvous(0); !errors.Is(err, pgas.ErrTransport) {
		t.Fatalf("owner after Put to a dropped window: %v, want ErrTransport", err)
	}
}
