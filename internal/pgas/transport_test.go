package pgas

import (
	"errors"
	"testing"
)

// TestInprocTransportWindows exercises the reference transport directly:
// window registration, bulk reads and writes, the PutMin law, and the
// misuse surface (unexposed windows, out-of-range offsets) that every
// backend must classify identically.
func TestInprocTransportWindows(t *testing.T) {
	tr := NewInprocTransport(2)
	if !tr.Shared() {
		t.Fatal("inproc transport must report a shared fabric")
	}
	if tr.Nodes() != 2 || tr.Node() != 0 {
		t.Fatalf("geometry: nodes=%d node=%d, want 2/0", tr.Nodes(), tr.Node())
	}

	w := Win{Kind: WinArray, ID: 7, Sub: 3}
	data := []int64{10, 20, 30, 40, 50, 60, 70, 80}
	tr.Expose(w, data)

	if err := tr.Put(nil, 1, w, 2, []int64{-5, -6}); err != nil {
		t.Fatal(err)
	}
	got := make([]int64, 4)
	if err := tr.Get(nil, 1, w, 1, got); err != nil {
		t.Fatal(err)
	}
	want := []int64{20, -5, -6, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Get after Put: got %v, want %v", got, want)
		}
	}

	// PutMin law: stores exactly when strictly smaller, reports it.
	if stored, err := tr.PutMin(nil, 1, w, 0, 3); err != nil || !stored {
		t.Fatalf("PutMin smaller: stored=%v err=%v, want true/nil", stored, err)
	}
	if stored, err := tr.PutMin(nil, 1, w, 0, 9); err != nil || stored {
		t.Fatalf("PutMin larger: stored=%v err=%v, want false/nil", stored, err)
	}
	if data[0] != 3 {
		t.Fatalf("PutMin left %d, want 3", data[0])
	}

	// Misuse surface: unknown windows and out-of-range offsets are
	// classified ErrMisuse, never a slice panic.
	if err := tr.Get(nil, 1, Win{Kind: WinArray, ID: 999}, 0, got); !errors.Is(err, ErrMisuse) {
		t.Fatalf("unexposed window: %v, want ErrMisuse", err)
	}
	if err := tr.Get(nil, 1, w, 6, got); !errors.Is(err, ErrMisuse) {
		t.Fatalf("out-of-range read: %v, want ErrMisuse", err)
	}
	if err := tr.Put(nil, 1, w, -1, got); !errors.Is(err, ErrMisuse) {
		t.Fatalf("negative offset: %v, want ErrMisuse", err)
	}
	if _, err := tr.PutMin(nil, 1, w, 8, 0); !errors.Is(err, ErrMisuse) {
		t.Fatalf("out-of-range PutMin: %v, want ErrMisuse", err)
	}

	// A shared fabric's rendezvous is the identity: barriers synchronize
	// clocks themselves.
	if got, err := tr.Rendezvous(12.5); err != nil || got != 12.5 {
		t.Fatalf("Rendezvous: %v/%v, want 12.5/nil", got, err)
	}

	// Re-exposing a window rebinds it (sequential runtimes reuse names).
	fresh := []int64{1, 2}
	tr.Expose(w, fresh)
	if err := tr.Put(nil, 1, w, 0, []int64{42}); err != nil {
		t.Fatal(err)
	}
	if fresh[0] != 42 || data[0] == 42 {
		t.Fatal("re-Expose did not rebind the window")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseScopesReplicas: on a non-shared fabric Release(mark) drops
// exactly the arrays and windows drawn since mark — array, reducer and
// any other kind alike — and leaves older ones registered and synced. The
// id counter is not rewound, and Evict carries it to the remapped runtime,
// so a released id is never drawn again by the same lineage.
func TestReleaseScopesReplicas(t *testing.T) {
	tr := newFakeEvictor(2, 0, 1)
	rt, err := NewOnTransport(wireCfg(2, 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	keep := rt.NewSharedArray("keep", 8)
	mark := rt.Mark()
	scratch := rt.NewSharedArray("scratch", 8)
	red := NewOrReducer(rt)
	if rt.LiveArrays() != 2 {
		t.Fatalf("LiveArrays = %d, want 2", rt.LiveArrays())
	}
	rt.Release(mark)
	if rt.LiveArrays() != 1 || rt.arrays[0] != keep {
		t.Fatalf("after Release: %d live arrays, want only keep", rt.LiveArrays())
	}
	dst := make([]int64, 1)
	if err := tr.Get(nil, 0, keep.win, 0, dst); err != nil {
		t.Fatalf("kept window: %v", err)
	}
	for _, w := range []Win{scratch.win, red.wins[0], red.wins[1]} {
		if err := tr.Get(nil, 0, w, 0, dst); !errors.Is(err, ErrMisuse) {
			t.Fatalf("released window %+v: %v, want ErrMisuse", w, err)
		}
	}
	if id := rt.NewWinID(); id <= red.wins[0].ID {
		t.Fatalf("id counter rewound: drew %d after releasing %d", id, red.wins[0].ID)
	}
	nrt, err := rt.Evict([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if nrt.Mark() != rt.Mark() {
		t.Fatalf("Evict reset the id counter: %d, was %d", nrt.Mark(), rt.Mark())
	}
}

// TestReleaseIsNoOpOnSharedFabric: in process nothing is registered or
// synced, so Release leaves arrays as ordinary memory.
func TestReleaseIsNoOpOnSharedFabric(t *testing.T) {
	rt, err := New(wireCfg(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	mark := rt.Mark()
	a := rt.NewSharedArray("a", 4)
	a.StoreRaw(3, 9)
	rt.Release(mark)
	if rt.LiveArrays() != 0 || rt.Mark() != mark || a.LoadRaw(3) != 9 {
		t.Fatalf("shared fabric: live=%d mark=%d->%d a[3]=%d", rt.LiveArrays(), mark, rt.Mark(), a.LoadRaw(3))
	}
}
