package cc

import (
	"errors"
	"fmt"
	"testing"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/xrand"
)

// captureRounds arms the round probe, runs the kernel, and returns the
// per-round label snapshots (one per counted iteration, taken at the
// round's closing barrier).
func captureRounds(run func()) [][]int64 {
	var snaps [][]int64
	roundProbe = func(_ string, _ int, labels []int64) {
		snaps = append(snaps, labels)
	}
	defer func() { roundProbe = nil }()
	run()
	return snaps
}

// fastKernels are the fast-converging family under convergence test,
// uniformly invoked.
func fastKernels() []kernel {
	return []kernel{
		{"fastsv", func(rt *pgas.Runtime, g *graph.Graph, opts *Options) *Result {
			return FastSV(rt, collective.NewComm(rt), g, opts)
		}},
		{"lt-prs", func(rt *pgas.Runtime, g *graph.Graph, opts *Options) *Result {
			return LiuTarjan(rt, collective.NewComm(rt), g, LTPRS, opts)
		}},
		{"lt-pus", func(rt *pgas.Runtime, g *graph.Graph, opts *Options) *Result {
			return LiuTarjan(rt, collective.NewComm(rt), g, LTPUS, opts)
		}},
		{"lt-ers", func(rt *pgas.Runtime, g *graph.Graph, opts *Options) *Result {
			return LiuTarjan(rt, collective.NewComm(rt), g, LTERS, opts)
		}},
	}
}

// TestConvergenceMonotoneAndStable pins the two structural convergence
// properties every fast kernel's correctness argument rests on:
//
//   - labels are monotone non-increasing round over round (every write is
//     a minimum write from the identity fill), and
//   - the fixpoint is stable: the final counted round — the one the
//     change reduction saw as idle — left every label untouched, and the
//     terminal state is rooted stars carrying the oracle's canonical
//     component minima.
func TestConvergenceMonotoneAndStable(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":     graph.Path(64),
		"disjoint": graph.Disjoint(graph.Path(10), graph.Cycle(5), graph.Star(8), graph.Empty(4)),
		"hybrid":   graph.Hybrid(300, 900, 11),
		"rmat":     graph.PermuteVertices(graph.RMAT(8, 400, 0.57, 0.19, 0.19, 0.05, 3), 9),
	}
	for gname, g := range graphs {
		for _, k := range fastKernels() {
			rt := newRuntime(t, 2, 2)
			var res *Result
			snaps := captureRounds(func() {
				res = k.run(rt, g, &Options{Col: collective.Optimized(2)})
			})
			name := fmt.Sprintf("%s on %s", k.name, gname)
			if len(snaps) != res.Iterations {
				t.Fatalf("%s: %d probe snapshots for %d iterations", name, len(snaps), res.Iterations)
			}
			prev := make([]int64, g.N)
			for i := range prev {
				prev[i] = int64(i) // identity fill
			}
			for r, snap := range snaps {
				for i, v := range snap {
					if v > prev[i] {
						t.Fatalf("%s: label[%d] rose %d -> %d at round %d", name, i, prev[i], v, r)
					}
					if v < 0 {
						t.Fatalf("%s: label[%d] = %d underflowed at round %d", name, i, v, r)
					}
				}
				prev = snap
			}
			if n := len(snaps); n >= 2 {
				for i := range snaps[n-1] {
					if snaps[n-1][i] != snaps[n-2][i] {
						t.Fatalf("%s: final round moved label[%d] (%d -> %d); fixpoint not stable",
							name, i, snaps[n-2][i], snaps[n-1][i])
					}
				}
			}
			final := snaps[len(snaps)-1]
			want := seq.CC(g)
			for i, v := range final {
				if final[v] != v {
					t.Fatalf("%s: terminal state is not rooted stars at %d (D[%d]=%d, D[D[%d]]=%d)",
						name, i, i, v, i, final[v])
				}
				if v != want[i] {
					t.Fatalf("%s: terminal label[%d] = %d, oracle canonical minimum is %d",
						name, i, v, want[i])
				}
			}
			checkAgainstSequential(t, g, res)
		}
	}
}

// TestFastSVRoundsNotWorseThanSV asserts the headline convergence claim
// on a randomized matrix: FastSV never needs more rounds than classic SV
// on the same input, while both land on bit-identical canonical labels.
func TestFastSVRoundsNotWorseThanSV(t *testing.T) {
	rng := xrand.New(0xfa575)
	geometries := [][2]int{{1, 4}, {2, 2}, {4, 2}}
	for trial := 0; trial < 12; trial++ {
		nodes, tpn := geometries[trial%len(geometries)][0], geometries[trial%len(geometries)][1]
		var g *graph.Graph
		switch trial % 4 {
		case 0:
			g = graph.Random(100+int64(rng.Intn(400)), 300+int64(rng.Intn(900)), rng.Uint64())
		case 1:
			g = graph.Hybrid(100+int64(rng.Intn(300)), 400+int64(rng.Intn(800)), rng.Uint64())
		case 2:
			g = graph.PermuteVertices(graph.RMAT(8, 500, 0.45, 0.25, 0.15, 0.15, rng.Uint64()), rng.Uint64())
		case 3:
			g = graph.Path(50 + int64(rng.Intn(200)))
		}
		opts := &Options{Col: collective.Optimized(2), Compact: trial%2 == 0}

		rt1 := newRuntime(t, nodes, tpn)
		fs := FastSV(rt1, collective.NewComm(rt1), g, opts)
		rt2 := newRuntime(t, nodes, tpn)
		sv := SV(rt2, collective.NewComm(rt2), g, opts)

		if fs.Iterations > sv.Iterations {
			t.Fatalf("trial %d (n=%d m=%d): FastSV took %d rounds, SV only %d",
				trial, g.N, g.M(), fs.Iterations, sv.Iterations)
		}
		for i := range fs.Labels {
			if fs.Labels[i] != sv.Labels[i] {
				t.Fatalf("trial %d: FastSV label[%d] = %d, SV says %d", trial, i, fs.Labels[i], sv.Labels[i])
			}
		}
		checkAgainstSequential(t, g, fs)
	}
}

// TestPinnedRoundCounts regression-pins the exact convergence round count
// of every collective CC kernel on three small fixed graphs. Round counts
// are deterministic — the label evolution is defined by monotone minimum
// writes, independent of geometry and scheduling — so a change here means
// the hook/shortcut rules themselves changed.
func TestPinnedRoundCounts(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
		// rounds per kernel: sv, fastsv, lt-prs, lt-pus, lt-ers
		want map[string]int
	}{
		{"path-64", graph.Path(64),
			map[string]int{"sv": 7, "fastsv": 5, "lt-prs": 7, "lt-pus": 7, "lt-ers": 7}},
		{"grid-8x8", graph.Grid(8, 8),
			map[string]int{"sv": 5, "fastsv": 4, "lt-prs": 5, "lt-pus": 5, "lt-ers": 4}},
		{"rmat-8", graph.PermuteVertices(graph.RMAT(8, 400, 0.57, 0.19, 0.19, 0.05, 3), 9),
			map[string]int{"sv": 4, "fastsv": 3, "lt-prs": 4, "lt-pus": 4, "lt-ers": 3}},
	}
	all := append([]kernel{{"sv", func(rt *pgas.Runtime, g *graph.Graph, opts *Options) *Result {
		return SV(rt, collective.NewComm(rt), g, opts)
	}}}, fastKernels()...)
	for _, tc := range graphs {
		for _, k := range all {
			for _, geo := range [][2]int{{1, 4}, {3, 2}} {
				rt := newRuntime(t, geo[0], geo[1])
				res := k.run(rt, tc.g, &Options{Col: collective.Optimized(2)})
				if res.Iterations != tc.want[k.name] {
					t.Errorf("%s on %s (%dx%d): %d rounds, pinned %d",
						k.name, tc.name, geo[0], geo[1], res.Iterations, tc.want[k.name])
				}
				checkAgainstSequential(t, tc.g, res)
			}
		}
	}
}

// TestFastSVSeedsIncremental: labels produced by FastSV must feed the
// incremental-CC insertion grafts bit-identically to Bader-Cong
// (Coalesced)-seeded labels — both kernels terminate in the identical
// component-minimum star state, so the incremental contract cannot tell
// them apart.
func TestFastSVSeedsIncremental(t *testing.T) {
	rng := xrand.New(0x1fa57)
	for trial := 0; trial < 4; trial++ {
		n := int64(80 + rng.Intn(160))
		g := graph.Random(n, n/2, rng.Uint64())
		opts := &Options{Col: collective.Optimized(2)}

		rtF, err := pgas.New(incrMachine(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		commF := collective.NewComm(rtF)
		resF := FastSV(rtF, commF, g, opts)
		dF := rtF.NewSharedArray("D.resident", g.N)
		copy(dF.Raw(), resF.Labels)

		rtC, err := pgas.New(incrMachine(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		commC := collective.NewComm(rtC)
		dC := residentLabels(t, rtC, commC, g, opts)

		for batch := 0; batch < 3; batch++ {
			k := 1 + rng.Intn(6)
			eu := make([]int64, k)
			ev := make([]int64, k)
			for i := 0; i < k; i++ {
				eu[i] = int64(rng.Intn(int(n)))
				ev[i] = int64(rng.Intn(int(n)))
			}
			incF := Incremental(rtF, commF, dF, eu, ev, opts)
			incC := Incremental(rtC, commC, dC, eu, ev, opts)
			for i := range incF.Labels {
				if incF.Labels[i] != incC.Labels[i] {
					t.Fatalf("trial %d batch %d: FastSV-seeded graft label[%d] = %d, Coalesced-seeded says %d",
						trial, batch, i, incF.Labels[i], incC.Labels[i])
				}
			}
			if incF.Components != incC.Components {
				t.Fatalf("trial %d batch %d: components %d vs %d", trial, batch, incF.Components, incC.Components)
			}
		}
	}
}

// TestLiuTarjanInvalidVariant: an out-of-range variant must classify as
// misuse that pgas.Recover returns as an error, not an unclassified panic.
func TestLiuTarjanInvalidVariant(t *testing.T) {
	rt := newRuntime(t, 1, 2)
	err := func() (err error) {
		defer pgas.Recover(&err)
		LiuTarjan(rt, collective.NewComm(rt), graph.Path(8), LTVariant(99), nil)
		return nil
	}()
	if !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("invalid variant: err = %v, want ErrMisuse", err)
	}
}
