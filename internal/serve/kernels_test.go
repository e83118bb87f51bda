package serve

import (
	"errors"
	"testing"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/mst"
	"pgasgraph/internal/pgas"
)

func testGraph(n, m int64, seed uint64) *graph.Graph {
	return graph.Random(n, m, seed)
}

func testWeightedGraph(n, m int64, seed uint64) *graph.Graph {
	return graph.WithRandomWeights(graph.Random(n, m, seed), seed+1)
}

// TestRunKernelMatchesDirect pins dispatch fidelity on a clean cluster:
// registry dispatch must be observationally identical to calling the
// kernel directly — bit-identical answers AND bit-identical simulated
// time (the harness's serve/dispatch check drops the sim comparison
// because chaos retries legitimately skew it; this is the clean twin).
func TestRunKernelMatchesDirect(t *testing.T) {
	g := testGraph(300, 650, 21)
	col := collective.Optimized(2)

	rt1, err := pgas.New(testMachine(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunKernel(rt1, collective.NewComm(rt1), KernelSpec{
		Kernel: "cc/coalesced", Graph: g, Col: col, Compact: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	rt2, err := pgas.New(testMachine(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	direct := cc.Coalesced(rt2, collective.NewComm(rt2), g, &cc.Options{Col: col, Compact: true})

	if res.Components != direct.Components || res.Run.SimNS != direct.Run.SimNS {
		t.Fatalf("dispatch diverged: components %d vs %d, sim %v vs %v",
			res.Components, direct.Components, res.Run.SimNS, direct.Run.SimNS)
	}
	for i := range direct.Labels {
		if res.Labels[i] != direct.Labels[i] {
			t.Fatalf("label[%d]: dispatched %d, direct %d", i, res.Labels[i], direct.Labels[i])
		}
	}

	// And the weighted path, through mst.
	wg := testWeightedGraph(200, 500, 5)
	rt3, err := pgas.New(testMachine(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	mres, err := RunKernel(rt3, collective.NewComm(rt3), KernelSpec{
		Kernel: "mst/coalesced", Graph: wg, Col: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt4, err := pgas.New(testMachine(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	mdirect := mst.Coalesced(rt4, collective.NewComm(rt4), wg, &mst.Options{Col: col})
	if mres.Weight != mdirect.Weight || mres.Run.SimNS != mdirect.Run.SimNS {
		t.Fatalf("mst dispatch diverged: weight %d vs %d, sim %v vs %v",
			mres.Weight, mdirect.Weight, mres.Run.SimNS, mdirect.Run.SimNS)
	}

	// And the host-merging CGM kernel, which takes no options.
	rt5, err := pgas.New(testMachine(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	gres, err := RunKernel(rt5, collective.NewComm(rt5), KernelSpec{Kernel: "cc/merge-cgm", Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	rt6, err := pgas.New(testMachine(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	gdirect := cc.MergeCGM(rt6, g)
	if gres.Components != gdirect.Components || gres.Run.SimNS != gdirect.Run.SimNS {
		t.Fatalf("merge-cgm dispatch diverged: components %d vs %d, sim %v vs %v",
			gres.Components, gdirect.Components, gres.Run.SimNS, gdirect.Run.SimNS)
	}
	for i := range gdirect.Labels {
		if gres.Labels[i] != gdirect.Labels[i] {
			t.Fatalf("merge-cgm label[%d]: dispatched %d, direct %d", i, gres.Labels[i], gdirect.Labels[i])
		}
	}
}

// TestRunKernelClassifiesEvictions runs every registry kernel on
// runtimes armed to evict threads at fault points throughout the run:
// RunKernel must hand every eviction back as a classified error — never a
// panic — and every kernel must be evicted under at least one seed.
func TestRunKernelClassifiesEvictions(t *testing.T) {
	g := graph.Hybrid(200, 500, 0xE71C)
	wg := graph.WithRandomWeights(g, 0xE71D)
	for i, name := range Kernels() {
		spec := KernelSpec{Kernel: name, Graph: g}
		if registry[i].weighted {
			spec.Graph = wg
		}
		evicted := false
		for seed := uint64(1); seed <= 8; seed++ {
			rt, err := pgas.New(testMachine(2, 2))
			if err != nil {
				t.Fatal(err)
			}
			rt.ArmChaos(pgas.ChaosConfig{Seed: seed, KillRate: 0.05, MaxAttempts: 8})
			panicked := true
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s seed %d: panicked under eviction: %v", name, seed, r)
					}
				}()
				_, err = RunKernel(rt, collective.NewComm(rt), spec)
				panicked = false
			}()
			if panicked {
				evicted = true
				continue
			}
			kills := rt.ChaosStats().Kills
			if err == nil {
				if kills > 0 {
					t.Errorf("%s seed %d: %d threads killed but the run succeeded", name, seed, kills)
				}
				continue
			}
			evicted = true
			var ev *pgas.EvictionError
			if _, ok := pgas.Classified(err); !ok && !errors.As(err, &ev) {
				t.Errorf("%s seed %d: unclassified error %v", name, seed, err)
			}
		}
		if !evicted {
			t.Errorf("%s: no seed evicted a thread; raise the kill rate", name)
		}
	}
}

// TestFastFamilyDispatchMatchesDirect pins dispatch fidelity for the
// fast-converging CC family: registry dispatch of each kernel must be
// bit-identical — answers and simulated time — to the direct call.
func TestFastFamilyDispatchMatchesDirect(t *testing.T) {
	g := testGraph(280, 600, 33)
	col := collective.Optimized(2)
	direct := map[string]func(rt *pgas.Runtime) *cc.Result{
		"cc/fastsv": func(rt *pgas.Runtime) *cc.Result {
			return cc.FastSV(rt, collective.NewComm(rt), g, &cc.Options{Col: col, Compact: true})
		},
		"cc/lt-prs": func(rt *pgas.Runtime) *cc.Result {
			return cc.LiuTarjan(rt, collective.NewComm(rt), g, cc.LTPRS, &cc.Options{Col: col, Compact: true})
		},
		"cc/lt-pus": func(rt *pgas.Runtime) *cc.Result {
			return cc.LiuTarjan(rt, collective.NewComm(rt), g, cc.LTPUS, &cc.Options{Col: col, Compact: true})
		},
		"cc/lt-ers": func(rt *pgas.Runtime) *cc.Result {
			return cc.LiuTarjan(rt, collective.NewComm(rt), g, cc.LTERS, &cc.Options{Col: col, Compact: true})
		},
	}
	for name, call := range direct {
		rt1, err := pgas.New(testMachine(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunKernel(rt1, collective.NewComm(rt1), KernelSpec{
			Kernel: name, Graph: g, Col: col, Compact: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rt2, err := pgas.New(testMachine(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		d := call(rt2)
		if res.Components != d.Components || res.Iterations != d.Iterations || res.Run.SimNS != d.Run.SimNS {
			t.Fatalf("%s dispatch diverged: components %d vs %d, rounds %d vs %d, sim %v vs %v",
				name, res.Components, d.Components, res.Iterations, d.Iterations, res.Run.SimNS, d.Run.SimNS)
		}
		for i := range d.Labels {
			if res.Labels[i] != d.Labels[i] {
				t.Fatalf("%s label[%d]: dispatched %d, direct %d", name, i, res.Labels[i], d.Labels[i])
			}
		}
	}
}

// TestRacyOps pins the registry's racy-kernel declarations: exactly the
// naive CC kernel is racy, new fast-converging kernels are not, and
// unknown names report false (never "racy by accident").
func TestRacyOps(t *testing.T) {
	want := map[string]bool{
		"cc/naive":     true,
		"cc/coalesced": false,
		"cc/sv":        false,
		"cc/fastsv":    false,
		"cc/lt-prs":    false,
		"cc/lt-pus":    false,
		"cc/lt-ers":    false,
		"cc/merge-cgm": false,
	}
	for name, racy := range want {
		if RacyOps(name) != racy {
			t.Errorf("RacyOps(%q) = %v, want %v", name, RacyOps(name), racy)
		}
	}
	if RacyOps("no-such-kernel") {
		t.Error("RacyOps of an unknown kernel reported true")
	}
	// Every registry row is covered by Kernels(); the racy set must stay
	// a subset of it.
	names := map[string]bool{}
	for _, n := range Kernels() {
		names[n] = true
	}
	for name := range want {
		if !names[name] {
			t.Errorf("expected kernel %q missing from registry", name)
		}
	}
}

// TestRunKernelSanitizedOptionsParity: the registry must accept exactly
// what the kernels accept — VirtualThreads 0 means "disabled", not an
// error — while still classifying genuinely invalid options.
func TestRunKernelSanitizedOptionsParity(t *testing.T) {
	g := testGraph(64, 90, 2)
	rt, err := pgas.New(testMachine(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	comm := collective.NewComm(rt)
	if _, err := RunKernel(rt, comm, KernelSpec{
		Kernel: "cc/coalesced", Graph: g, Col: &collective.Options{VirtualThreads: 0},
	}); err != nil {
		t.Fatalf("VirtualThreads 0 rejected: %v", err)
	}
}
