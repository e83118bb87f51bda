package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"pgasgraph/internal/collective"
)

var workloads = []string{"paper-inproc", "wire-longlived", "serve-mix"}

// TestCatalogueMatchesBenchmarkJSON keeps the metric tables in this
// package and the repository's BENCHMARK.json in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloads, " ") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, catalogue %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Bound != d.bound || m.Better != "lower" {
			t.Errorf("end_to_end[%d] = %+v, catalogue %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, catalogue %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %+v, catalogue %+v", i, m, d)
		}
	}
}

// smallRun measures a test-sized traced run of exactly two timed passes.
func smallRun(t *testing.T, workload string, seed uint64, fault collective.Fault) *phase {
	t.Helper()
	cfg := &config{workload: workload, seed: seed, passes: 2, small: true, trace: true, fault: fault, dir: t.TempDir()}
	p, err := measure(cfg, true, 1, 0)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	return p
}

// exactNames are the figures that must repeat exactly for one seed.
func exactFigures(s *sheet) map[string]float64 {
	out := map[string]float64{}
	for _, r := range s.rows {
		n := r.name
		exact := n == "sim_ms" || strings.HasSuffix(n, ".iters") ||
			(strings.HasPrefix(n, "kernel.") && strings.HasSuffix(n, ".sim_ms")) ||
			n == "pgas.messages" || n == "pgas.bytes" || n == "pgas.remote_ops" ||
			(strings.HasPrefix(n, "wire.") && (strings.HasSuffix(n, "_calls") || strings.HasSuffix(n, "_bytes") || n == "wire.sync_gets")) ||
			(strings.HasPrefix(n, "collective.") && (strings.HasSuffix(n, ".calls") || strings.HasSuffix(n, ".elements"))) ||
			n == "collective.plan_builds" || n == "collective.plan_reuses"
		if exact {
			out[n] = r.value
		}
	}
	return out
}

func rowNames(s *sheet) []string {
	var names []string
	for _, r := range s.rows {
		names = append(names, r.name)
	}
	sort.Strings(names)
	return names
}

// TestDeterministicCounters: two runs of one seed agree on every exact
// counter; another seed changes the inputs but not the set of figures.
func TestDeterministicCounters(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			a, b := smallRun(t, w, 7, collective.FaultNone), smallRun(t, w, 7, collective.FaultNone)
			ea, eb := exactFigures(a.sheet), exactFigures(b.sheet)
			if len(ea) == 0 {
				t.Fatal("no exact figures recorded")
			}
			for n, v := range ea {
				if eb[n] != v {
					t.Errorf("%s: %v then %v", n, v, eb[n])
				}
			}
			c := smallRun(t, w, 8, collective.FaultNone)
			if got, want := strings.Join(rowNames(c.sheet), " "), strings.Join(rowNames(a.sheet), " "); got != want {
				t.Errorf("seed 8 figures\n%s\nseed 7 figures\n%s", got, want)
			}
			ec, differ := exactFigures(c.sheet), false
			for n, v := range ea {
				differ = differ || ec[n] != v
			}
			if !differ {
				t.Error("seeds 7 and 8 gave identical exact figures: the seed does not reach the inputs")
			}
			for _, p := range []*phase{a, b, c} {
				if p.rec.failed != 0 {
					t.Errorf("clean run failed %d of %d operations: %v", p.rec.failed, p.rec.attempted, p.rec.failures)
				}
			}
		})
	}
}

// TestInjectedFaultIsCaught arms a collective defect through
// Comm.InjectFault and requires the answer checks to fail operations,
// so a zero fail_ratio on clean code means something. serve-mix gets a
// defect that leaves the server's kernels terminating: a kernel that
// panics inside the server takes the whole process down, and then no
// fail_ratio is reported at all.
func TestInjectedFaultIsCaught(t *testing.T) {
	faults := map[string]collective.Fault{
		"paper-inproc":   collective.FaultMaxInsteadOfMin,
		"wire-longlived": collective.FaultMaxInsteadOfMin,
		"serve-mix":      collective.FaultDropPermute,
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			p := smallRun(t, w, 3, faults[w])
			r, _ := p.sheet.get("fail_ratio")
			if r.value <= 0 {
				t.Fatalf("fail_ratio %v with %s armed (%d operations)", r.value, faults[w], p.rec.attempted)
			}
		})
	}
}

// TestCountingTransportIsTransparent: a wire cluster over the counting
// decorator gives bit-identical simulated time and answer checksums to
// an undecorated one, and both match the in-process run.
func TestCountingTransportIsTransparent(t *testing.T) {
	type answer struct {
		sum   int64
		simNS float64
	}
	runs := map[bool][]answer{}
	for _, traced := range []bool{false, true} {
		cfg := &config{workload: "wire-longlived", seed: 5, small: true, dir: t.TempDir()}
		w := &wireWorkload{cfg: cfg}
		rec := newRecorder()
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		if err := w.setup(rec, tr); err != nil {
			t.Fatal(err)
		}
		if err := w.oracle(rec); err != nil {
			w.close()
			t.Fatal(err)
		}
		for i, spec := range w.specs {
			replies, err := w.call(spec)
			if err != nil {
				w.close()
				t.Fatal(err)
			}
			var sum int64
			for _, r := range replies {
				if r.res.Run.SimNS != w.ref[i].simNS {
					t.Errorf("traced=%v %s: simulated %v ns, in-process %v ns", traced, spec.Kernel, r.res.Run.SimNS, w.ref[i].simNS)
				}
				sum += r.res.Sum()
			}
			if spec.Kernel != "mst/coalesced" {
				sum = replies[0].res.Sum()
			}
			if sum != w.ref[i].sum {
				t.Errorf("traced=%v %s: checksum %d, in-process %d", traced, spec.Kernel, sum, w.ref[i].sum)
			}
			runs[traced] = append(runs[traced], answer{sum, replies[0].res.Run.SimNS})
		}
		w.close()
		if traced {
			if c := tr.snapshot().wire; c.syncGets == 0 || c.getCalls == 0 || c.rdvCalls == 0 {
				t.Errorf("counting transport saw no traffic: %+v", c)
			}
		}
	}
	for i := range runs[false] {
		if runs[false][i] != runs[true][i] {
			t.Errorf("spec %d: undecorated %+v, decorated %+v", i, runs[false][i], runs[true][i])
		}
	}
}

// TestSelfTime checks the interval arithmetic behind self times.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Layer: layerCall, Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: layerCollective, Thread: 0, Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: layerCollective, Thread: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Layer: layerTransport, Thread: 0, Start: 15, End: 25},
		{ID: 5, Parent: 1, Layer: layerTransport, Thread: -1, Start: 60, End: 70},
	}
	self, host := tr.selfTimes(0)
	// The call is covered by [10,50) and [60,70); thread 0's transport
	// span nests in its collective span; the host's transport span is
	// summed apart.
	want := [numLayers]float64{layerCall: 50, layerCollective: 20 + 30, layerTransport: 10}
	if self != want || host != 10 {
		t.Errorf("self times %v, host %v; want %v, host 10", self, host, want)
	}
	if tr.spans[3].Parent != 2 {
		t.Errorf("transport span parent %d, want the enclosing collective 2", tr.spans[3].Parent)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median %v", m)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if p := percentile(xs, 80); p != 4 {
		t.Errorf("p80 %v", p)
	}
	if tailOK(999, 99) || !tailOK(1000, 99) {
		t.Error("tailOK must require ten samples beyond the percentile")
	}
}
