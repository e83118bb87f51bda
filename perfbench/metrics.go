package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef is one metric the benchmark declares in BENCHMARK.json.
// End-to-end metrics are reported by every untraced run, per-layer
// metrics by every traced run; TestCatalogueMatchesBenchmarkJSON keeps
// this table and the JSON file in step.
type metricDef struct {
	name  string
	unit  string
	bound float64 // end-to-end only: allowed worsening as a share of the median
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; where a workload's headline operation differs
// (a kernel call, a query batch), README.md says which one it is.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"wall_s", "s", 0.25},
	{"sim_ms", "ms", 0.12},
	{"op_p50_ms", "ms", 0.25},
	{"peak_rss_mb", "MB", 0.2},
}

// kernelKeys are the kernels the per-layer kernel metrics cover, as
// "<registry name with / replaced by ->".
var kernelKeys = []string{"cc-coalesced", "cc-fastsv", "mst-coalesced", "bfs-coalesced"}

// collectiveKinds are the kind strings the collective layer passes to
// its Tracer.
var collectiveKinds = []string{"GetD", "SetD", "SetDMin", "SetDAdd", "GetDPair", "Exchange", "ExchangePairs"}

// simCats names sim.Breakdown's categories in index order.
var simCats = []string{"comm", "sort", "copy", "irregular", "setup", "work", "wait"}

// perLayer lists the traced run's metrics in report order.
var perLayer = func() []metricDef {
	var d []metricDef
	add := func(name, unit string) { d = append(d, metricDef{name: name, unit: unit}) }
	// Workload-specific end-to-end figures, from the untraced half of a
	// traced run, per workload where they apply (0 elsewhere).
	add("cc_ms", "ms")
	add("msf_ms", "ms")
	add("bfs_ms", "ms")
	add("query_p50_us", "us")
	add("query_p99_us", "us")
	add("insert_p50_ms", "ms")
	add("insert_p90_ms", "ms")
	add("fail_ratio", "ratio")
	add("graph.gen_ms", "ms")
	add("graph.csr_ms", "ms")
	for _, k := range kernelKeys {
		add("kernel."+k+".call_ms", "ms")
		add("kernel."+k+".region_ms", "ms")
		add("kernel."+k+".host_ms", "ms")
		add("kernel."+k+".iters", "count")
		add("kernel."+k+".sim_ms", "ms")
	}
	add("pgas.messages", "count")
	add("pgas.bytes", "bytes")
	add("pgas.remote_ops", "count")
	for _, c := range simCats {
		add("pgas.sim."+c+"_ms", "ms")
	}
	for _, k := range collectiveKinds {
		add("collective."+k+".calls", "count")
		add("collective."+k+".elements", "count")
		add("collective."+k+".wall_ms", "ms")
	}
	add("collective.plan_builds", "count")
	add("collective.plan_reuses", "count")
	add("collective.scratch_growths", "count")
	add("collective.share", "ratio")
	add("wire.get_calls", "count")
	add("wire.get_bytes", "bytes")
	add("wire.get_wait_ms", "ms")
	add("wire.put_calls", "count")
	add("wire.put_bytes", "bytes")
	add("wire.putmin_calls", "count")
	add("wire.rendezvous_calls", "count")
	add("wire.rendezvous_wait_ms", "ms")
	add("wire.sync_gets", "count")
	add("wire.sync_bytes", "bytes")
	add("wire.sync_ms", "ms")
	add("wire.cc_drift", "ratio")
	add("serve.query_handle_p50_us", "us")
	add("serve.query_codec_p50_us", "us")
	add("serve.query_gather_us", "us")
	add("serve.plan_builds_per_batch", "count")
	add("serve.insert_handle_p50_ms", "ms")
	add("serve.insert_rounds", "count")
	add("serve.insert_incremental_ratio", "ratio")
	for _, l := range layerNames {
		add("self."+l+"_ms", "ms")
	}
	add("self.host_transport_ms", "ms")
	add("trace.overhead_s", "s")
	add("trace.spans", "count")
	return d
}()

// row is one reported figure: a value, its unit, and how many samples
// it summarizes (1 for a count or an exact figure).
type row struct {
	name    string
	value   float64
	unit    string
	samples int
}

// sheet collects a run's figures in insertion order.
type sheet struct {
	rows  []row
	index map[string]int
}

func newSheet() *sheet { return &sheet{index: map[string]int{}} }

// set records (or replaces) a figure.
func (s *sheet) set(name string, value float64, unit string, samples int) {
	if i, ok := s.index[name]; ok {
		s.rows[i] = row{name, value, unit, samples}
		return
	}
	s.index[name] = len(s.rows)
	s.rows = append(s.rows, row{name, value, unit, samples})
}

// setMedian records the median of xs under name (and nothing when xs is
// empty).
func (s *sheet) setMedian(name string, xs []float64, unit string) {
	if len(xs) > 0 {
		s.set(name, median(xs), unit, len(xs))
	}
}

func (s *sheet) get(name string) (row, bool) {
	i, ok := s.index[name]
	if !ok {
		return row{}, false
	}
	return s.rows[i], true
}

// median returns the middle of xs (the mean of the two middles for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// tailOK reports whether the p-th percentile of n samples has at least
// ten samples beyond it, the smallest tail the benchmark reports.
func tailOK(n int, p float64) bool {
	return float64(n)*(1-p/100) >= 10
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// outcome is the benchmark's last line of standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every figure of s as a table, then the JSON result line
// carrying defs. A declared metric s lacks is reported as 0: a
// per-layer metric of a layer the workload does not exercise.
func emit(w io.Writer, s *sheet, defs []metricDef, attempted, failed int64) error {
	fmt.Fprintf(w, "%-36s %16s  %-6s %s\n", "metric", "value", "unit", "samples")
	for _, r := range s.rows {
		fmt.Fprintf(w, "%-36s %16.6g  %-6s %d\n", r.name, r.value, r.unit, r.samples)
	}
	out := outcome{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	var missing []string
	for _, d := range defs {
		r, ok := s.get(d.name)
		if !ok {
			missing = append(missing, d.name)
			r = row{value: 0}
		}
		if math.IsNaN(r.value) || math.IsInf(r.value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, r.value)
		}
		out.Metrics[d.name] = metric{Value: r.value, Unit: d.unit}
	}
	if len(missing) > 0 {
		fmt.Fprintf(w, "not exercised by this workload (reported as 0): %s\n", strings.Join(missing, " "))
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
