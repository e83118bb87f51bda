// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives one of three workloads through the public entry
// points — Cluster.Run on the in-process fabric, pgas.NewOnTransport over
// the unix-socket wire transport, and the pgasd server plus client over
// a unix socket — checks every answer against a sequential oracle, and
// prints a table of every figure followed by one JSON line:
//
//	go run . -workload paper-inproc -seed 1 -seconds 25 -trace 0
//
// With -trace 0 the JSON carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics of a traced run and writes the run's
// spans under the output directory. See README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/machine"
)

// config selects one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	passes   int  // > 0: run exactly this many timed passes, ignoring seconds
	small    bool // test-sized inputs
	trace    bool // traced run: report per-layer metrics
	fault    collective.Fault
	dir      string // sockets and span files
}

// workload is one benchmark workload. Its methods are called from one
// goroutine, in the order setup, oracle, then pass and check repeatedly,
// then close.
type workload interface {
	// setup generates the inputs and builds the system under test; it is
	// what setup_s times. A non-nil tracer is attached to every layer.
	setup(rec *recorder, t *tracer) error
	// oracle computes the reference answers; it is not timed.
	oracle(rec *recorder) error
	// pass runs one pass of the workload's fixed sequence, timing each
	// operation into rec and keeping the answers for check.
	pass(rec *recorder, t *tracer, passSpan int64) error
	// check compares the last pass's answers with the oracle.
	check(rec *recorder)
	// report turns the recorded samples into figures.
	report(rec *recorder, t *tracer, s *sheet)
	close()
}

func newWorkload(cfg *config) (workload, error) {
	switch cfg.workload {
	case "paper-inproc":
		return &inprocWorkload{cfg: cfg}, nil
	case "wire-longlived":
		return &wireWorkload{cfg: cfg}, nil
	case "serve-mix":
		return &serveWorkload{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (paper-inproc, wire-longlived, serve-mix)", cfg.workload)
}

// machineConfig is every workload's geometry: the paper's cost model on
// 2 nodes × 2 threads per node.
func machineConfig() machine.Config {
	c := machine.PaperCluster()
	c.Nodes = 2
	c.ThreadsPerNode = 2
	return c
}

// recorder collects one phase's samples. Timed samples are kept only
// while timing is on (the warm-up pass is checked but not timed); exact
// figures are taken from the first timed pass.
type recorder struct {
	samples   map[string][]float64
	exact     map[string]float64
	timing    bool
	first     bool
	attempted int64
	failed    int64
	failures  []string
	tc        counts // traced runs: the tracer's counts over the timed passes
	tcFrom    int64  // traced runs: tracer time the timed passes began
}

func newRecorder() *recorder {
	return &recorder{samples: map[string][]float64{}, exact: map[string]float64{}}
}

// add records one timed sample.
func (r *recorder) add(name string, v float64) {
	if r.timing {
		r.samples[name] = append(r.samples[name], v)
	}
}

// setExact records a figure of the first timed pass.
func (r *recorder) setExact(name string, v float64) {
	if r.timing && r.first {
		r.exact[name] = v
	}
}

// op counts one attempted operation, failed when err is non-nil.
func (r *recorder) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// errStop ends a phase early without failing the run: the system under
// test can take no more operations (its failures are already counted).
var errStop = errors.New("no further operations possible")

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// phase is the outcome of one measured phase.
type phase struct {
	rec    *recorder
	tracer *tracer
	sheet  *sheet
}

// measure sets the workload up setups times and keeps the last set-up,
// then checks the last warm-up pass against the oracle and runs timed
// passes for the given seconds (or the count timedPasses fixes). Set-up
// time runs from the workload's start to its first timed operation:
// input generation, building the system, and one warm-up pass that fills
// plan caches and scratch arenas. The oracle is computed off the clock.
// setup_s is the median over the set-ups.
func measure(cfg *config, traced bool, setups int, seconds float64) (*phase, error) {
	rec := newRecorder()
	var t *tracer
	if traced {
		t = newTracer()
	}
	var w workload
	var setupS []float64
	for i := 0; i < setups; i++ {
		var err error
		if w, err = newWorkload(cfg); err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		rec.timing = true // graph.gen_ms is sampled per set-up
		err = w.setup(rec, t)
		rec.timing = false
		if err == nil {
			if err = w.pass(rec, t, 0); errors.Is(err, errStop) {
				err = nil
			}
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i < setups-1 {
			w.close()
		}
	}
	defer w.close()
	if err := w.oracle(rec); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	w.check(rec)

	// Return the set-up's and the oracle's garbage to the OS, so the
	// resident set sampled below is the system under test's.
	debug.FreeOSMemory()
	var peakRSS float64
	rec.timing, rec.first = true, true
	var before, timedStart counts
	if t != nil {
		timedStart, rec.tcFrom = t.snapshot(), t.now()
	}
	var passes []float64
	want := timedPasses(cfg, seconds)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(passes) == 0 || (want > 0 && len(passes) < want) || (want == 0 && time.Now().Before(deadline)) {
		if t != nil && rec.first {
			before = t.snapshot()
		}
		var passID int64
		var endPass func()
		if t != nil {
			passID, endPass = t.begin(layerPass, "pass", 0)
		}
		start := time.Now()
		err := w.pass(rec, t, passID)
		if err != nil && !errors.Is(err, errStop) {
			return nil, fmt.Errorf("pass %d: %w", len(passes), err)
		}
		if endPass != nil {
			endPass()
		}
		passes = append(passes, time.Since(start).Seconds())
		rss, err2 := rssMB()
		if err2 != nil {
			return nil, err2
		}
		peakRSS = max(peakRSS, rss)
		if t != nil && rec.first {
			firstPassCounts(rec, t.snapshot().minus(before))
		}
		w.check(rec)
		rec.first = false
		if err != nil {
			break
		}
	}

	if t != nil {
		rec.tc = t.snapshot().minus(timedStart)
	}
	for _, f := range rec.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed: %s\n", cfg.workload, f)
	}
	s := newSheet()
	s.setMedian("setup_s", setupS, "s")
	// Answers are checked after the pass clock stops, so wall_s is the
	// pass's operations alone.
	rec.samples["wall_s"] = passes
	w.report(rec, t, s)
	s.set("passes", float64(len(passes)), "count", 1)
	s.set("fail_ratio", float64(rec.failed)/float64(max(rec.attempted, 1)), "ratio", int(rec.attempted))
	s.set("peak_rss_mb", peakRSS, "MB", len(passes))
	if t != nil {
		reportTrace(t, rec, s, len(passes))
	}
	return &phase{rec: rec, tracer: t, sheet: s}, nil
}

// timedPasses is how many timed passes a phase of the given length
// runs, or 0 when it runs passes until its time is up.
func timedPasses(cfg *config, seconds float64) int {
	switch {
	case cfg.passes > 0:
		return cfg.passes
	case cfg.workload == "wire-longlived":
		return max(1, int(math.Round(seconds*wirePassesPerSecond)))
	}
	return 0
}

// firstPassCounts records the exact per-layer counters of the first
// timed pass: collective calls and elements, plan builds, and transport
// calls and bytes. Counts are thread participations divided by the
// thread count, i.e. whole collective calls.
func firstPassCounts(rec *recorder, c counts) {
	threads := threadCount()
	for _, k := range collectiveKinds {
		a := c.coll[k]
		rec.setExact("collective."+k+".calls", float64(a.calls)/threads)
		rec.setExact("collective."+k+".elements", float64(a.elements))
	}
	rec.setExact("collective.plan_builds", float64(c.builds)/threads)
	rec.setExact("collective.plan_reuses", float64(c.reuses)/threads)
	rec.setExact("collective.scratch_growths", float64(c.growths))
	w := c.wire
	rec.setExact("wire.get_calls", float64(w.getCalls))
	rec.setExact("wire.get_bytes", float64(w.getBytes))
	rec.setExact("wire.put_calls", float64(w.putCalls))
	rec.setExact("wire.put_bytes", float64(w.putBytes))
	rec.setExact("wire.putmin_calls", float64(w.putMinCalls))
	rec.setExact("wire.rendezvous_calls", float64(w.rdvCalls))
	rec.setExact("wire.sync_gets", float64(w.syncGets))
	rec.setExact("wire.sync_bytes", float64(w.syncBytes))
}

// reportTrace adds the traced phase's per-layer timings: per-pass
// collective and transport time, per-layer self time, and span counts.
func reportTrace(t *tracer, rec *recorder, s *sheet, passes int) {
	c := rec.tc
	threads := threadCount()
	per := func(ns int64) float64 { return float64(ns) / 1e6 / float64(passes) }
	for _, k := range collectiveKinds {
		s.set("collective."+k+".wall_ms", per(c.coll[k].wallNS)/threads, "ms", passes)
	}
	// Threads issue Gets, so their wait is a per-thread average; each
	// node's host issues the rendezvous and the replica sync, so those
	// are per-node averages, comparable with wall_s.
	w, nodes := c.wire, float64(machineConfig().Nodes)
	s.set("wire.get_wait_ms", per(w.getNS)/threads, "ms", passes)
	s.set("wire.rendezvous_wait_ms", per(w.rdvNS)/nodes, "ms", passes)
	s.set("wire.sync_ms", per(w.syncNS)/nodes, "ms", passes)
	// Collective and thread-issued transport spans are per thread: their
	// self time is a per-thread average, like collective.<kind>.wall_ms.
	// Host-issued transport (replica sync, rendezvous) is per node.
	self, host := t.selfTimes(rec.tcFrom)
	for l, ns := range self {
		if l >= layerCollective {
			ns /= threads
		}
		s.set("self."+layerNames[l]+"_ms", per(int64(ns)), "ms", passes)
	}
	s.set("self.host_transport_ms", per(int64(host/nodes)), "ms", passes)
	t.mu.Lock()
	s.set("trace.spans", float64(len(t.spans)), "count", 1)
	s.set("trace.dropped", float64(t.dropped), "count", 1)
	t.mu.Unlock()
}

// rssMB returns the process's current resident set size.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0, fmt.Errorf("parse /proc/self/statm: %w", err)
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20), nil
}

// copyExact reports the figures taken from the first timed pass.
func copyExact(rec *recorder, s *sheet) {
	for _, d := range perLayer {
		if v, ok := rec.exact[d.name]; ok {
			s.set(d.name, v, d.unit, 1)
		}
	}
}

// setups is how many times an untraced run sets its workload up; setup_s
// is their median.
const setups = 5

// carried are the untraced half's figures a traced run reports beside
// its per-layer metrics.
var carried = []string{"cc_ms", "msf_ms", "bfs_ms", "query_p50_us", "query_p99_us",
	"insert_p50_ms", "insert_p90_ms", "fail_ratio", "wire.cc_drift"}

func run(cfg *config) (*sheet, int64, int64, error) {
	if cfg.passes == 0 && cfg.seconds <= 0 {
		return nil, 0, 0, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	if _, err := newWorkload(cfg); err != nil {
		return nil, 0, 0, err
	}
	if !cfg.trace {
		p, err := measure(cfg, false, setups, cfg.seconds)
		if err != nil {
			return nil, 0, 0, err
		}
		return p.sheet, p.rec.attempted, p.rec.failed, nil
	}
	// A traced run measures an untraced half and a traced half, each on
	// a fresh set-up, so the difference of their wall_s is the tracing
	// overhead.
	plain, err := measure(cfg, false, 1, cfg.seconds/2)
	if err != nil {
		return nil, 0, 0, err
	}
	debug.FreeOSMemory()
	traced, err := measure(cfg, true, 1, cfg.seconds/2)
	if err != nil {
		return nil, 0, 0, err
	}
	s := traced.sheet
	for _, name := range carried {
		if r, ok := plain.sheet.get(name); ok {
			s.set(name, r.value, r.unit, r.samples)
		}
	}
	pw, _ := plain.sheet.get("wall_s")
	tw, _ := traced.sheet.get("wall_s")
	s.set("trace.overhead_s", tw.value-pw.value, "s", tw.samples)
	path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := traced.tracer.writeSpans(path); err != nil {
		return nil, 0, 0, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", path)
	return s, plain.rec.attempted + traced.rec.attempted, plain.rec.failed + traced.rec.failed, nil
}

func main() {
	cfg := &config{}
	flag.StringVar(&cfg.workload, "workload", "", "paper-inproc, wire-longlived, or serve-mix")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	flag.StringVar(&cfg.dir, "out", filepath.Join(".bench_build", "perfbench"), "directory for sockets and span files")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	s, attempted, failed, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	} else {
		for _, d := range endToEnd {
			if r, ok := s.get(d.name); !ok || r.value <= 0 {
				fmt.Fprintf(os.Stderr, "perfbench: %s: end-to-end metric %s missing or not positive\n", cfg.workload, d.name)
				os.Exit(1)
			}
		}
	}
	if err := emit(os.Stdout, s, defs, attempted, failed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// threadCount is the runtime thread count of machineConfig.
func threadCount() float64 {
	c := machineConfig()
	return float64(c.TotalThreads())
}
