package serve

import (
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/pgas/wiretransport"
	"pgasgraph/internal/sim"
)

// syncBurst is one region's end-of-region replica sync as the transport
// sees it: the host-issued (nil-thread) Gets between two rendezvous.
type syncBurst struct{ gets, bytes int64 }

// countingTransport is a pgas.Transport decorator that records each
// region's replica sync and the set of live windows (exposed and not yet
// dropped). Its counts are deterministic: they depend on the kernel's
// allocation and region sequence, not on timing.
type countingTransport struct {
	pgas.Transport
	mu     sync.Mutex
	live   map[pgas.Win]bool
	cur    syncBurst
	bursts []syncBurst
}

func (c *countingTransport) Expose(w pgas.Win, data []int64) {
	c.Transport.Expose(w, data)
	c.mu.Lock()
	c.live[w] = true
	c.mu.Unlock()
}

func (c *countingTransport) DropWindows(mark uint32) {
	c.Transport.DropWindows(mark)
	c.mu.Lock()
	for w := range c.live {
		if w.ID > mark {
			delete(c.live, w)
		}
	}
	c.mu.Unlock()
}

func (c *countingTransport) Get(th *pgas.Thread, node int, w pgas.Win, off int64, dst []int64) error {
	if th == nil {
		c.mu.Lock()
		c.cur.gets++
		c.cur.bytes += int64(len(dst)) * sim.ElemBytes
		c.mu.Unlock()
	}
	return c.Transport.Get(th, node, w, off, dst)
}

func (c *countingTransport) Rendezvous(localMax float64) (float64, error) {
	c.mu.Lock()
	if c.cur.gets > 0 {
		c.bursts = append(c.bursts, c.cur)
		c.cur = syncBurst{}
	}
	c.mu.Unlock()
	return c.Transport.Rendezvous(localMax)
}

// take returns and clears the sync bursts recorded since the last call,
// with the current live window count.
func (c *countingTransport) take() ([]syncBurst, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.bursts
	c.bursts = nil
	return b, len(c.live)
}

// wireReplica is one node of a goroutine-hosted wire cluster.
type wireReplica struct {
	tr   *wiretransport.Transport
	ct   *countingTransport
	rt   *pgas.Runtime
	comm *collective.Comm
}

func wireMachine(nodes, tpn int) machine.Config {
	cfg := machine.PaperCluster()
	cfg.Nodes, cfg.ThreadsPerNode = nodes, tpn
	return cfg
}

// startWireCluster assembles a unix-socket cluster of cfg's geometry in
// this process, one runtime replica per node over a counting transport,
// the way internal/verify hosts its conformance clusters.
func startWireCluster(t *testing.T, cfg machine.Config) []*wireReplica {
	t.Helper()
	// os.MkdirTemp keeps socket paths short; t.TempDir embeds the test name.
	dir, err := os.MkdirTemp("", "pgasscope")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	reps := make([]*wireReplica, cfg.Nodes)
	errs := make([]error, cfg.Nodes)
	var wg sync.WaitGroup
	for nd := range reps {
		wg.Add(1)
		go func(nd int) {
			defer wg.Done()
			tr, err := wiretransport.Connect(wiretransport.Config{
				Nodes: cfg.Nodes, Node: nd, ThreadsPerNode: cfg.ThreadsPerNode, Dir: dir, Timeout: 20 * time.Second,
			})
			if err != nil {
				errs[nd] = err
				return
			}
			ct := &countingTransport{Transport: tr, live: map[pgas.Win]bool{}}
			rt, err := pgas.NewOnTransport(cfg, ct)
			if err != nil {
				tr.Close()
				errs[nd] = err
				return
			}
			reps[nd] = &wireReplica{tr: tr, ct: ct, rt: rt, comm: collective.NewComm(rt)}
		}(nd)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, r := range reps {
			if r != nil {
				r.tr.Close()
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return reps
}

// onAll runs f on every replica concurrently (the SPMD discipline) and
// returns each node's error.
func onAll(reps []*wireReplica, f func(nd int, r *wireReplica) error) []error {
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for nd, r := range reps {
		wg.Add(1)
		go func(nd int, r *wireReplica) {
			defer wg.Done()
			defer pgas.Recover(&errs[nd])
			errs[nd] = f(nd, r)
		}(nd, r)
	}
	wg.Wait()
	return errs
}

// runState is what one kernel call leaves behind on one replica.
type runState struct {
	bursts  []syncBurst
	windows int
	arrays  int
}

// TestRunKernelBoundedSync pins ROADMAP item 2 with counters, not wall
// time: on one long-lived 2-node × 2-thread wire cluster, 100 rounds of
// cc/coalesced, bfs/coalesced and mst/coalesced through RunKernel leave
// every replica's per-region sync (host Gets and bytes), live window count
// and live array count exactly where the first round left them, and every
// round reproduces the in-process answer and simulated time.
func TestRunKernelBoundedSync(t *testing.T) {
	const runs = 100
	cfg := wireMachine(2, 2)
	g := graph.Random(512, 2048, 7)
	gw := graph.WithRandomWeights(g, 8)
	specs := []KernelSpec{
		{Kernel: "cc/coalesced", Graph: g, Compact: true},
		{Kernel: "bfs/coalesced", Graph: g, Src: 5},
		{Kernel: "mst/coalesced", Graph: gw, Compact: true},
	}
	ref := make([]*KernelResult, len(specs))
	for i, spec := range specs {
		rt, err := pgas.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref[i], err = RunKernel(rt, collective.NewComm(rt), spec); err != nil {
			t.Fatalf("in-process %s: %v", spec.Kernel, err)
		}
	}

	reps := startWireCluster(t, cfg)
	first := make([][]runState, len(specs)) // [spec][node]
	for run := 1; run <= runs; run++ {
		for i, spec := range specs {
			res := make([]*KernelResult, len(reps))
			states := make([]runState, len(reps))
			errs := onAll(reps, func(nd int, r *wireReplica) error {
				var err error
				res[nd], err = RunKernel(r.rt, r.comm, spec)
				st := &states[nd]
				st.bursts, st.windows = r.ct.take()
				st.arrays = r.rt.LiveArrays()
				return err
			})
			if err := errors.Join(errs...); err != nil {
				t.Fatalf("run %d %s: %v", run, spec.Kernel, err)
			}
			// mst/coalesced gathers its edge list per thread, so each
			// replica holds its own threads' share: the cluster's answer
			// is the sum of the replicas' checksums.
			var sum int64
			for nd, r := range res {
				if r.Run.SimNS != ref[i].Run.SimNS {
					t.Fatalf("run %d %s node %d: SimNS %v, in-process %v", run, spec.Kernel, nd, r.Run.SimNS, ref[i].Run.SimNS)
				}
				if spec.Kernel != "mst/coalesced" && r.Sum() != ref[i].Sum() {
					t.Fatalf("run %d %s node %d: Sum %d, in-process %d", run, spec.Kernel, nd, r.Sum(), ref[i].Sum())
				}
				sum += r.Sum()
			}
			if spec.Kernel == "mst/coalesced" && sum != ref[i].Sum() {
				t.Fatalf("run %d mst/coalesced: replica sums total %d, in-process %d", run, sum, ref[i].Sum())
			}
			for nd, st := range states {
				if len(st.bursts) == 0 {
					t.Fatalf("run %d %s node %d: no replica sync recorded", run, spec.Kernel, nd)
				}
				if st.arrays != 0 {
					t.Fatalf("run %d %s node %d: %d arrays outlive the call", run, spec.Kernel, nd, st.arrays)
				}
			}
			if run == 1 {
				first[i] = states
				continue
			}
			if !reflect.DeepEqual(states, first[i]) {
				t.Fatalf("run %d %s: per-node sync/windows/arrays drifted from run 1:\n  run 1   %+v\n  run %-3d %+v",
					run, spec.Kernel, first[i], run, states)
			}
		}
	}
}

// TestReleasedArrayUseIsMisuse: an array a dispatched kernel allocated is
// released when the kernel returns. On a wire cluster a later region that
// reads it from its owner fails with a classified ErrMisuse (the owner
// answers "bad window") and never returns stale replica data. In process
// the scope does nothing: the array stays ordinary shared memory and the
// later region reads the values the kernel wrote.
func TestReleasedArrayUseIsMisuse(t *testing.T) {
	const n = 64
	var mu sync.Mutex
	kept := map[*pgas.Runtime]*pgas.SharedArray{}
	saved := registry
	t.Cleanup(func() { registry = saved })
	registry = append(registry[:len(registry):len(registry)], kernelEntry{
		name: "test/keep-array",
		run: func(rt *pgas.Runtime, comm *collective.Comm, spec *KernelSpec) *KernelResult {
			a := rt.NewSharedArray("kept", n)
			res := rt.Run(func(th *pgas.Thread) {
				lo, hi := a.LocalRange(th.ID)
				for i := lo; i < hi; i++ {
					a.StoreRaw(i, 1000+i)
				}
				th.Barrier()
			})
			mu.Lock()
			kept[rt] = a
			mu.Unlock()
			return &KernelResult{Kernel: spec.Kernel, Run: res}
		},
	})
	spec := KernelSpec{Kernel: "test/keep-array", Graph: graph.Random(n, 2*n, 3)}
	const idx = n - 1 // owned by the last node
	// readLast has thread 0 read idx once; every other thread only joins
	// the region.
	readLast := func(rt *pgas.Runtime, got *int64) error {
		a := kept[rt]
		_, err := rt.RunE(func(th *pgas.Thread) {
			if th.ID == 0 {
				*got = th.Get(a, idx, sim.CatWork)
			}
		})
		return err
	}

	// In process: the released array still reads back.
	rt, err := pgas.New(wireMachine(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunKernel(rt, collective.NewComm(rt), spec); err != nil {
		t.Fatal(err)
	}
	var got int64
	if err := readLast(rt, &got); err != nil || got != 1000+idx {
		t.Fatalf("in-process read after release = %d, %v; want %d", got, err, 1000+idx)
	}

	// Wire: the owner no longer serves the window.
	reps := startWireCluster(t, wireMachine(2, 1))
	errs := onAll(reps, func(nd int, r *wireReplica) error {
		_, err := RunKernel(r.rt, r.comm, spec)
		return err
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for nd, r := range reps {
		if r.rt.LiveArrays() != 0 {
			t.Fatalf("node %d: %d arrays outlive the kernel", nd, r.rt.LiveArrays())
		}
	}
	reads := make([]int64, len(reps))
	for i := range reads {
		reads[i] = -1
	}
	errs = onAll(reps, func(nd int, r *wireReplica) error {
		return readLast(r.rt, &reads[nd])
	})
	if !errors.Is(errs[0], pgas.ErrMisuse) {
		t.Fatalf("node 0 read of a released array: %v, want ErrMisuse", errs[0])
	}
	if reads[0] != -1 {
		t.Fatalf("node 0 read %d from a released array", reads[0])
	}
	// Node 1 never touched the array; it unwinds with node 0's abort.
	if !errors.Is(errs[1], pgas.ErrTransport) {
		t.Fatalf("node 1: %v, want node 0's abort (ErrTransport)", errs[1])
	}
}
