package trace

import (
	"strings"
	"testing"
	"time"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	recovery "pgasgraph/internal/recover"
	"pgasgraph/internal/sim"
)

func newRuntime(t *testing.T, nodes, tpn int) *pgas.Runtime {
	t.Helper()
	cfg := machine.PaperCluster()
	cfg.Nodes = nodes
	cfg.ThreadsPerNode = tpn
	rt, err := pgas.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestCollectorDirect(t *testing.T) {
	c := NewCollector(4)
	var d sim.Breakdown
	d[sim.CatComm] = 1e6
	c.Collective("GetD", 0, d, 100, 1500*time.Nanosecond, 2)
	c.Collective("GetD", 1, d, 100, 500*time.Nanosecond, 1)
	c.Transfer(0, 1, 50)
	c.Transfer(0, 2, 70)
	c.Transfer(3, 0, 10)

	if got := c.Calls("GetD"); got != 0 {
		// 2 participations / 4 threads rounds down; record the rest.
		_ = got
	}
	c.Collective("GetD", 2, d, 100, 0, 0)
	c.Collective("GetD", 3, d, 100, 0, 0)
	if got := c.Calls("GetD"); got != 1 {
		t.Fatalf("Calls = %d, want 1", got)
	}
	if got := c.WallNS("GetD"); got != 2000 {
		t.Fatalf("WallNS = %d, want 2000", got)
	}
	if got := c.Growths("GetD"); got != 3 {
		t.Fatalf("Growths = %d, want 3", got)
	}
	if imb := c.Imbalance(); imb <= 1 {
		t.Fatalf("skewed loads must show imbalance > 1, got %v", imb)
	}

	var sb strings.Builder
	if err := c.CollectiveTable().Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "GetD") {
		t.Fatal("collective table missing kind")
	}
	sb.Reset()
	if err := c.LoadTable(2).Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hot pair") {
		t.Fatal("load table missing hot pairs")
	}

	c.Reset()
	if c.Calls("GetD") != 0 || c.Imbalance() != 1 {
		t.Fatal("Reset did not clear")
	}
}

func TestCollectorOnRealRun(t *testing.T) {
	rt := newRuntime(t, 4, 2)
	comm := collective.NewComm(rt)
	col := NewCollector(rt.NumThreads())
	comm.SetTracer(col)

	g := graph.Random(400, 1200, 5)
	res := cc.Coalesced(rt, comm, g, &cc.Options{Col: collective.Optimized(2), Compact: true})
	if res.Components <= 0 {
		t.Fatal("run failed")
	}
	if col.Calls("GetD") == 0 {
		t.Fatal("no GetD calls recorded")
	}
	if col.Calls("SetDMin") == 0 {
		t.Fatal("no SetDMin calls recorded")
	}
	if col.Imbalance() < 1 {
		t.Fatalf("imbalance %v below 1", col.Imbalance())
	}
	// A second run on the warm Comm must not grow scratch: the hot path
	// is allocation-free in steady state.
	g0 := col.Growths("GetD") + col.Growths("SetDMin")
	res2 := cc.Coalesced(rt, comm, g, &cc.Options{Col: collective.Optimized(2), Compact: true})
	if res2.Components != res.Components {
		t.Fatalf("warm rerun changed result: %d vs %d", res2.Components, res.Components)
	}
	if g1 := col.Growths("GetD") + col.Growths("SetDMin"); g1 != g0 {
		t.Fatalf("warm rerun grew collective scratch: %d new growths", g1-g0)
	}
	// Detaching stops recording.
	comm.SetTracer(nil)
	before := col.Calls("GetD")
	cc.Coalesced(rt, comm, g, &cc.Options{Col: collective.Optimized(2)})
	if col.Calls("GetD") != before {
		t.Fatal("detached tracer still recorded")
	}
}

func TestTracerSeesHotspot(t *testing.T) {
	// A star graph without offload: the label of the hub (vertex 0)
	// concentrates requests on thread 0's block.
	rt := newRuntime(t, 4, 1)
	comm := collective.NewComm(rt)
	col := NewCollector(rt.NumThreads())
	comm.SetTracer(col)
	g := graph.Star(2000)
	opts := &cc.Options{Col: &collective.Options{Circular: true}} // no offload
	cc.Coalesced(rt, comm, g, opts)
	if imb := col.Imbalance(); imb < 1.5 {
		t.Fatalf("star-graph hotspot not visible: imbalance %v", imb)
	}
}

// TestRecoveryCounters: a supervised run's recovery accounting folds into
// the collector and renders; Reset clears it.
func TestRecoveryCounters(t *testing.T) {
	rt := newRuntime(t, 4, 2)
	rt.ArmChaos(pgas.ChaosConfig{Seed: 3, KillRate: 0.0015, MaxAttempts: 8})
	g := graph.Hybrid(400, 1000, 0xD0D0)
	rep, err := recovery.Run(rt, nil, func(rt *pgas.Runtime, comm *collective.Comm) error {
		cc.Coalesced(rt, comm, g, nil)
		return nil
	})
	if err != nil {
		t.Skipf("supervised run exhausted its budget under this seed: %v", err)
	}
	c := NewCollector(rt.NumThreads())
	c.Recovery(rep.Checkpoints, rep.CheckpointBytes, rep.Restores,
		rep.RestoredBytes, rep.Rollbacks, len(rep.Evicted), rep.ReexecSupersteps)
	if c.CheckpointBytes() == 0 {
		t.Fatal("checkpoint payload not recorded")
	}
	if int(c.Rollbacks()) != rep.Rollbacks {
		t.Fatalf("Rollbacks = %d, want %d", c.Rollbacks(), rep.Rollbacks)
	}
	if rep.Rollbacks > 0 && c.ReexecSupersteps() == 0 {
		t.Fatal("rollbacks recorded but no re-executed supersteps")
	}
	var sb strings.Builder
	if err := c.RecoveryTable().Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rollbacks") || !strings.Contains(sb.String(), "checkpoints committed") {
		t.Fatal("recovery table missing rows")
	}
	c.Reset()
	if c.Rollbacks() != 0 || c.CheckpointBytes() != 0 {
		t.Fatal("Reset did not clear recovery counters")
	}
}
