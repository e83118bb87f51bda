package recover_test

import (
	"reflect"
	"testing"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	recovery "pgasgraph/internal/recover"
	"pgasgraph/internal/seq"
)

func newRuntime(t *testing.T, nodes, tpn int) *pgas.Runtime {
	t.Helper()
	cfg := machine.PaperCluster()
	cfg.Nodes, cfg.ThreadsPerNode = nodes, tpn
	rt, err := pgas.New(cfg)
	if err != nil {
		t.Fatalf("pgas.New: %v", err)
	}
	return rt
}

// killChaos is a schedule with only the kill fault armed: evictions fire
// but the transient transport kinds stay silent, so every failure a test
// sees is the recovery machinery's.
func killChaos(seed uint64, rate float64) pgas.ChaosConfig {
	return pgas.ChaosConfig{Seed: seed, KillRate: rate, MaxAttempts: 8}
}

// superviseCC runs the Coalesced CC kernel under the recovery supervisor
// and returns the labels alongside the report.
func superviseCC(t *testing.T, g *graph.Graph, ccfg pgas.ChaosConfig, rcfg *recovery.Config) ([]int64, *recovery.Report, error) {
	t.Helper()
	rt := newRuntime(t, 4, 2)
	rt.ArmChaos(ccfg)
	var labels []int64
	rep, err := recovery.Run(rt, rcfg, func(rt *pgas.Runtime, comm *collective.Comm) error {
		labels = cc.Coalesced(rt, comm, g, nil).Labels
		return nil
	})
	return labels, rep, err
}

// TestRecoverCCUnderKills: kill threads mid-run; the supervisor must
// remap, roll back, and still produce the exact sequential answer.
func TestRecoverCCUnderKills(t *testing.T) {
	g := graph.Hybrid(600, 1500, 0x5EED)
	want := seq.CC(g)
	recovered := false
	for seed := uint64(1); seed <= 8; seed++ {
		labels, rep, err := superviseCC(t, g, killChaos(seed, 0.0015), nil)
		if err != nil {
			// Too many threads died for the budget: acceptable only if it
			// failed loudly as an eviction.
			if pgas.Evicted(err) == nil {
				t.Fatalf("seed %d: failure not an eviction: %v", seed, err)
			}
			continue
		}
		if !seq.SamePartition(want, labels) {
			t.Fatalf("seed %d: labels diverged from oracle after %d rollbacks", seed, rep.Rollbacks)
		}
		if rep.Rollbacks > 0 {
			recovered = true
			if len(rep.Evicted) == 0 || rep.Chaos.Kills == 0 {
				t.Fatalf("seed %d: rollbacks=%d but evicted=%v kills=%d",
					seed, rep.Rollbacks, rep.Evicted, rep.Chaos.Kills)
			}
			if rep.Restores == 0 {
				t.Fatalf("seed %d: recovery round never restored the registered D snapshot", seed)
			}
			if rep.Runtime.NumThreads() >= 8 {
				t.Fatalf("seed %d: rollbacks happened but final geometry not degraded", seed)
			}
		}
	}
	if !recovered {
		t.Fatal("no seed produced a successful rollback recovery — kill rate too low or supervisor inert")
	}
}

// TestRecoverDeterminism: the whole recovery run — evicted sets, rollback
// count, checkpoint totals, final labels — must replay bit-for-bit under
// the same seed.
func TestRecoverDeterminism(t *testing.T) {
	g := graph.Hybrid(400, 1000, 0xD0D0)
	ccfg := killChaos(3, 0.0015)
	la, ra, ea := superviseCC(t, g, ccfg, nil)
	lb, rb, eb := superviseCC(t, g, ccfg, nil)
	if (ea == nil) != (eb == nil) {
		t.Fatalf("verdicts diverged: %v vs %v", ea, eb)
	}
	if !reflect.DeepEqual(la, lb) {
		t.Fatal("labels diverged between identical supervised runs")
	}
	if ra.Rollbacks != rb.Rollbacks || !reflect.DeepEqual(ra.Evicted, rb.Evicted) {
		t.Fatalf("recovery paths diverged: rollbacks %d/%d evicted %v/%v",
			ra.Rollbacks, rb.Rollbacks, ra.Evicted, rb.Evicted)
	}
	if ra.Checkpoints != rb.Checkpoints || ra.CheckpointBytes != rb.CheckpointBytes ||
		ra.Restores != rb.Restores || ra.RestoredBytes != rb.RestoredBytes ||
		ra.ReexecSupersteps != rb.ReexecSupersteps || ra.Chaos != rb.Chaos {
		t.Fatalf("recovery accounting diverged:\n  A: %+v\n  B: %+v", ra, rb)
	}
}

// TestRecoverKillFree: with chaos disarmed the supervisor is transparent —
// one round, no rollbacks, oracle-exact answer, checkpoints committed.
func TestRecoverKillFree(t *testing.T) {
	g := graph.Hybrid(300, 700, 0xFACE)
	labels, rep, err := superviseCC(t, g, pgas.ChaosConfig{}, nil)
	if err != nil {
		t.Fatalf("kill-free supervised run failed: %v", err)
	}
	if rep.Rounds != 1 || rep.Rollbacks != 0 || len(rep.Evicted) != 0 {
		t.Fatalf("kill-free run took a recovery path: %+v", rep)
	}
	if !seq.SamePartition(seq.CC(g), labels) {
		t.Fatal("labels diverged from oracle")
	}
	if rep.Checkpoints == 0 || rep.CheckpointBytes == 0 {
		t.Fatalf("no checkpoints committed: %+v", rep)
	}
	if rep.Restores != 0 {
		t.Fatalf("kill-free run restored state: %+v", rep)
	}
}

// TestRecoverBudgets: an eviction that would drop below MinThreads must
// fail loudly as an eviction, and the retired runtime must refuse reuse
// with a classified misuse error.
func TestRecoverBudgets(t *testing.T) {
	g := graph.Hybrid(300, 700, 0xB00)
	rt := newRuntime(t, 4, 2)
	rt.ArmChaos(killChaos(1, 0.01))         // vicious: every attempt loses threads
	rcfg := &recovery.Config{MinThreads: 8} // any eviction is fatal
	rep, err := recovery.Run(rt, rcfg, func(rt *pgas.Runtime, comm *collective.Comm) error {
		cc.Coalesced(rt, comm, g, nil)
		return nil
	})
	if err == nil {
		t.Fatal("0.01 kill rate never evicted a thread")
	}
	if pgas.Evicted(err) == nil {
		t.Fatalf("budget exhaustion not reported as an eviction: %v", err)
	}
	if rep.Rollbacks != 0 {
		t.Fatalf("MinThreads=%d permitted a rollback: %+v", rcfg.MinThreads, rep)
	}
}
