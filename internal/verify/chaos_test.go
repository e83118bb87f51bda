package verify

import (
	"errors"
	"testing"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/xrand"
)

// sampleMultiNodeTrial draws trials until one lands on a multi-node
// machine, so remote traffic (the only kind chaos faults) exists.
func sampleMultiNodeTrial(t *testing.T, salt uint64) *Trial {
	t.Helper()
	for round := 0; ; round++ {
		rng := xrand.New(0xBEEF ^ salt).Split(uint64(round))
		tr := SampleTrial(rng, round, 200)
		if tr.Machine.Nodes >= 2 {
			return tr
		}
	}
}

// chaosCompare runs two soaks with identical configs and fails the test
// on the first trial whose outcome or exact fault counters differ — the
// bit-for-bit determinism guarantee -chaos replay depends on.
func chaosCompare(t *testing.T, cfg ChaosRunConfig) (*ChaosReport, *ChaosReport) {
	t.Helper()
	a := ChaosRun(cfg)
	b := ChaosRun(cfg)
	if len(a.Trials) != len(b.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(a.Trials), len(b.Trials))
	}
	for i := range a.Trials {
		ta, tb := &a.Trials[i], &b.Trials[i]
		if ta.Outcome != tb.Outcome || ta.Check != tb.Check || ta.Stats != tb.Stats {
			t.Errorf("trial %d diverged:\n  A: %s %s stats=%+v\n  B: %s %s stats=%+v",
				ta.Round, ta.Check, ta.Outcome, ta.Stats, tb.Check, tb.Outcome, tb.Stats)
		}
	}
	if a.Digest() != b.Digest() {
		t.Errorf("digests differ: %#x vs %#x", a.Digest(), b.Digest())
	}
	return a, b
}

// TestChaosDeterminism: the same (seed, trials, maxn) must reproduce the
// same fault schedule and the same outcomes, trial for trial.
func TestChaosDeterminism(t *testing.T) {
	reps := 1
	if !testing.Short() {
		reps = 2
	}
	for i := 0; i < reps; i++ {
		a, _ := chaosCompare(t, ChaosRunConfig{Seed: 0xC4A05, Trials: 12, MaxN: 150})
		if a.Stats.Faults() == 0 {
			t.Fatalf("soak injected no faults — chaos layer never armed?")
		}
	}
}

// TestChaosDeterminismHeavy: a full-size soak compared trial-for-trial.
// This width is what exposed the barrier-completion race (a waiter whose
// generation had already released could spuriously observe a later
// breakBarrier and unwind early, making survivor progress after a
// classified failure scheduling-dependent) — keep it wide.
func TestChaosDeterminismHeavy(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy soak comparison skipped in -short")
	}
	chaosCompare(t, ChaosRunConfig{Seed: 1, Trials: 200, MaxN: 400})
}

// TestChaosSoakSmall: a short soak must finish with zero hangs and zero
// silent wrong answers; faults must actually have been injected.
func TestChaosSoakSmall(t *testing.T) {
	trials := 10
	if !testing.Short() {
		trials = 25
	}
	rep := ChaosRun(ChaosRunConfig{Seed: 99, Trials: trials, MaxN: 200})
	if !rep.OK() {
		for i := range rep.Trials {
			tr := &rep.Trials[i]
			if tr.Outcome == ChaosWrongAnswer || tr.Outcome == ChaosHang {
				t.Errorf("trial %d (%s): %s: %v\n  trial: %s", tr.Round, tr.Check, tr.Outcome, tr.Err, tr.Trial)
			}
		}
	}
	if rep.Stats.Faults() == 0 {
		t.Fatalf("soak injected no faults")
	}
	if rep.Recovered == 0 {
		t.Fatalf("no trial recovered — retry layer never absorbed a fault schedule")
	}
}

// TestChaosKillSoak: a kill-rotation soak must see zero hangs and zero
// silent wrong answers; at least one trial must actually evict a thread
// and recover by rollback (otherwise the rotation is inert), and the
// whole soak must replay digest-identical.
//
// The soak runs its full 30 trials in -short mode too: the rotation walks
// the battery in order, so a shorter soak covers only its first rows,
// whose small trials never draw a kill at the sampled rates.
func TestChaosKillSoak(t *testing.T) {
	cfg := ChaosRunConfig{Seed: 0x51CC, Trials: 30, MaxN: 200, Kill: true}
	a := ChaosRun(cfg)
	if !a.OK() {
		for i := range a.Trials {
			tr := &a.Trials[i]
			if tr.Outcome == ChaosWrongAnswer || tr.Outcome == ChaosHang {
				t.Errorf("trial %d (%s): %s: %v\n  trial: %s", tr.Round, tr.Check, tr.Outcome, tr.Err, tr.Trial)
			}
		}
	}
	if a.Stats.Kills == 0 {
		t.Fatal("kill soak never killed a thread — kill rotation inert")
	}
	if a.RecoveredByRollback == 0 {
		t.Fatal("no trial recovered by rollback")
	}
	b := ChaosRun(cfg)
	if a.Digest() != b.Digest() {
		t.Fatalf("kill soak digests differ: %#x vs %#x", a.Digest(), b.Digest())
	}
}

// TestChaosKillOffPreservesSchedules: with Kill false the soak must
// replay the exact pre-kill-mode schedule — the kill feature must not
// shift the sampling stream or the per-trial fault schedules of existing
// soaks (their digests are regression anchors).
func TestChaosKillOffPreservesSchedules(t *testing.T) {
	cfg := ChaosRunConfig{Seed: 99, Trials: 8, MaxN: 150}
	a := ChaosRun(cfg)
	if a.Stats.Kills != 0 {
		t.Fatalf("kill-off soak recorded %d kills", a.Stats.Kills)
	}
	for i := range a.Trials {
		if a.Trials[i].Rollbacks != 0 {
			t.Fatalf("kill-off trial %d rolled back", i)
		}
	}
}

// TestRunCheckChaosClassified: with a starved retry budget and vicious
// drop rate, a multi-node trial must fail loudly with a classified
// transport error — never silently, never unclassified.
func TestRunCheckChaosClassified(t *testing.T) {
	var c Check
	for _, cand := range Checks() {
		if cand.Name == "cc/coalesced" {
			c = cand
			break
		}
	}
	if c.Run == nil {
		t.Fatal("cc/coalesced check not found")
	}
	ccfg := pgas.DefaultChaos(7)
	ccfg.DropRate = 0.9
	ccfg.MaxAttempts = 1
	seen := false
	for round := 0; round < 8 && !seen; round++ {
		tr := sampleMultiNodeTrial(t, uint64(round))
		stats, err := RunCheckChaos(c, tr, ccfg)
		if err == nil {
			continue // graph landed entirely node-local; no remote traffic
		}
		if !errors.Is(err, pgas.ErrTimeout) && !errors.Is(err, pgas.ErrTransport) && !errors.Is(err, pgas.ErrCorrupt) {
			t.Fatalf("failure not classified: %v", err)
		}
		if stats.Drops == 0 {
			t.Fatalf("classified failure with no recorded drops: %+v", stats)
		}
		seen = true
	}
	if !seen {
		t.Fatal("no trial produced remote traffic under a 0.9 drop rate")
	}
}
