// Package recover drives eviction recovery for the PGAS runtime: the
// rollback / remap / re-execute loop that turns a permanently lost thread
// (pgas.ErrEvicted, injected by the chaos layer's Kill fault or — on a
// wire transport — detected as a real peer-process death) into a
// degraded-but-correct completion. The loop is transport-agnostic: on a
// wire cluster Evict runs the epoch-stamped membership agreement, so every
// surviving process's supervisor converges on the same shrunk geometry.
//
// The state machine per attempt:
//
//	run body ──ok──────────────────────────────▶ done
//	   │
//	   └─ ErrEvicted(threads T)
//	        │  budget left and enough survivors?
//	        ├─ no ──────────────────────────────▶ fail loudly (classified)
//	        └─ yes: Evict(T) → remapped runtime
//	                re-arm chaos (same seed)
//	                Rebind checkpoints (restore-on-register)
//	                fresh Comm (plans must rebuild: geometry changed)
//	                run body again          ──▶ loop
//
// The body is re-executed whole on the remapped geometry; kernels that
// registered monotone per-vertex state through the pgas.Registrar get it
// restored at registration time — the last committed superstep snapshot,
// re-blocked over the survivors — so re-execution resumes from the last
// checkpoint rather than from scratch. Everything is deterministic under
// the chaos seed: evicted sets are collected scheduling-independently
// (pgas.EvictionError), the re-armed injector draws a fresh stream for
// the new geometry from the same seed, and the restored snapshots are
// quiesced superstep boundaries — so a whole recovery run, rollbacks
// included, replays bit-for-bit.
package recover

import (
	"pgasgraph/internal/collective"
	"pgasgraph/internal/pgas"
)

// Config bounds the recovery loop.
type Config struct {
	// MaxRollbacks is how many evictions the supervisor tolerates before
	// giving up (default 2). On the last permitted attempt the injector is
	// re-armed with kills disabled, so a bounded-rollback run always
	// terminates: it completes, or fails loudly with a transient class.
	MaxRollbacks int
	// MinThreads is the smallest geometry worth continuing on (default 2);
	// an eviction that would drop below it fails loudly instead.
	MinThreads int
	// Every is the checkpoint cadence in barriers (default 1: every
	// superstep boundary).
	Every int
}

func (c *Config) maxRollbacks() int {
	if c == nil || c.MaxRollbacks <= 0 {
		return 2
	}
	return c.MaxRollbacks
}

func (c *Config) minThreads() int {
	if c == nil || c.MinThreads <= 0 {
		return 2
	}
	return c.MinThreads
}

func (c *Config) every() int {
	if c == nil {
		return 1
	}
	return c.Every
}

// Report aggregates one supervised run, across every attempt.
type Report struct {
	// Rounds is the number of body executions (1 + Rollbacks).
	Rounds int
	// Rollbacks counts evictions recovered from.
	Rollbacks int
	// Evicted lists every evicted thread id in eviction order; ids are
	// numbered in the geometry they were evicted from (survivors renumber
	// densely after each eviction).
	Evicted []int
	// Checkpoints / CheckpointBytes / Restores / RestoredBytes total the
	// checkpoint manager's activity.
	Checkpoints     uint64
	CheckpointBytes int64
	Restores        int64
	RestoredBytes   int64
	// ReexecSupersteps counts the barriers completed by failed attempts:
	// the re-executed (thrown-away-and-redone) superstep work rollback
	// cost, beyond the checkpoint copies themselves.
	ReexecSupersteps uint64
	// Chaos sums the injector's counters across every attempt's runtime.
	Chaos pgas.ChaosStats
	// Runtime and Comm are the final (possibly degraded) geometry the body
	// completed — or gave up — on.
	Runtime *pgas.Runtime
	Comm    *collective.Comm
}

// Body is one supervised unit of work: typically "run the kernel and
// check its answer". It must treat rt and comm as the only valid
// geometry — a recovery round hands it a remapped runtime and a fresh
// Comm — and re-create its arrays through them, registering recoverable
// state via pgas.Register. It may return classified failures or panic
// with them (kernels' poisoned barriers); unclassified panics propagate.
type Body func(rt *pgas.Runtime, comm *collective.Comm) error

// Run supervises body on rt with superstep checkpointing armed,
// recovering from thread evictions until the body completes, the rollback
// budget is spent, or too few threads survive. The returned Report always
// describes what happened; err is nil exactly when the body completed.
// Chaos, if armed on rt, is re-armed with the same configuration (same
// seed) on each remapped runtime — with kills disabled on the final
// permitted attempt so the loop cannot evict forever.
func Run(rt *pgas.Runtime, cfg *Config, body Body) (*Report, error) {
	rep := &Report{}
	ck := rt.ArmCheckpoints(cfg.every())
	comm := collective.NewComm(rt)
	maxRB := cfg.maxRollbacks()
	for {
		rep.Rounds++
		rep.Runtime, rep.Comm = rt, comm
		startBarriers := ck.Barriers()
		err := runBody(rt, comm, body)
		if err == nil {
			rep.fold(rt, ck)
			return rep, nil
		}
		dead := pgas.Evicted(err)
		if dead == nil {
			rep.fold(rt, ck)
			return rep, err
		}
		rep.ReexecSupersteps += ck.Barriers() - startBarriers
		if rep.Rollbacks >= maxRB || rt.NumThreads()-len(dead) < cfg.minThreads() {
			rep.fold(rt, ck)
			return rep, err
		}
		ccfg, chaosArmed := rt.ChaosConfig()
		rep.Chaos.Add(rt.ChaosStats()) // the retired runtime's counters
		nrt, everr := rt.Evict(dead)
		if everr != nil {
			rep.fold(rt, ck)
			return rep, err
		}
		if chaosArmed {
			if rep.Rollbacks+1 >= maxRB {
				// Last permitted attempt: keep the transient fault kinds
				// (the seed's schedule continues to bite) but stop
				// evicting, so the loop terminates.
				ccfg.KillRate = 0
			}
			nrt.ArmChaos(ccfg)
		}
		ck.Rebind(nrt)
		// Record what Evict actually removed, not just the local proposal:
		// on a wire transport the cluster-wide agreement may widen the dead
		// set (peers fold in their own detections), and the remapped
		// runtime's ledger is the authority. In-process the delta equals
		// dead exactly.
		rep.Evicted = append(rep.Evicted, nrt.EvictedThreads()[len(rt.EvictedThreads()):]...)
		rt, comm = nrt, collective.NewComm(nrt)
		rep.Rollbacks++
	}
}

// runBody executes one attempt, converting classified panics (a poisoned
// barrier unwinding out of a kernel, an EvictionError) into
// error returns. Unclassified panics — kernel bugs — propagate.
func runBody(rt *pgas.Runtime, comm *collective.Comm, body Body) (err error) {
	defer pgas.Recover(&err)
	return body(rt, comm)
}

// fold totals the checkpoint and chaos counters into the report. The
// final runtime's chaos counters are added here; retired runtimes'
// counters were folded when they were evicted.
func (rep *Report) fold(rt *pgas.Runtime, ck *pgas.Checkpointer) {
	rep.Checkpoints, rep.CheckpointBytes, rep.Restores, rep.RestoredBytes = ck.Stats()
	rep.Chaos.Add(rt.ChaosStats())
}
