package serve

import (
	"fmt"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/pgas"
	rec "pgasgraph/internal/recover"
	"pgasgraph/internal/seq"
)

// Edge is one inserted edge. W is used only when the resident graph is
// weighted.
type Edge struct {
	U int64  `json:"u"`
	V int64  `json:"v"`
	W uint32 `json:"w,omitempty"`
}

// InsertReport describes how an insertion batch was absorbed.
type InsertReport struct {
	// Edges is the number of edges appended.
	Edges int
	// Incremental is true when the resident labels were updated by the
	// graft/propagate kernel; false when they were rebuilt from scratch
	// (no labels resident, or the supervised fallback ran).
	Incremental bool
	// Rounds is the update's graft/shortcut round count (incremental) or
	// the recompute kernel's iteration count.
	Rounds int
	// Rollbacks counts recovery rollbacks taken by the supervised
	// fallback (0 on the incremental path).
	Rollbacks int
	// Components is the post-insertion component count.
	Components int64
	// Verified is true when Config.Verify differentially checked the
	// update against a from-scratch recompute.
	Verified bool
	// Run carries the label update's simulated-time accounting (nil when
	// no labels were resident).
	Run *pgas.Result
}

// Insert appends edges to the resident graph and brings the resident
// results up to date. Component labels update incrementally: the labels
// array is the monotone component-minimum labeling, so an insertion batch
// is a graft plus label-min propagation over only the new edges
// (cc.Incremental) — bit-identical to a from-scratch recompute on the
// mutated graph. If the incremental update is cut down by a classified
// runtime failure, the fallback re-executes the full labeling kernel
// under the internal/recover supervisor. Distance trees and the spanning
// forest do not update incrementally; they are dropped and must be re-run
// (documented contract, docs/SERVING.md).
func (s *Service) Insert(edges []Edge) (*InsertReport, error) {
	rep := &InsertReport{Edges: len(edges)}
	if len(edges) == 0 {
		rep.Components = s.components
		return rep, nil
	}
	for i, e := range edges {
		if e.U < 0 || e.U >= s.g.N || e.V < 0 || e.V >= s.g.N {
			return nil, pgas.Errorf(pgas.ErrMisuse, -1, "serve.insert",
				"edge %d = (%d,%d) out of range n=%d", i, e.U, e.V, s.g.N)
		}
	}

	eu := make([]int64, len(edges))
	ev := make([]int64, len(edges))
	for i, e := range edges {
		s.g.U = append(s.g.U, int32(e.U))
		s.g.V = append(s.g.V, int32(e.V))
		if s.g.Weighted() {
			s.g.W = append(s.g.W, e.W)
		}
		eu[i], ev[i] = e.U, e.V
	}

	// Trees and forests have no incremental contract: a new edge can
	// shorten any distance and re-root any subtree. Drop them.
	for src := range s.trees {
		delete(s.trees, src)
		delete(s.distGroup, src)
	}
	s.parent = nil
	s.parGroup = gatherGroup{}

	if s.labels == nil {
		return rep, nil
	}

	res, err := s.incremental(eu, ev)
	if err == nil {
		rep.Incremental = true
		rep.Rounds = res.Iterations
		rep.Run = res.Run
		s.refreshSizes()
	} else {
		if err = s.superviseRecompute(rep); err != nil {
			return nil, err
		}
	}
	rep.Components = s.components

	if s.cfg.Verify {
		if err := s.verifyLabels(); err != nil {
			return nil, err
		}
		rep.Verified = true
	}
	return rep, nil
}

// incremental grafts the new edges into the resident labels, returning a
// classified runtime failure (a fault that cut the update down) as an
// error so Insert can fall back to a supervised full recompute.
func (s *Service) incremental(eu, ev []int64) (res *cc.Result, err error) {
	defer pgas.Recover(&err)
	return cc.Incremental(s.rt, s.comm, s.labels, eu, ev, &cc.Options{Col: s.labelSpec.Col}), nil
}

// superviseRecompute is the fallback label path: full re-execution of the
// resident labeling spec under the recover supervisor (rollback, remap
// onto survivors, re-execute). On success the service rebinds to the
// supervisor's final — possibly degraded — geometry and reinstalls the
// resident arrays there.
func (s *Service) superviseRecompute(rep *InsertReport) error {
	var full *KernelResult
	spec := s.labelSpec
	spec.Graph = s.g
	rrep, err := rec.Run(s.rt, s.cfg.Recover, func(rt *pgas.Runtime, comm *collective.Comm) error {
		res, err := RunKernel(rt, comm, spec)
		if err == nil {
			full = res
		}
		return err
	})
	// The supervisor may have evicted threads: adopt its final runtime
	// and collective state, and rebuild everything resident — arrays and
	// plans are bound to the old geometry.
	s.rt, s.comm = rrep.Runtime, rrep.Comm
	s.invalidatePlans()
	rep.Rollbacks = rrep.Rollbacks
	if err != nil {
		s.labels, s.sizes, s.components = nil, nil, 0
		return err
	}
	s.installLabels(full.Labels)
	rep.Rounds = full.Iterations
	rep.Run = full.Run
	return nil
}

// refreshSizes rebuilds the resident size array and component count from
// the (just updated) resident labels. Labels merged but the array object
// is unchanged, so cached query plans stay valid — they re-gather live
// values on the next execution.
func (s *Service) refreshSizes() {
	labels := s.labels.Raw()
	raw := s.sizes.Raw()
	for i := range raw {
		raw[i] = 0
	}
	for _, l := range labels {
		raw[l]++
	}
	s.components = seq.CountComponents(labels)
}

// verifyLabels differentially checks the resident labeling against a
// from-scratch run of the resident labeling spec on a scratch cluster of
// the same geometry: label-for-label bit identity, not just the same
// partition. A mismatch is an incremental-update bug, reported loudly.
func (s *Service) verifyLabels() error {
	rt, err := pgas.New(s.cfg.Machine)
	if err != nil {
		return fmt.Errorf("serve: verify cluster: %v", err)
	}
	spec := s.labelSpec
	spec.Graph = s.g
	full, err := RunKernel(rt, collective.NewComm(rt), spec)
	if err != nil {
		return fmt.Errorf("serve: verify recompute: %w", err)
	}
	got := s.labels.Raw()
	for i, want := range full.Labels {
		if got[i] != want {
			return fmt.Errorf(
				"serve: incremental labels diverge from recompute at vertex %d: got %d, want %d",
				i, got[i], want)
		}
	}
	return nil
}
