package pgasgraph

import (
	"testing"
)

// TestKernelsAcrossMachineConfigs runs every kernel family under machine
// variants that exercise different model paths: the modern calibration,
// RDMA, the hierarchical all-to-all, a starved cache, and a tiny node
// memory (paging). Results must be exact under all of them — the model
// changes time, never answers.
func TestKernelsAcrossMachineConfigs(t *testing.T) {
	variants := map[string]func() MachineConfig{
		"paper":  PaperCluster,
		"modern": ModernCluster,
		"rdma": func() MachineConfig {
			c := PaperCluster()
			c.RDMA = true
			return c
		},
		"hierarchical-a2a": func() MachineConfig {
			c := PaperCluster()
			c.HierarchicalA2A = true
			return c
		},
		"starved-cache": func() MachineConfig {
			c := PaperCluster()
			c.CacheBytes = 4096
			return c
		},
		"paging": func() MachineConfig {
			c := PaperCluster()
			c.NodeMemoryBytes = 1 << 16
			return c
		},
	}

	g := RandomGraph(400, 1200, 77)
	wg := WithRandomWeights(g, 78)
	l := RandomChainList(300, 79)
	wantCC := SequentialCC(g)
	wantMSF := Kruskal(wg)
	wantBFS := SequentialBFS(g, 3)
	wantSSSP := SequentialDijkstra(wg, 3)
	wantRanks := SequentialListRank(l)

	for name, mk := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := mk()
			cfg.Nodes = 4
			cfg.ThreadsPerNode = 2
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			col := OptimizedCollectives(2)
			if res := mustRun(t, c, KernelSpec{Kernel: "cc/coalesced", Graph: g, Col: col, Compact: true}); !SamePartition(wantCC, res.Labels) {
				t.Fatal("CC wrong")
			}
			if res := mustRun(t, c, KernelSpec{Kernel: "mst/coalesced", Graph: wg, Col: col, Compact: true}); res.Weight != wantMSF.Weight {
				t.Fatal("MSF wrong")
			}
			if res := mustRun(t, c, KernelSpec{Kernel: "bfs/coalesced", Graph: g, Src: 3, Col: col}); !int64sEqual(res.Dist, wantBFS) {
				t.Fatal("BFS wrong")
			}
			if res := c.SSSPDeltaStepping(wg, 3, 0, OptimizedCollectives(2)); !int64sEqual(res.Dist, wantSSSP) {
				t.Fatal("SSSP wrong")
			}
			if res := c.ListRankWyllie(l, OptimizedCollectives(2)); !int64sEqual(res.Ranks, wantRanks) {
				t.Fatal("list ranking wrong")
			}
		})
	}
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSimulatedTimeDeterministic asserts the collective kernels charge
// identical simulated time across repeated runs of the same configuration
// — the property that makes the experiments reproducible.
func TestSimulatedTimeDeterministic(t *testing.T) {
	g := RandomGraph(500, 1500, 9)
	run := func() float64 {
		cfg := PaperCluster()
		cfg.Nodes = 4
		cfg.ThreadsPerNode = 2
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, c, KernelSpec{Kernel: "cc/coalesced", Graph: g, Col: OptimizedCollectives(2), Compact: true}).Run.SimNS
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("simulated time not deterministic: %v vs %v", a, b)
	}
}

// TestPagingSlowsSimulatedTime asserts the paging model changes time (but
// nothing else) when the node memory starves.
func TestPagingSlowsSimulatedTime(t *testing.T) {
	g := RandomGraph(2000, 8000, 11)
	run := func(mem int64) float64 {
		cfg := PaperCluster()
		cfg.Nodes = 1
		cfg.ThreadsPerNode = 4
		if mem > 0 {
			cfg.NodeMemoryBytes = mem
		}
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := mustRun(t, c, KernelSpec{Kernel: "cc/naive", Graph: g})
		if !SamePartition(SequentialCC(g), res.Labels) {
			t.Fatal("paging changed answers")
		}
		return res.Run.SimNS
	}
	fits := run(0)
	paged := run(4096)
	if paged < 100*fits {
		t.Fatalf("paging (%v) not drastically slower than resident (%v)", paged, fits)
	}
}
