// Social-network connectivity: the paper's motivating scenario for hybrid
// (scale-free + random) graphs. Hub users have degree O(sqrt(n)) — the
// load-balancing hazard §V discusses — yet edge-partitioned work plus
// coalesced collectives keep the distributed run balanced.
//
// The example builds a hybrid graph, reports its degree skew, finds its
// connected components (friend circles reachable from one another) on the
// simulated cluster, and shows the hub-induced hotspot is absent by
// comparing against a same-size uniform random graph.
//
//	go run ./examples/socialnetwork
package main

import (
	"fmt"
	"log"
	"sort"

	"pgasgraph"
)

func main() {
	const (
		users   = 300_000
		friends = 1_200_000
	)
	social := pgasgraph.HybridGraph(users, friends, 7)
	uniform := pgasgraph.RandomGraph(users, friends, 7)

	degrees := social.Degrees()
	sort.Slice(degrees, func(i, j int) bool { return degrees[i] > degrees[j] })
	fmt.Printf("social network: %d users, %d friendships\n", users, friends)
	fmt.Printf("top-5 hub degrees: %v (uniform expectation: %d)\n",
		degrees[:5], 2*friends/users)

	cfg := pgasgraph.PaperCluster()
	cfg.ThreadsPerNode = 8 // the paper's best configuration
	cluster, err := pgasgraph.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	spec := pgasgraph.KernelSpec{Kernel: "cc/coalesced", Col: pgasgraph.OptimizedCollectives(2), Compact: true}

	spec.Graph = social
	resSocial, err := cluster.Run(spec)
	if err != nil {
		log.Fatal(err)
	}
	spec.Graph = uniform
	resUniform, err := cluster.Run(spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncommunities (connected components): %d\n", resSocial.Components)
	fmt.Printf("hybrid graph:  %8.1f simulated ms (%d iterations)\n",
		resSocial.Run.SimMS(), resSocial.Iterations)
	fmt.Printf("uniform graph: %8.1f simulated ms (%d iterations)\n",
		resUniform.Run.SimMS(), resUniform.Iterations)
	fmt.Println("\nhubs do not hurt: work is partitioned by edges, reads/writes of a")
	fmt.Println("shared location are served by its single owner, and each thread pair")
	fmt.Println("exchanges at most one message per collective (paper §V).")

	// Size distribution of the largest communities.
	sizes := map[int64]int64{}
	for _, l := range resSocial.Labels {
		sizes[l]++
	}
	var bySize []int64
	for _, s := range sizes {
		bySize = append(bySize, s)
	}
	sort.Slice(bySize, func(i, j int) bool { return bySize[i] > bySize[j] })
	top := bySize
	if len(top) > 5 {
		top = top[:5]
	}
	fmt.Printf("\nlargest communities: %v of %d total\n", top, len(bySize))

	if want := pgasgraph.SequentialCC(social); !pgasgraph.SamePartition(want, resSocial.Labels) {
		log.Fatal("BUG: verification against union-find failed")
	}
	fmt.Println("verified against sequential union-find")
}
