// Degrees of separation: breadth-first search from a seed user over a
// scale-free social graph — and the §I lesson behind it. BFS costs one
// synchronized round per level, so its distributed running time is bound
// by the input's diameter; the example shows a low-diameter social graph
// racing through in a handful of levels while a same-size mesh crawls,
// with connected components (poly-log rounds) indifferent to both.
//
//	go run ./examples/separation
package main

import (
	"fmt"
	"log"
	"math"

	"pgasgraph"
)

func main() {
	cfg := pgasgraph.PaperCluster()
	cfg.ThreadsPerNode = 8
	cluster, err := pgasgraph.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}

	const users = 250_000
	social := pgasgraph.HybridGraph(users, 4*users, 13)
	side := int64(math.Sqrt(users))
	mesh := meshGraph(side)

	opts := pgasgraph.OptimizedCollectives(2)
	for _, in := range []struct {
		name string
		g    *pgasgraph.Graph
	}{
		{"social network", social},
		{fmt.Sprintf("%dx%d mesh", side, side), mesh},
	} {
		res, err := cluster.Run(pgasgraph.KernelSpec{Kernel: "bfs/coalesced", Graph: in.g, Col: opts})
		if err != nil {
			log.Fatal(err)
		}
		if want := pgasgraph.SequentialBFS(in.g, 0); !equal(res.Dist, want) {
			log.Fatalf("BUG: %s distances disagree with sequential BFS", in.name)
		}
		cc, err := cluster.Run(pgasgraph.KernelSpec{Kernel: "cc/coalesced", Graph: in.g, Col: opts, Compact: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s n=%-8d BFS: %7.1f ms in %4d levels | CC: %6.1f ms in %d iterations\n",
			in.name, in.g.N, res.Run.SimMS(), res.Iterations, cc.Run.SimMS(), cc.Iterations)

		if in.g == social {
			printSeparation(res.Dist)
		}
	}
	fmt.Println("\nBFS pays one synchronized round per level (Ω(diameter), §I);")
	fmt.Println("the PRAM-style CC kernel is topology-indifferent.")
}

// printSeparation summarizes the distance histogram from the seed.
func printSeparation(dist []int64) {
	hist := map[int64]int{}
	reached := 0
	for _, d := range dist {
		if d != pgasgraph.BFSUnreached {
			hist[d]++
			reached++
		}
	}
	fmt.Printf("  degrees of separation from user 0 (%d reached):\n", reached)
	for d := int64(0); ; d++ {
		c, ok := hist[d]
		if !ok {
			break
		}
		fmt.Printf("    %d hops: %d users\n", d, c)
	}
}

// meshGraph builds a side x side grid through the public Graph type.
func meshGraph(side int64) *pgasgraph.Graph {
	g := &pgasgraph.Graph{N: side * side}
	id := func(r, c int64) int32 { return int32(r*side + c) }
	for r := int64(0); r < side; r++ {
		for c := int64(0); c < side; c++ {
			if c+1 < side {
				g.U = append(g.U, id(r, c))
				g.V = append(g.V, id(r, c+1))
			}
			if r+1 < side {
				g.U = append(g.U, id(r, c))
				g.V = append(g.V, id(r+1, c))
			}
		}
	}
	return g
}

func equal(a, b []int64) bool {
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
