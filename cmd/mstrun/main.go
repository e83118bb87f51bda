// Command mstrun runs a minimum-spanning-forest kernel on a weighted graph
// file and reports simulated time, forest weight, and the baselines.
//
// Usage:
//
//	mstrun -algo coalesced -nodes 16 -threads 8 graph.pgg
//	mstrun -algo naive -nodes 1 -threads 16 graph.pgg   # MST-SMP baseline
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"pgasgraph"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
)

func main() {
	algo := flag.String("algo", "coalesced", "algorithm: naive | coalesced")
	nodes := flag.Int("nodes", 16, "cluster nodes")
	threads := flag.Int("threads", 8, "threads per node")
	tprime := flag.Int("tprime", 2, "virtual threads t'")
	verify := flag.Bool("verify", true, "verify against sequential Kruskal")
	machineFile := flag.String("machine", "", "machine model JSON file (default: paper cluster)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mstrun [flags] graph.pgg")
		flag.PrintDefaults()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	g, err := graph.ReadBinary(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	if !g.Weighted() {
		fatal(fmt.Errorf("%s is unweighted; regenerate with graphgen -weighted", flag.Arg(0)))
	}

	cfg := pgasgraph.PaperCluster()
	if *machineFile != "" {
		loaded, err := machine.LoadFile(*machineFile)
		if err != nil {
			fatal(err)
		}
		cfg = loaded
	}
	cfg.Nodes = *nodes
	cfg.ThreadsPerNode = *threads
	cluster, err := pgasgraph.NewCluster(cfg)
	if err != nil {
		fatal(err)
	}

	spec := pgasgraph.KernelSpec{Kernel: "mst/" + *algo, Graph: g,
		Col: pgasgraph.OptimizedCollectives(*tprime), Compact: true}
	if !slices.Contains(pgasgraph.Kernels(), spec.Kernel) {
		fmt.Fprintf(os.Stderr, "mstrun: unknown algorithm %q\n", *algo)
		os.Exit(2)
	}
	res, err := cluster.Run(spec)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("input:        %v\n", g)
	fmt.Printf("machine:      %d nodes x %d threads\n", *nodes, *threads)
	fmt.Printf("algorithm:    %s\n", *algo)
	fmt.Printf("forest edges: %d\n", len(res.Edges))
	fmt.Printf("total weight: %d\n", res.Weight)
	fmt.Printf("rounds:       %d\n", res.Iterations)
	fmt.Printf("simulated:    %.2f ms\n", res.Run.SimMS())
	fmt.Printf("wall:         %v\n", res.Run.Wall)

	if *verify {
		want := pgasgraph.Kruskal(g)
		if res.Weight != want.Weight {
			fmt.Fprintf(os.Stderr, "mstrun: VERIFICATION FAILED: weight %d, Kruskal %d\n",
				res.Weight, want.Weight)
			os.Exit(1)
		}
		fmt.Println("verified against sequential Kruskal")
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mstrun: %v\n", err)
	os.Exit(1)
}
