// Command ccrun runs a connected-components kernel on a graph file and
// reports simulated time, components, and the category breakdown.
//
// Usage:
//
//	ccrun -algo coalesced -nodes 16 -threads 8 -tprime 2 graph.pgg
//	ccrun -algo naive -nodes 1 -threads 16 graph.pgg   # CC-SMP baseline
//	ccrun -algo fastsv graph.pgg                       # fewest supersteps
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"pgasgraph"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/trace"
)

func main() {
	algo := flag.String("algo", "coalesced",
		"algorithm: naive | coalesced | sv | fastsv | lt-prs | lt-pus | lt-ers | merge-cgm")
	nodes := flag.Int("nodes", 16, "cluster nodes")
	threads := flag.Int("threads", 8, "threads per node")
	tprime := flag.Int("tprime", 2, "virtual threads t'")
	base := flag.Bool("base", false, "disable all optimizations (unoptimized collectives)")
	verify := flag.Bool("verify", true, "verify against sequential union-find")
	machineFile := flag.String("machine", "", "machine model JSON file (default: paper cluster)")
	profile := flag.Bool("profile", false, "print the collective profile and serve-load distribution")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ccrun [flags] graph.pgg")
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

	spec := pgasgraph.KernelSpec{Kernel: "cc/" + *algo, Graph: g,
		Col: pgasgraph.OptimizedCollectives(*tprime), Compact: true}
	if *base {
		spec.Col, spec.Compact = pgasgraph.BaseCollectives(), false
	}
	if !slices.Contains(pgasgraph.Kernels(), spec.Kernel) {
		fmt.Fprintf(os.Stderr, "ccrun: unknown algorithm %q\n", *algo)
		os.Exit(2)
	}
	var collector *trace.Collector
	if *profile {
		collector = trace.NewCollector(cluster.Threads())
		cluster.Comm().SetTracer(collector)
	}

	res, err := cluster.Run(spec)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("input:       %v\n", g)
	fmt.Printf("machine:     %d nodes x %d threads\n", *nodes, *threads)
	fmt.Printf("algorithm:   %s\n", *algo)
	fmt.Printf("components:  %d\n", res.Components)
	fmt.Printf("iterations:  %d\n", res.Iterations)
	fmt.Printf("simulated:   %.2f ms\n", res.Run.SimMS())
	fmt.Printf("wall:        %v\n", res.Run.Wall)
	fmt.Printf("messages:    %d (%d bytes)\n", res.Run.Messages, res.Run.Bytes)
	avg := res.Run.AvgByCategory()
	fmt.Printf("breakdown (per-thread avg ms):\n")
	for c := sim.Category(0); c < sim.NumCategories; c++ {
		fmt.Printf("  %-10s %10.3f\n", c, avg[c]/1e6)
	}

	if *profile {
		fmt.Println()
		if err := collector.CollectiveTable().Fprint(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
		if err := collector.LoadTable(5).Fprint(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *verify {
		if !pgasgraph.SamePartition(pgasgraph.SequentialCC(g), res.Labels) {
			fmt.Fprintln(os.Stderr, "ccrun: VERIFICATION FAILED")
			os.Exit(1)
		}
		fmt.Println("verified against sequential union-find")
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ccrun: %v\n", err)
	os.Exit(1)
}
