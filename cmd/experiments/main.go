// Command experiments regenerates the paper's figures and tables and
// the measurement experiments listed in README.md.
//
// Usage:
//
//	experiments -list
//	experiments -run fig7
//	experiments -run all
//	experiments -run sorting -engine parallel -workers 4
//	experiments -run plans -plan=false   // closure-resolved baseline
//	experiments -run scenarios           // one demo run per registered scenario family
//	experiments -run serve               // job-service load, pooled vs build-per-job
//	experiments -run tenants             // multi-tenant fairness under a hot tenant
//	experiments -run cluster             // 3-node cluster vs one node, plus a drain
//
// The serve, tenants and cluster experiments write their BENCH_*.json
// record into $BENCH_DIR and enforce their gates when it is set;
// unset, they write nothing and a missed gate only prints a warning.
package main

import (
	"flag"
	"fmt"
	"os"

	"starmesh/internal/experiments"
	"starmesh/internal/serve"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	run := flag.String("run", "all", "experiment id to run, or 'all'")
	engine := flag.String("engine", "sequential", "execution engine: sequential or parallel (bit-identical results)")
	workers := flag.Int("workers", 0, "parallel engine worker count (0 = GOMAXPROCS)")
	plan := flag.Bool("plan", true, "compiled route plans: record each pure schedule once, replay dense tables (bit-identical results)")
	flag.Parse()

	opts, err := serve.Config{Engine: *engine, EngineWorkers: *workers, NoPlans: !*plan}.EngineOptions()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	if len(opts) > 0 {
		experiments.SetEngine(opts...)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-11s %s\n", e.ID, e.Name)
		}
		return
	}
	if *run == "all" {
		if err := experiments.RunAll(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	e, ok := experiments.Get(*run)
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown id %q (try -list)\n", *run)
		os.Exit(2)
	}
	fmt.Printf("== %s (%s) ==\n", e.Name, e.ID)
	if err := e.Run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
