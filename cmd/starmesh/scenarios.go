// The scenarios and run subcommands: the CLI face of the scenario
// registry. `scenarios` prints the catalog (optionally as the
// README's markdown table); `run` executes one spec — the same JSON
// document POST /v1/jobs accepts — standalone on a fresh machine.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"starmesh/internal/serve"
	"starmesh/internal/workload"
)

func cmdScenarios(args []string) {
	fs := flag.NewFlagSet("scenarios", flag.ExitOnError)
	markdown := fs.Bool("markdown", false, "print the README scenario catalog table")
	fs.Parse(args)
	if *markdown {
		fmt.Print(workload.CatalogMarkdown())
		return
	}
	fmt.Printf("%-12s %-28s %-34s %s\n", "KIND", "PARAMS", "PACKAGE", "WORKLOAD")
	for _, row := range workload.Catalog() {
		fmt.Printf("%-12s %-28s %-34s %s\n", row.Kind, row.Params, row.Package, row.Summary)
	}
	fmt.Printf("\nrun one with: starmesh run '{\"kind\":\"sort\",\"n\":5,\"dist\":\"reversed\",\"seed\":42}'\n")
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	engine := fs.String("engine", "sequential", "execution engine: sequential or parallel")
	workers := fs.Int("workers", 0, "parallel engine worker count (0 = GOMAXPROCS)")
	plan := fs.Bool("plan", true, "compiled route plans")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("run needs exactly one JSON job spec (try: starmesh run '{\"kind\":\"sweep\",\"n\":5}')")
	}

	opts, err := serve.Config{Engine: *engine, EngineWorkers: *workers, NoPlans: !*plan}.EngineOptions()
	if err != nil {
		fatalf("%v", err)
	}

	var spec workload.Spec
	dec := json.NewDecoder(strings.NewReader(fs.Arg(0)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		fatalf("bad job spec: %v", err)
	}
	sc, err := workload.ScenarioFor(spec, opts...)
	if err != nil {
		fatalf("%v", err)
	}
	res, err := sc.Run(context.Background())
	if err != nil {
		fatalf("%s: %v", sc.Name, err)
	}
	res.Name = sc.Name
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
	if !res.OK {
		os.Exit(1)
	}
}
