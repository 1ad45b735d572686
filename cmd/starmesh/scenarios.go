// The scenarios and run subcommands: the CLI face of the scenario
// registry. `scenarios` prints the catalog (optionally as the
// README's markdown table); `run` executes one spec — the same JSON
// document POST /v1/jobs accepts — standalone on a fresh machine.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

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
	res, err := runSpec(args)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fatalf("%v", err)
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
	if !res.OK {
		os.Exit(1)
	}
}

// runSpec parses the run subcommand's arguments, one JSON job spec,
// and runs it standalone on a fresh machine, timed, so the result
// carries its name and elapsed_ns like a served job's.
func runSpec(args []string) (workload.ScenarioResult, error) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return workload.ScenarioResult{}, err
	}
	if fs.NArg() != 1 {
		return workload.ScenarioResult{}, errors.New(`run needs exactly one JSON job spec (try: starmesh run '{"kind":"sweep","n":5}')`)
	}
	var spec workload.Spec
	dec := json.NewDecoder(strings.NewReader(fs.Arg(0)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return workload.ScenarioResult{}, fmt.Errorf("bad job spec: %w", err)
	}
	sc, err := workload.ScenarioFor(spec)
	if err != nil {
		return workload.ScenarioResult{}, err
	}
	start := time.Now()
	res, err := sc.Run(context.Background())
	res.Name, res.ElapsedNs = sc.Name, time.Since(start).Nanoseconds()
	if err != nil {
		return res, fmt.Errorf("%s: %w", sc.Name, err)
	}
	return res, nil
}
