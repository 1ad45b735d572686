package experiments

import (
	"context"
	"fmt"
	"io"

	"starmesh/internal/exptab"
	"starmesh/internal/workload"
)

// ScenarioSmoke runs one small representative spec of EVERY
// registered scenario family through the registry's standalone path
// and prints the catalog next to the measured results — the living
// proof that each kind is runnable from cmd/experiments with zero
// per-kind wiring here. A failing self-check or a scenario error
// fails the experiment.
func ScenarioSmoke(w io.Writer) error {
	t := exptab.New(fmt.Sprintf("Scenario registry: %d families, demo spec each", len(workload.Kinds())),
		"kind", "name", "shape", "unit-routes", "conflicts", "ok")
	for _, spec := range workload.DemoSpecs() {
		sc, err := workload.ScenarioFor(spec)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", spec.Kind, err)
		}
		res, err := sc.Run(context.Background())
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		if !res.OK {
			return fmt.Errorf("scenario %s failed its self-check: %+v", sc.Name, res)
		}
		t.Add(spec.Kind, sc.Name, spec.Shape(), res.UnitRoutes, res.Conflicts, res.OK)
	}
	t.Fprint(w)
	fmt.Fprintf(w, "\ncatalog (registry-generated, mirrored in README):\n\n%s", workload.CatalogMarkdown())
	return nil
}
