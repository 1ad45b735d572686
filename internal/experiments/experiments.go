// Package experiments regenerates every figure and table of the
// paper plus the measurement experiments listed in README.md. Each
// experiment writes stable fixed-width tables; the cmd/experiments
// binary selects them by id.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"starmesh/internal/exptab"
)

// All returns the registry of experiments in presentation order.
func All() []exptab.Experiment {
	return []exptab.Experiment{
		{ID: "fig2", Name: "Figure 2: the star graph S4", Run: Fig2StarTopology},
		{ID: "fig3", Name: "Figure 3: the 2*3*4 mesh", Run: Fig3MeshTopology},
		{ID: "fig4", Name: "Figure 4: example embedding (expansion 1, dilation 2, congestion 2)", Run: Fig4Example},
		{ID: "table1", Name: "Table 1: sequences of exchanges", Run: Table1Exchanges},
		{ID: "fig7", Name: "Figure 7: mapping of V(D4) into V(S4)", Run: Fig7Mapping},
		{ID: "lemma1", Name: "Lemma 1: no dilation-1 embedding for n > 2", Run: Lemma1},
		{ID: "lemma2", Name: "Lemma 2: transposition distances are 1 or 3", Run: Lemma2},
		{ID: "dilation", Name: "Theorem 4: dilation 3, expansion 1 (plus congestion, measured)", Run: Theorem4Dilation},
		{ID: "unitroute", Name: "Lemma 5/Theorem 6: mesh unit route in <=3 star routes, conflict-free", Run: Theorem6UnitRoute},
		{ID: "properties", Name: "Section 2: star graph properties vs hypercube", Run: StarProperties},
		{ID: "broadcast", Name: "Section 2: broadcast rounds vs 3(n lg n - 3/2) bound", Run: Broadcast},
		{ID: "faults", Name: "Section 2: maximal fault tolerance (connectivity = n-1)", Run: FaultTolerance},
		{ID: "atallah", Name: "Theorems 7-8: uniform mesh on rectangular mesh (block simulation)", Run: AtallahSimulation},
		{ID: "theorem9", Name: "Theorem 9: uniform mesh on star graph, weak upper bound", Run: Theorem9},
		{ID: "sorting", Name: "Section 5: sorting routes, mesh vs star (x3)", Run: Sorting},
		{ID: "appendix", Name: "Appendix: d-dimensional factorization and optimal d", Run: Appendix},
		{ID: "ablation", Name: "Ablation: paper mapping vs lexicographic vs random", Run: Ablation},
		{ID: "schedule", Name: "Ablation: path order and Lemma-5 conflict freedom", Run: ScheduleAblation},
		{ID: "embedrect", Name: "Extension: rectangular d-dimensional meshes on S_n", Run: EmbedRectExperiment},
		{ID: "collectives", Name: "Extension: collective operations, mesh vs star", Run: Collectives},
		{ID: "permroute", Name: "Extension: oblivious permutation routing on S_n", Run: PermRouting},
		{ID: "surface", Name: "Section 2: distance distribution of S_n", Run: SurfaceAreasExperiment},
		{ID: "mdshear", Name: "Section 5: naive d-dimensional shearsort (conjecture test)", Run: MultiDimShear},
		{ID: "virtual", Name: "Extension: D_{n+1} on S_n via processor virtualization", Run: Virtualization},
		{ID: "utilization", Name: "Extension: generator utilization under embedded-mesh traffic", Run: Utilization},
		{ID: "plans", Name: "Infrastructure: compiled route plans parity and speedup", Run: PlansParity},
		{ID: "serve", Name: "Infrastructure: job service load, pooled vs build-per-job", Run: ServeLoad},
		{ID: "scenarios", Name: "Infrastructure: scenario registry smoke, one demo run per family", Run: ScenarioSmoke},
		{ID: "tenants", Name: "Infrastructure: multi-tenant fairness, WFQ shares and light-tenant p99", Run: TenantFairness},
		{ID: "cluster", Name: "Infrastructure: sharded cluster, 3-node scatter-gather vs single node", Run: ClusterLoad},
	}
}

// Get returns the experiment with the given id.
func Get(id string) (exptab.Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return exptab.Experiment{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer) error {
	for _, e := range All() {
		fmt.Fprintf(w, "== %s (%s) ==\n", e.Name, e.ID)
		if err := e.Run(w); err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
