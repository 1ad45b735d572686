package workload

import (
	"context"
	"strings"
	"testing"

	"starmesh/internal/simd"
)

// strip removes the wall-clock and name fields so results compare.
func strip(r ScenarioResult) ScenarioResult {
	r.Name = ""
	r.ElapsedNs = 0
	return r
}

func TestRegistryHoldsEveryKind(t *testing.T) {
	want := []string{
		KindSort, KindShear, KindBroadcast, KindSweep, KindFaultRoute,
		KindEmbedRect, KindPermRoute, KindVirtual, KindDiagnostics, KindPipeline,
	}
	got := Kinds()
	if len(got) != len(want) {
		t.Fatalf("registry has %d kinds, want %d: %v", len(got), len(want), got)
	}
	for i, k := range want {
		if got[i] != k {
			t.Fatalf("kind %d = %q, want %q (registration order is the catalog order)", i, got[i], k)
		}
		f, ok := Builtin.Lookup(k)
		if !ok {
			t.Fatalf("kind %q not registered", k)
		}
		if f.Summary == "" || f.Package == "" || f.PaperRef == "" || f.Params == "" {
			t.Errorf("kind %q is missing catalog metadata: %+v", k, f)
		}
	}
}

func TestFamilyOfErrorsAreActionable(t *testing.T) {
	if _, err := FamilyOf(""); err == nil || !strings.Contains(err.Error(), KindPipeline) {
		t.Fatalf("empty kind error should list the kinds, got %v", err)
	}
	if _, err := FamilyOf("nope"); err == nil || !strings.Contains(err.Error(), "nope") ||
		!strings.Contains(err.Error(), KindEmbedRect) {
		t.Fatalf("unknown kind error should name it and list the kinds, got %v", err)
	}
}

func TestDemoSpecsRunCleanAndDeterministic(t *testing.T) {
	for _, spec := range DemoSpecs() {
		sc, err := ScenarioFor(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		first, err := sc.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !first.OK {
			t.Errorf("%s: self-check failed: %+v", sc.Name, first)
		}
		if first.UnitRoutes <= 0 && spec.Kind != KindDiagnostics {
			t.Errorf("%s: reports no work: %+v", sc.Name, first)
		}
		again, err := sc.Run(context.Background())
		if err != nil {
			t.Fatalf("%s rerun: %v", sc.Name, err)
		}
		if strip(first) != strip(again) {
			t.Errorf("%s: same seed diverged: %+v != %+v", sc.Name, first, again)
		}
		// Plans off: closure resolution is replay's reference, so the
		// same spec must run clean to the same result without plans.
		closure, err := ScenarioFor(spec, simd.WithPlans(false))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := closure.Run(context.Background())
		if err != nil {
			t.Fatalf("%s with plans off: %v", sc.Name, err)
		}
		if strip(first) != strip(ref) {
			t.Errorf("%s: plans off diverged: %+v != %+v", sc.Name, ref, first)
		}
	}
}

// TestNewFamiliesSeedSensitivity: the seeded new families actually
// consume their seed (different seeds change the result), while the
// deterministic ones ignore it entirely.
func TestNewFamiliesSeedSensitivity(t *testing.T) {
	seeded := []Spec{
		{Kind: KindPermRoute, N: 5, Pattern: "random", Seed: 1},
		{Kind: KindDiagnostics, N: 5, Holes: 3, Trials: 4, Seed: 1},
		{Kind: KindVirtual, N: 4, Dist: "uniform", Seed: 1},
	}
	for _, spec := range seeded {
		a := runSpec(t, spec)
		spec2 := spec
		spec2.Seed = 99
		b := runSpec(t, spec2)
		if a.UnitRoutes == b.UnitRoutes && a.Conflicts == b.Conflicts {
			t.Logf("%s: seeds 1 and 99 happen to agree (%+v) — acceptable but suspicious", spec.Kind, a)
		}
	}
	det := Spec{Kind: KindEmbedRect, N: 5, D: 3, Seed: 7}
	det2 := det
	det2.Seed = 1234
	if runSpec(t, det) != runSpec(t, det2) {
		t.Errorf("embedrect consumed a seed it documents as unused")
	}
}

func runSpec(t *testing.T, s Spec) ScenarioResult {
	t.Helper()
	sc, err := ScenarioFor(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return strip(res)
}

// TestPooledParityAcrossFamilies reproduces the service's machine
// lifecycle by hand for every registered family: run a job on a
// resource, Reset it (the pool checkin contract), run the same spec
// again, and require the rerun to be bit-identical to a fresh-build
// run. For star-pool families the dirtying job is a different kind
// sharing the shape — exactly the cross-kind reuse per-shape pools
// perform.
func TestPooledParityAcrossFamilies(t *testing.T) {
	dirty := map[string]Spec{
		// star:N pool is shared by sort/broadcast/sweep/embedrect/pipeline.
		"star": {Kind: KindSweep},
	}
	for _, spec := range DemoSpecs() {
		f, _ := Builtin.Lookup(spec.Kind)

		fresh := f.Build(spec)
		want, err := f.Run(context.Background(), spec, fresh)
		fresh.Close()
		if err != nil {
			t.Fatalf("%s fresh: %v", spec.Kind, err)
		}

		reused := f.Build(spec)
		first := spec
		if strings.HasPrefix(f.Shape(spec), "star:") {
			d := dirty["star"]
			d.N = spec.N
			d, err = d.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			first = d
		}
		df, _ := Builtin.Lookup(first.Kind)
		if _, err := df.Run(context.Background(), first, reused); err != nil {
			t.Fatalf("%s dirtying run: %v", spec.Kind, err)
		}
		reused.Reset()
		got, err := f.Run(context.Background(), spec, reused)
		reused.Close()
		if err != nil {
			t.Fatalf("%s pooled rerun: %v", spec.Kind, err)
		}
		if strip(got) != strip(want) {
			t.Errorf("%s: pooled rerun diverged from fresh build: %+v != %+v", spec.Kind, got, want)
		}
	}
}

func TestCatalogMatchesRegistry(t *testing.T) {
	md := CatalogMarkdown()
	for _, k := range Kinds() {
		if !strings.Contains(md, "| `"+k+"` |") {
			t.Errorf("catalog markdown is missing kind %q:\n%s", k, md)
		}
	}
	rows := Catalog()
	if len(rows) != len(Kinds()) {
		t.Fatalf("catalog has %d rows for %d kinds", len(rows), len(Kinds()))
	}
}
