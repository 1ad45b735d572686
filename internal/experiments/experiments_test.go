package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestMain keeps the suite from writing records or enforcing gates
// (BENCH_DIR unset; the Makefile's bench targets set it) and shrinks
// the tenants and cluster benches so it stays fast; gate ratios are
// only meaningful on the full runs.
func TestMain(m *testing.M) {
	os.Unsetenv("BENCH_DIR")
	os.Setenv("BENCH_TENANTS_PHASE_MS", "400")
	os.Setenv("BENCH_CLUSTER_JOBS", "4")
	os.Exit(m.Run())
}

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatalf("%s failed: %v\noutput:\n%s", e.ID, err, buf.String())
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestRegistryLookup(t *testing.T) {
	if _, ok := Get("fig7"); !ok {
		t.Fatalf("fig7 missing")
	}
	if _, ok := Get("nope"); ok {
		t.Fatalf("bogus id found")
	}
	ids := IDs()
	if len(ids) != len(All()) {
		t.Fatalf("IDs length mismatch")
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not sorted")
		}
	}
}

func TestFig7OutputContainsPaperRows(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig7Mapping(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"(0,0,0)", "(3 2 1 0)", "(3,0,1)", "(0 3 1 2)", "all 24 rows match"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig7 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Theorem 6") {
		t.Fatalf("RunAll output incomplete")
	}
}
