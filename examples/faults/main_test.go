package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

// golden holds the example's report.
const golden = "testdata/golden.txt"

// TestRunMatchesGolden pins the report byte for byte: every input
// comes from a fixed seed, so a diff means the program changed what
// it computes. Regenerate with `go test ./examples/faults -update`.
func TestRunMatchesGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("report differs from %s:\n got:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}
