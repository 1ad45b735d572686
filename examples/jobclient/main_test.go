package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

// golden holds the example's report without its timing-dependent
// parts: the watch lines, and the partial-route count at cancel.
const golden = "testdata/golden.txt"

// partialRoutes matches the canceled sweep's route count, which
// depends on how far the sweep ran before the cancel reached it.
var partialRoutes = regexp.MustCompile(`after \d+ partial unit routes`)

// TestRunMatchesGolden pins the report: the watch lines by shape (a
// nondecreasing status sequence for the first job that ends in done,
// as many lines as the stream happened to carry), every other line
// byte for byte with the partial-route count masked. Regenerate with
// `go test ./examples/jobclient -update`.
func TestRunMatchesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	var watched []string
	var rest strings.Builder
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if status, ok := strings.CutPrefix(line, "watch job-000001: "); ok {
			watched = append(watched, strings.TrimSpace(status))
			continue
		}
		rest.WriteString(partialRoutes.ReplaceAllString(line, "after N partial unit routes"))
	}
	order := []string{"queued", "running", "done"}
	last := -1
	for _, status := range watched {
		i := slices.Index(order, status)
		if i < 0 || i < last {
			t.Fatalf("watch statuses %v: %q is not one of %v in order", watched, status, order)
		}
		last = i
	}
	if len(watched) == 0 || watched[len(watched)-1] != "done" {
		t.Fatalf("watch statuses %v do not end in done", watched)
	}

	got := []byte(rest.String())
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
