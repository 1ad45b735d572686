package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden from the current code")

// paperGolden holds the output of every paper experiment, in
// presentation order.
const paperGolden = "testdata/paper.golden"

// runPaper writes the paper experiments in RunAll's format. The
// Infrastructure experiments print timings, so they are left out.
func runPaper(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range All() {
		if strings.HasPrefix(e.Name, "Infrastructure:") {
			continue
		}
		fmt.Fprintf(&buf, "== %s (%s) ==\n", e.Name, e.ID)
		if err := e.Run(&buf); err != nil {
			t.Fatalf("experiment %s: %v", e.ID, err)
		}
		fmt.Fprintln(&buf)
	}
	return buf.Bytes()
}

// TestPaperExperimentsGolden pins every table the paper experiments
// print, byte for byte: a change that moves a paper number shows up
// as a diff of testdata/paper.golden. Regenerate with
// `go test ./internal/experiments -run PaperExperimentsGolden -update`.
func TestPaperExperimentsGolden(t *testing.T) {
	got := runPaper(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(paperGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paperGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(paperGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("paper experiments differ from %s at line %d:\n got: %q\nwant: %q\n(%d lines, want %d)",
				paperGolden, i+1, g, w, len(gl), len(wl))
		}
	}
}
