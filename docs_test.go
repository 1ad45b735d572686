package starmesh_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"starmesh"
	"starmesh/internal/experiments"
)

// mdLink matches inline markdown links [text](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocLinksResolve is the docs drift check: every relative link in
// README.md and docs/*.md must point at a file or directory that
// exists in the repository, so renames and deletions cannot silently
// strand the documentation. External (scheme or site-absolute) links
// are out of scope — this is a reference-integrity check, not a
// network check.
func TestDocLinksResolve(t *testing.T) {
	sources := []string{"README.md"}
	entries, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	sources = append(sources, entries...)
	if len(sources) < 3 { // README + architecture + benchmarks at minimum
		t.Fatalf("expected README.md plus docs/*.md, found only %v", sources)
	}

	for _, src := range sources {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, match := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := match[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external
			}
			if strings.HasPrefix(target, "#") {
				continue // intra-document anchor
			}
			if strings.HasPrefix(target, "../../") {
				continue // repo-host paths (the CI badge) resolve on the forge, not on disk
			}
			target = strings.SplitN(target, "#", 2)[0]
			resolved := filepath.Join(filepath.Dir(src), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s links to %q, which does not resolve (%v)", src, match[1], err)
			}
		}
	}
}

// TestDocsMentionCommittedRecords keeps docs/benchmarks.md honest:
// every committed BENCH_*.json must be documented there, and every
// documented record must exist.
func TestDocsMentionCommittedRecords(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "benchmarks.md"))
	if err != nil {
		t.Fatal(err)
	}
	records, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no committed BENCH_*.json records found")
	}
	for _, rec := range records {
		if !strings.Contains(string(doc), rec) {
			t.Errorf("docs/benchmarks.md does not document committed record %s", rec)
		}
	}
	for _, rec := range benchRecordName.FindAllString(string(doc), -1) {
		if _, err := os.Stat(rec); err != nil {
			t.Errorf("docs/benchmarks.md names %s, which is not committed (%v)", rec, err)
		}
	}
}

// benchRecordName matches a bench record's file name.
var benchRecordName = regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json`)

// codeSpan matches an inline code span in a markdown table cell.
var codeSpan = regexp.MustCompile("`([a-z_]+)`")

// TestMetricCatalogMatchesRegistry holds the metric catalog of
// docs/observability.md to the service's registry in both directions:
// family names, types and label names. A row may name several
// families ("a / b"), with one type for all of them or one each.
func TestMetricCatalogMatchesRegistry(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "observability.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, catalog, _ := strings.Cut(string(doc), "\n## Metric catalog\n")
	catalog, _, _ = strings.Cut(catalog, "\n## ")
	documented := map[string]string{} // family → "type [labels]"
	for _, line := range strings.Split(catalog, "\n") {
		cells := strings.Split(line, "|") // "", families, type, labels, meaning, ""
		if !strings.HasPrefix(line, "| `") || len(cells) < 5 {
			continue // headers, separators and prose
		}
		types := strings.Split(strings.TrimSpace(cells[2]), " / ")
		var labels []string
		for _, m := range codeSpan.FindAllStringSubmatch(cells[3], -1) {
			labels = append(labels, m[1])
		}
		for i, m := range codeSpan.FindAllStringSubmatch(cells[1], -1) {
			documented["starmesh_"+m[1]] = fmt.Sprint(types[min(i, len(types)-1)], " ", labels)
		}
	}

	svc, err := starmesh.NewJobService(starmesh.ServiceConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	for _, fam := range svc.MetricsRegistry().Snapshot() {
		if got, want := documented[fam.Name], fmt.Sprint(fam.Type, " ", fam.Labels); got != want {
			t.Errorf("%s: docs/observability.md catalogs %q, the registry has %q", fam.Name, got, want)
		}
		delete(documented, fam.Name)
	}
	for name := range documented {
		t.Errorf("docs/observability.md catalogs %s, which the service does not register", name)
	}
}

// workloadArg matches a perfbench --workload value; alternatives are
// split on "|", and a line may break after one.
var workloadArg = regexp.MustCompile(`--workload[ =]+((?:[\w-]+\|\s*)*[\w-]+)`)

// experimentRun matches `experiments -run <id>` for the cmd/experiments
// binary, not `go test ./internal/experiments -run <pattern>`.
var experimentRun = regexp.MustCompile(`(?:^|[\s` + "`" + `]|cmd/)experiments\s+-run[ =]+([\w-]+)`)

// makeCall matches `make <target>` in a code span or a fenced line.
var makeCall = regexp.MustCompile(`(?:^|[\s;&|(])make\s+([A-Za-z][\w-]*)`)

// cliLine matches a fenced line that runs the starmesh CLI, and
// goRunCLI a `go run ./cmd/starmesh <subcommand>` anywhere.
var (
	cliLine  = regexp.MustCompile(`^starmesh\s+([a-z][\w-]*)`)
	goRunCLI = regexp.MustCompile(`go run \./cmd/starmesh\s+([a-z][\w-]*)`)
)

// inlineCode matches a markdown code span, which may break across
// lines.
var inlineCode = regexp.MustCompile("`([^`]+)`")

// makeTargets returns the targets the Makefile defines.
func makeTargets(t *testing.T) []string {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z][\w.-]*)\s*:(?:[^=]|$)`).FindAllStringSubmatch(string(data), -1) {
		out = append(out, m[1])
	}
	return out
}

// cliSubcommands returns the subcommands cmd/starmesh dispatches on.
func cliSubcommands(t *testing.T) []string {
	data, err := os.ReadFile(filepath.Join("cmd", "starmesh", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	_, dispatch, _ := strings.Cut(string(data), "switch os.Args[1] {")
	dispatch, _, _ = strings.Cut(dispatch, "default:")
	var out []string
	for _, m := range regexp.MustCompile(`case "([\w-]+)":`).FindAllStringSubmatch(dispatch, -1) {
		out = append(out, m[1])
	}
	return out
}

// TestDocsNameExistingTargets holds the notes a developer reads
// (README.md, docs/*.md and the verify notes) to what exists: every
// perfbench workload they name is a BENCHMARK.json workload, every
// `experiments -run <id>` names a registered experiment or all, every
// `make <target>` in code names a Makefile target, and every starmesh
// command line names a subcommand cmd/starmesh dispatches on.
func TestDocsNameExistingTargets(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range bench.Workloads {
		workloads = append(workloads, w.Name)
	}
	ids := append(experiments.IDs(), "all")
	targets, subcommands := makeTargets(t), cliSubcommands(t)
	if len(targets) < 10 || len(subcommands) < 10 {
		t.Fatalf("found only make targets %v and subcommands %v", targets, subcommands)
	}

	sources, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	sources = append(sources, "README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md"))
	for _, src := range sources {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range workloadArg.FindAllStringSubmatch(string(data), -1) {
			for _, w := range strings.Split(m[1], "|") {
				if w = strings.TrimSpace(w); !slices.Contains(workloads, w) {
					t.Errorf("%s names perfbench workload %q; BENCHMARK.json has %v", src, w, workloads)
				}
			}
		}
		for _, m := range experimentRun.FindAllStringSubmatch(string(data), -1) {
			if !slices.Contains(ids, m[1]) {
				t.Errorf("%s runs experiment %q, which is not registered (%v)", src, m[1], ids)
			}
		}
		for _, m := range goRunCLI.FindAllStringSubmatch(string(data), -1) {
			if !slices.Contains(subcommands, m[1]) {
				t.Errorf("%s runs starmesh subcommand %q, which cmd/starmesh does not dispatch (%v)", src, m[1], subcommands)
			}
		}
		// Split fenced lines from prose; the code spans are in the prose.
		var fenced []string
		var prose strings.Builder
		inFence := false
		for _, line := range strings.Split(string(data), "\n") {
			switch {
			case strings.HasPrefix(strings.TrimSpace(line), "```"):
				inFence = !inFence
			case inFence:
				fenced = append(fenced, strings.TrimSpace(line))
			default:
				prose.WriteString(line + "\n")
			}
		}
		code := fenced
		for _, m := range inlineCode.FindAllStringSubmatch(prose.String(), -1) {
			code = append(code, m[1])
		}
		for _, c := range code {
			for _, m := range makeCall.FindAllStringSubmatch(c, -1) {
				if !slices.Contains(targets, m[1]) {
					t.Errorf("%s runs `make %s`, which the Makefile does not define (%v)", src, m[1], targets)
				}
			}
		}
		for _, line := range fenced {
			if m := cliLine.FindStringSubmatch(line); m != nil && !slices.Contains(subcommands, m[1]) {
				t.Errorf("%s runs starmesh subcommand %q, which cmd/starmesh does not dispatch (%v)", src, m[1], subcommands)
			}
		}
	}
}
