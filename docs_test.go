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

// cliCall matches a shell command that runs the starmesh CLI —
// `starmesh <subcommand>` or `go run ./cmd/starmesh <subcommand>` —
// and captures the rest of the command; cliFlag matches a flag in
// that rest, bracketed when optional. goRunCLI matches a
// `go run ./cmd/starmesh <subcommand>` in prose outside code.
var (
	cliCall  = regexp.MustCompile(`^(?:starmesh|.*\bgo run \./cmd/starmesh)\s+([a-z][\w-]*)(.*)`)
	cliFlag  = regexp.MustCompile(`(?:^|\s)\[?--?([A-Za-z][\w-]*)`)
	goRunCLI = regexp.MustCompile(`go run \./cmd/starmesh\s+([a-z][\w-]*)`)
)

// shellSep splits a code line into its shell commands.
var shellSep = regexp.MustCompile(`[;&|]+`)

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

// Source patterns cliFlags reads cmd/starmesh with: a top-level
// function (one line or several), a dispatch case, a flag definition
// (fs.String("addr", …), fs.BoolVar(&wait, "wait", …)) and a call.
var (
	goFunc       = regexp.MustCompile(`(?ms)^func (\w+)\((?:[^\n]*}$|.*?^}$)`)
	dispatchCase = regexp.MustCompile(`case "([\w-]+)":\s*(\w+)\(`)
	flagDef      = regexp.MustCompile(`fs\.\w+\((?:&\w+,\s*)?"([\w-]+)"`)
	goCall       = regexp.MustCompile(`\b(\w+)\(`)
)

// cliFlags returns, for every subcommand cmd/starmesh dispatches on,
// the flags its source defines: those of the function the dispatch
// calls and of every package function that one reaches, such as
// remoteFlags.
func cliFlags(t *testing.T) map[string][]string {
	files, err := filepath.Glob(filepath.Join("cmd", "starmesh", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]string{} // name → declaration
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range goFunc.FindAllStringSubmatch(string(data), -1) {
			funcs[m[1]] = m[0]
		}
	}
	_, dispatch, _ := strings.Cut(funcs["main"], "switch os.Args[1] {")
	dispatch, _, _ = strings.Cut(dispatch, "default:")
	out := map[string][]string{}
	for _, c := range dispatchCase.FindAllStringSubmatch(dispatch, -1) {
		sub, seen := c[1], map[string]bool{}
		var walk func(fn string)
		walk = func(fn string) {
			seen[fn] = true
			for _, m := range flagDef.FindAllStringSubmatch(funcs[fn], -1) {
				out[sub] = append(out[sub], m[1])
			}
			for _, m := range goCall.FindAllStringSubmatch(funcs[fn], -1) {
				if _, ok := funcs[m[1]]; ok && !seen[m[1]] {
					walk(m[1])
				}
			}
		}
		out[sub] = nil
		walk(c[2])
	}
	return out
}

// TestDocsNameExistingTargets holds the notes a developer reads
// (README.md, docs/*.md and the verify notes) to what exists: every
// perfbench workload they name is a BENCHMARK.json workload, every
// `experiments -run <id>` names a registered experiment or all, every
// `make <target>` in code names a Makefile target, and every starmesh
// command line names a subcommand cmd/starmesh dispatches on, with
// only flags that subcommand defines.
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
	targets, flags := makeTargets(t), cliFlags(t)
	if len(targets) < 10 || len(flags) < 10 || len(flags["serve"]) < 5 || len(flags["submit"]) < 4 {
		t.Fatalf("found only make targets %v and subcommand flags %v", targets, flags)
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
			code = append(code, strings.ReplaceAll(m[1], "\n", " "))
		}
		for _, m := range goRunCLI.FindAllStringSubmatch(inlineCode.ReplaceAllString(prose.String(), ""), -1) {
			if _, ok := flags[m[1]]; !ok {
				t.Errorf("%s runs starmesh subcommand %q, which cmd/starmesh does not dispatch", src, m[1])
			}
		}
		for _, c := range code {
			for _, m := range makeCall.FindAllStringSubmatch(c, -1) {
				if !slices.Contains(targets, m[1]) {
					t.Errorf("%s runs `make %s`, which the Makefile does not define (%v)", src, m[1], targets)
				}
			}
		}
		for _, c := range code {
			for _, cmd := range shellSep.Split(c, -1) {
				cmd, _, _ = strings.Cut(strings.TrimSpace(cmd), " #")
				m := cliCall.FindStringSubmatch(cmd)
				if m == nil {
					continue
				}
				defined, ok := flags[m[1]]
				if !ok {
					t.Errorf("%s runs starmesh subcommand %q, which cmd/starmesh does not dispatch", src, m[1])
					continue
				}
				for _, f := range cliFlag.FindAllStringSubmatch(m[2], -1) {
					if !slices.Contains(defined, f[1]) {
						t.Errorf("%s runs `starmesh %s -%s`; cmd/starmesh defines %v for %s", src, m[1], f[1], defined, m[1])
					}
				}
			}
		}
	}
}
