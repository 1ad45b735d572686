package starmesh_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"starmesh"
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
