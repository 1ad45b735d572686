package starmesh_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
