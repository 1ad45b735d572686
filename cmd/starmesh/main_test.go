package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSafeRouteIsDeterministic: the faults come from a fixed seed, so
// every run must print the same bytes.
func TestSafeRouteIsDeterministic(t *testing.T) {
	args := []string{"3", "0", "1", "2", "3", "4", "5", "5", "4", "3", "2", "1", "0"}
	var first bytes.Buffer
	if err := safeRoute(&first, args); err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 8; run++ {
		var again bytes.Buffer
		if err := safeRoute(&again, args); err != nil {
			t.Fatal(err)
		}
		if again.String() != first.String() {
			t.Fatalf("run %d printed a different report:\n%s\n---\n%s", run, again.String(), first.String())
		}
	}
}

// TestSafeRouteRejectsTooManyFaults: S_3 has 6 nodes, so at most 4
// can fail besides the two endpoints; asking for more must fail
// instead of drawing faults forever.
func TestSafeRouteRejectsTooManyFaults(t *testing.T) {
	var out bytes.Buffer
	err := safeRoute(&out, []string{"5", "0", "1", "2", "2", "1", "0"})
	if err == nil || !strings.Contains(err.Error(), "at most 4") {
		t.Fatalf("safeRoute with 5 faults on S_3 = %v, want an error naming the bound 4", err)
	}
}
