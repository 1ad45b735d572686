package main

import (
	"bytes"
	"io"
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

// TestNodeSubcommandsRejectBadInput: malformed arguments to the node
// subcommands come back as errors that name the fault — no panic, no
// process exit, nothing printed.
func TestNodeSubcommandsRejectBadInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(io.Writer, []string) error
		args string
		want string
	}{
		{"map", mapNode, "1 x", "not an integer"},
		{"map", mapNode, "", "needs mesh coordinates"},
		{"map", mapNode, "4 0", "d_2 = 4 out of range [0,2]"},
		{"map", mapNode, "0 -1", "d_1 = -1 out of range [0,1]"},
		{"unmap", unmapNode, "0 x 1", "not an integer"},
		{"unmap", unmapNode, "0 0 1", "not a permutation"},
		{"unmap", unmapNode, "", "at least one symbol"},
		{"route", starRoute, "0 1 y 2 1 0", "not an integer"},
		{"route", starRoute, "0 1 1 2 1 0", "not a permutation"},
		{"route", starRoute, "0 1 2 1 0", "two nodes of equal length"},
		{"route", starRoute, "", "at least one symbol"},
		{"path", meshStepPath, "x 1 0 1 2", "bad k"},
		{"path", meshStepPath, "9 1 2 1 0", "k = 9 out of range [1,2]"},
		{"path", meshStepPath, "-1 1 2 1 0", "k = -1 out of range [1,2]"},
		{"path", meshStepPath, "0 1 2 1 0", "k = 0 out of range [1,2]"},
		{"path", meshStepPath, "1 0 2 1 0", "dir must be +1 or -1"},
		{"path", meshStepPath, "1 2 2 1 0", "dir must be +1 or -1"},
		{"path", meshStepPath, "1 1 2 z 0", "not an integer"},
		{"path", meshStepPath, "1 1 2 2 0", "not a permutation"},
		{"path", meshStepPath, "1 1", "needs k, dir and a node"},
		{"saferoute", safeRoute, "1 0 1 x 2 1 0", "not an integer"},
		{"saferoute", safeRoute, "1 0 0 2 2 1 0", "not a permutation"},
		{"saferoute", safeRoute, "1 0 1 2 1 0", "two nodes of equal length"},
		{"saferoute", safeRoute, "-1 0 1 2 2 1 0", "bad fault count"},
	} {
		var out bytes.Buffer
		err := tc.run(&out, strings.Fields(tc.args))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %q = %v, want an error containing %q", tc.name, tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s %q printed %q before failing", tc.name, tc.args, out.String())
		}
	}
}
