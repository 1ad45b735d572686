package main

import (
	"strings"
	"testing"
)

// TestRunSpecReportsElapsed: `starmesh run` times the scenario it
// runs, like the job service does.
func TestRunSpecReportsElapsed(t *testing.T) {
	res, err := runSpec([]string{`{"kind":"sweep","n":4}`})
	if err != nil {
		t.Fatal(err)
	}
	if res.ElapsedNs <= 0 {
		t.Fatalf("elapsed_ns = %d, want > 0: %+v", res.ElapsedNs, res)
	}
	if res.Name != "sweep-star-n4-t1" || !res.OK || res.UnitRoutes == 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestRunSpecRejectsBadInput(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "exactly one JSON job spec"},
		{[]string{`{"kind":"sweep"}`, `{"kind":"sort"}`}, "exactly one JSON job spec"},
		{[]string{`{"kind":"sweep","n":4,"bogus":1}`}, "bad job spec"},
		{[]string{`{"kind":"nope","n":4}`}, "unknown scenario kind"},
		{[]string{`{"kind":"sweep","n":99}`}, "n in [2,"},
	}
	for _, tc := range cases {
		_, err := runSpec(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("runSpec(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
