package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"starmesh/internal/workload"
)

// TestSpecValidationRejectsWith400 drives every invalid-spec class
// through the HTTP API table-style and requires a 400 with an error
// message that names the problem (an actionable fragment below).
// One case per registered kind plus the kind-level errors, so a new
// family must bring its validation with it.
func TestSpecValidationRejectsWith400(t *testing.T) {
	svc, err := NewService(Config{Workers: 1, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want string // fragment the 400 message must contain
	}{
		{"missing kind", `{}`, "needs a kind"},
		{"sweep bad trials", `{"kind":"sweep","n":4,"trials":-1}`, "trials in [1,"},
		{"unknown kind", `{"kind":"quicksort"}`, `unknown scenario kind "quicksort"`},
		{"unknown field", `{"kind":"sort","n":4,"bogus":1}`, "bogus"},
		{"sort n too small", `{"kind":"sort","n":1}`, "n in [2,8]"},
		{"sort n too large", `{"kind":"sort","n":99}`, "n in [2,8]"},
		{"sort bad dist", `{"kind":"sort","n":4,"dist":"gaussian"}`, `unknown distribution "gaussian"`},
		{"shear zero mesh", `{"kind":"shear","rows":0,"cols":8}`, "rows×cols"},
		{"shear oversize mesh", `{"kind":"shear","rows":1024,"cols":1024}`, "rows×cols"},
		{"broadcast negative source", `{"kind":"broadcast","n":4,"source":-1}`, "source -1 out of range"},
		{"broadcast source beyond n!", `{"kind":"broadcast","n":4,"source":24}`, "out of range [0,24)"},
		{"sweep n out of range", `{"kind":"sweep","n":9}`, "n in [2,8]"},
		{"faultroute too many faults", `{"kind":"faultroute","n":4,"faults":3}`, "at most n-2"},
		{"faultroute negative pairs", `{"kind":"faultroute","n":4,"faults":1,"pairs":-2}`, "pairs ≥ 1"},
		{"embedrect d too large", `{"kind":"embedrect","n":4,"d":4}`, "d in [1,3]"},
		{"permroute n too large", `{"kind":"permroute","n":8}`, "n in [2,7]"},
		{"permroute bad pattern", `{"kind":"permroute","n":4,"pattern":"spiral"}`, `pattern "spiral"`},
		{"virtual n too large", `{"kind":"virtual","n":6}`, "n in [2,5]"},
		{"diagnostics negative holes", `{"kind":"diagnostics","n":4,"holes":-1}`, "holes"},
		{"diagnostics too many trials", `{"kind":"diagnostics","n":4,"holes":1,"trials":1000}`, "trials in [1,64]"},
		{"pipeline bad source", `{"kind":"pipeline","n":4,"source":-3}`, "source -3 out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, data := doJSON(t, "POST", ts.URL+"/v1/jobs", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("submit returned %d, want 400: %s", code, data)
			}
			var out ErrorBody
			if err := json.Unmarshal(data, &out); err != nil || out.Error.Code == "" {
				t.Fatalf("400 body is not a structured error document: %s", data)
			}
			if out.Error.Code != CodeInvalidSpec && out.Error.Code != CodeInvalidArgument {
				t.Fatalf("400 code %q, want invalid_spec or invalid_argument", out.Error.Code)
			}
			if msg := out.Error.Message; !strings.Contains(msg, tc.want) {
				t.Fatalf("400 message %q does not explain the problem (want %q)", msg, tc.want)
			}
		})
	}
	// Every registered kind has at least one negative case above
	// (kind-specific or via the shared starN), so a kind added
	// without validation coverage fails here.
	covered := map[string]bool{}
	for _, tc := range cases {
		var spec struct {
			Kind string `json:"kind"`
		}
		_ = json.Unmarshal([]byte(tc.body), &spec)
		covered[spec.Kind] = true
	}
	for _, k := range workload.Kinds() {
		if !covered[k] {
			t.Errorf("no validation error case covers kind %q", k)
		}
	}
}

// TestNormalizedFillsDefaults pins the defaulting contract the
// parity harness relies on (it keys results by normalized names).
func TestNormalizedFillsDefaults(t *testing.T) {
	cases := []struct {
		spec JobSpec
		name string
	}{
		{JobSpec{Kind: KindSort, N: 4}, "sort-star-n4-uniform-seed0"},
		{JobSpec{Kind: KindSweep, N: 4}, "sweep-star-n4-t1"},
		{JobSpec{Kind: KindFaultRoute, N: 4, Faults: 1}, "faultroute-star-n4-f1-p1-seed0"},
		{JobSpec{Kind: KindEmbedRect, N: 5}, "embedrect-star-n5-d2"},
		{JobSpec{Kind: KindPermRoute, N: 4}, "permroute-star-n4-random-seed0"},
		{JobSpec{Kind: KindVirtual, N: 3}, "virtual-star-n3-uniform-seed0"},
		{JobSpec{Kind: KindDiagnostics, N: 4, Holes: 1}, "diagnostics-star-n4-h1-t1-seed0"},
		{JobSpec{Kind: KindPipeline, N: 4}, "pipeline-star-n4-d2-uniform-seed0-src0"},
	}
	for _, tc := range cases {
		norm, err := tc.spec.Normalized()
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Kind, err)
		}
		if got := norm.Name(); got != tc.name {
			t.Errorf("%s normalized name = %q, want %q", tc.spec.Kind, got, tc.name)
		}
	}
}
