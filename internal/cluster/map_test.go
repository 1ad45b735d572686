package cluster

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestMapValidate(t *testing.T) {
	valid := Map{Nodes: []Node{{Name: "n1", URL: "http://a"}, {Name: "n2", URL: "http://b"}}}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
	cases := []struct {
		name string
		m    Map
		want string
	}{
		{"empty", Map{}, "no nodes"},
		{"blank name", Map{Nodes: []Node{{URL: "http://a"}}}, "empty name"},
		{"reserved char", Map{Nodes: []Node{{Name: "n/1", URL: "http://a"}}}, "reserved"},
		{"no url", Map{Nodes: []Node{{Name: "n1"}}}, "no url"},
		{"duplicate", Map{Nodes: []Node{{Name: "n1", URL: "http://a"}, {Name: "n1", URL: "http://b"}}}, "duplicate"},
	}
	for _, c := range cases {
		err := c.m.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestMapLookupsAndWithout(t *testing.T) {
	m := Map{Nodes: []Node{{Name: "n1", URL: "http://a"}, {Name: "n2", URL: "http://b"}}, VNodes: 16}
	if u, ok := m.NodeURL("n2"); !ok || u != "http://b" {
		t.Errorf("NodeURL(n2) = %q, %v", u, ok)
	}
	if _, ok := m.NodeURL("nope"); ok {
		t.Error("NodeURL should miss unknown node")
	}
	w := m.Without("n1")
	if len(w.Nodes) != 1 || w.Nodes[0].Name != "n2" || w.VNodes != 16 {
		t.Errorf("Without(n1) = %+v", w)
	}
	if len(m.Nodes) != 2 {
		t.Error("Without must not mutate the receiver")
	}
	if m.Ring().Len() != 2 {
		t.Error("Ring() should cover both nodes")
	}
}

func TestParsePeers(t *testing.T) {
	nodes, err := ParsePeers("n2=http://b:8080, n1=http://a:8080*3,")
	if err != nil {
		t.Fatal(err)
	}
	want := []Node{
		{Name: "n1", URL: "http://a:8080", Weight: 3},
		{Name: "n2", URL: "http://b:8080"},
	}
	if !reflect.DeepEqual(nodes, want) {
		t.Errorf("ParsePeers = %+v, want %+v", nodes, want)
	}
	for _, bad := range []string{"", "  ,  ", "justurl", "=http://a", "n1=", "n1=http://a*0", "n1=http://a*x",
		"n1=http://a*2x", "n1=*2"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) should fail", bad)
		}
	}
}

func TestQualifySplitID(t *testing.T) {
	id := QualifyID("n1", "job-000042")
	if id != "n1/job-000042" {
		t.Fatalf("QualifyID = %q", id)
	}
	node, local, ok := SplitID(id)
	if !ok || node != "n1" || local != "job-000042" {
		t.Fatalf("SplitID(%q) = %q, %q, %v", id, node, local, ok)
	}
	if _, _, ok := SplitID("job-000042"); ok {
		t.Error("SplitID without prefix should report !ok")
	}
}

func TestCursorRoundTrip(t *testing.T) {
	per := map[string]string{"n1": "job-000009", "n3": "", "n2": "job-000123"}
	enc := EncodeCursor(per)
	if enc != "n1=job-000009;n2=job-000123;n3=" {
		t.Fatalf("EncodeCursor = %q (must be deterministic, sorted)", enc)
	}
	dec, err := DecodeCursor(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, per) {
		t.Errorf("round trip = %v, want %v", dec, per)
	}
	if empty, err := DecodeCursor(""); err != nil || len(empty) != 0 {
		t.Errorf(`DecodeCursor("") = %v, %v`, empty, err)
	}
	if EncodeCursor(nil) != "" {
		t.Error("EncodeCursor(nil) should be empty")
	}
	for _, bad := range []string{"noequals", "=cur", "n1=a;n1=b"} {
		if _, err := DecodeCursor(bad); err == nil {
			t.Errorf("DecodeCursor(%q) should fail", bad)
		}
	}
}

// FuzzParsePeers parses arbitrary -peers flags. Nothing may panic;
// an accepted list is sorted by name, every node has a name and a
// URL and a weight ≥ 0, and rendering it back to flag form parses to
// the same nodes.
func FuzzParsePeers(f *testing.F) {
	f.Add("n2=http://b:8080, n1=http://a:8080*3,")
	f.Add("n1=http://a*2x")
	f.Add("n1=*2,n2=http://b=c")
	f.Add("a=x,a=y,b=z*1")
	f.Fuzz(func(t *testing.T, s string) {
		nodes, err := ParsePeers(s)
		if err != nil {
			return
		}
		parts := make([]string, len(nodes))
		for i, n := range nodes {
			if n.Name == "" || n.URL == "" || n.Weight < 0 {
				t.Fatalf("ParsePeers(%q) accepted node %+v", s, n)
			}
			parts[i] = n.Name + "=" + n.URL
			if n.Weight > 0 {
				parts[i] += "*" + strconv.Itoa(n.Weight)
			}
		}
		if !slices.IsSortedFunc(nodes, func(a, b Node) int { return strings.Compare(a.Name, b.Name) }) {
			t.Fatalf("ParsePeers(%q) = %+v, not sorted by name", s, nodes)
		}
		flag := strings.Join(parts, ",")
		again, err := ParsePeers(flag)
		if err != nil || !reflect.DeepEqual(again, nodes) {
			t.Fatalf("ParsePeers(%q) = %+v, rendered %q parses to %+v, %v", s, nodes, flag, again, err)
		}
	})
}

// FuzzDecodeCursor decodes arbitrary compound cursors. Nothing may
// panic, and a decoded map survives EncodeCursor and DecodeCursor
// unchanged.
func FuzzDecodeCursor(f *testing.F) {
	f.Add("n1=job-000009;n2=job-000123;n3=")
	f.Add("")
	f.Add("n1=a=b;n2=")
	f.Add("n1=a;n1=b")
	f.Fuzz(func(t *testing.T, s string) {
		per, err := DecodeCursor(s)
		if err != nil {
			return
		}
		enc := EncodeCursor(per)
		again, err := DecodeCursor(enc)
		if err != nil || !reflect.DeepEqual(again, per) {
			t.Fatalf("DecodeCursor(%q) = %v, re-encoded %q decodes to %v, %v", s, per, enc, again, err)
		}
	})
}
