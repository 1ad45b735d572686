// The cluster map: the static membership document a sharded
// deployment is configured with (the -peers flag) and every node
// serves at GET /v1/cluster. The routing client boots from any
// node's copy and derives ownership through the ring — there is no
// membership protocol; changing the set means restarting with a new
// peer list (drain-with-migration makes that lossless for queued
// work).
package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Node is one cluster member.
type Node struct {
	// Name is the node's stable identity — the job-id namespace prefix
	// and the ring label. Must be unique, non-empty, and free of the
	// "/" the id namespace and the "=,;" the flag/cursor encodings use.
	Name string `json:"name"`
	// URL is the node's HTTP base (e.g. "http://10.0.0.7:8080").
	URL string `json:"url"`
	// Weight scales the node's ring share (≤ 0 means 1). A node with
	// weight 2 owns roughly twice the shapes of a weight-1 node.
	Weight int `json:"weight,omitempty"`
}

// Map is the cluster membership document.
type Map struct {
	// Nodes lists every member, including the serving node itself.
	Nodes []Node `json:"nodes"`
	// VNodes is the ring's virtual-node count per unit of weight
	// (0 = DefaultVNodes). All nodes and clients must agree on it;
	// it rides the map so they do.
	VNodes int `json:"vnodes,omitempty"`
}

// Validate checks the map is routable: at least one node, unique
// non-empty names without reserved characters, and a URL per node.
func (m Map) Validate() error {
	if len(m.Nodes) == 0 {
		return fmt.Errorf("cluster: map has no nodes")
	}
	seen := make(map[string]bool, len(m.Nodes))
	for _, n := range m.Nodes {
		if n.Name == "" {
			return fmt.Errorf("cluster: node with empty name (url %q)", n.URL)
		}
		if strings.ContainsAny(n.Name, "/=,; \t") {
			return fmt.Errorf("cluster: node name %q contains a reserved character (/ = , ; or whitespace)", n.Name)
		}
		if n.URL == "" {
			return fmt.Errorf("cluster: node %q has no url", n.Name)
		}
		if seen[n.Name] {
			return fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
	}
	return nil
}

// Ring builds the map's ownership ring.
func (m Map) Ring() *Ring { return NewRing(m.Nodes, m.VNodes) }

// NodeURL resolves a member name to its base URL.
func (m Map) NodeURL(name string) (string, bool) {
	for _, n := range m.Nodes {
		if n.Name == name {
			return n.URL, true
		}
	}
	return "", false
}

// Without returns a copy of the map with one node removed — the
// surviving membership a drain routes migrated work against.
func (m Map) Without(name string) Map {
	out := Map{VNodes: m.VNodes}
	for _, n := range m.Nodes {
		if n.Name != name {
			out.Nodes = append(out.Nodes, n)
		}
	}
	return out
}

// ParsePeers parses the -peers flag format: a comma-separated list
// of name=url[*weight] entries, e.g.
//
//	n1=http://10.0.0.1:8080,n2=http://10.0.0.2:8080*2
//
// Order does not matter (ownership depends only on the set).
func ParsePeers(s string) ([]Node, error) {
	var nodes []Node
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok || name == "" || rest == "" {
			return nil, fmt.Errorf("cluster: bad peer %q (want name=url[*weight])", part)
		}
		n := Node{Name: name, URL: rest}
		if url, w, ok := strings.Cut(rest, "*"); ok {
			weight, err := strconv.Atoi(w)
			if err != nil || weight < 1 {
				return nil, fmt.Errorf("cluster: bad peer weight in %q", part)
			}
			if url == "" {
				return nil, fmt.Errorf("cluster: bad peer %q (want name=url[*weight])", part)
			}
			n.URL, n.Weight = url, weight
		}
		nodes = append(nodes, n)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	return nodes, nil
}

// QualifyID namespaces a node-local job id: "node/localid". Cluster
// reads parse the prefix to find the owning node, so no directory of
// job locations ever exists.
func QualifyID(node, localID string) string { return node + "/" + localID }

// SplitID splits a qualified cluster job id into its node and local
// parts; ok=false means the id carries no node prefix.
func SplitID(id string) (node, localID string, ok bool) {
	return strings.Cut(id, "/")
}
