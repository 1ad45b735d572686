package graphalg

// Vertex-hole views: the measurement substrate of fault sweeps. A
// holed graph keeps the host's vertex ids (so results map back
// directly) but deleted vertices lose every incident edge, exactly
// like a failed processor dropping off the network.

// holeGraph is g with the marked vertices deleted.
type holeGraph struct {
	g       Graph
	removed []bool
}

// WithoutVertices returns a view of g in which every vertex v with
// removed[v] set is deleted: it keeps no edges and appears in no
// neighbor list. The vertex count is unchanged, so ids keep meaning.
func WithoutVertices(g Graph, removed []bool) Graph {
	return holeGraph{g: g, removed: removed}
}

func (h holeGraph) Order() int { return h.g.Order() }

func (h holeGraph) AppendNeighbors(buf []int, v int) []int {
	if v < len(h.removed) && h.removed[v] {
		return buf
	}
	start := len(buf)
	buf = h.g.AppendNeighbors(buf, v)
	out := buf[:start]
	for _, w := range buf[start:] {
		if w >= len(h.removed) || !h.removed[w] {
			out = append(out, w)
		}
	}
	return out
}

// ReachableFrom counts the vertices reachable from src (inclusive)
// and the eccentricity of src within its component.
func ReachableFrom(g Graph, src int) (count, ecc int) {
	for _, d := range BFS(g, src) {
		if d >= 0 {
			count++
			if d > ecc {
				ecc = d
			}
		}
	}
	return count, ecc
}

// ConnectedExcept reports whether g stays connected after removing
// the given vertices (which must not include vertex `probe`).
func ConnectedExcept(g Graph, probe int, holes ...int) bool {
	removed := make([]bool, g.Order())
	alive := g.Order()
	for _, h := range holes {
		if !removed[h] {
			removed[h] = true
			alive--
		}
	}
	if removed[probe] {
		panic("graphalg: probe vertex is a hole")
	}
	count, _ := ReachableFrom(WithoutVertices(g, removed), probe)
	return count == alive
}
