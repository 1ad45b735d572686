// Package cluster is the membership and ownership layer of a
// sharded starmesh deployment: N serve processes presented as one
// logical service.
//
// The pieces, bottom up:
//
//   - Ring: a consistent-hash ring over the member nodes, with
//     virtual nodes for uniformity and per-node weights. Ownership is
//     keyed by the machine-pool shape (the topology key from
//     workload.Spec.Shape), so every job of one shape lands
//     on one node and its machine pool amortizes across the whole
//     cluster's traffic for that shape. The hash is FNV-64a — a fixed
//     function, so every process that sees the same member list
//     computes the same ownership; membership change moves only the
//     keys whose arcs the change touches (≤ 1/N of them in
//     expectation, and never a key between two surviving nodes).
//
//   - Map: the serializable membership document every node serves at
//     GET /v1/cluster and the routing client boots from. Any node can
//     answer; the map is static configuration (the -peers flag), not
//     a consensus protocol.
//
//   - Job-ID namespace: cluster job ids are "node/localid"
//     (QualifyID / SplitID), so a read routes to its owner by parsing
//     the id — no directory service, no lookup table.
//
//   - Cursor: the compound pagination cursor of the merged multi-node
//     job listing — one admission-sequence cursor per node, encoded
//     in a single opaque string, so a cluster-wide walk inherits each
//     node's cursor stability.
//
// The package deliberately has no dependency on internal/serve: the
// service imports cluster for its map types, and the typed client
// (starmesh/client) combines both into the routing layer.
package cluster
