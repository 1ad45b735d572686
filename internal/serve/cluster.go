// Cluster membership of one serve node, and the stats fan-in math of
// the whole cluster. A clustered node knows its own name and the
// member map (SetCluster), serves both at GET /v1/cluster so any node
// can bootstrap a routing client, and migrates its queued backlog to
// the surviving owners on POST /v1/drain. The scatter side of the
// cluster lives in the routing client (starmesh/client); this file
// holds the gather side — MergeStats — because merging leaderboards
// correctly means recomputing the Poisson and rank intervals from the
// merged counts, with the same math /v1/stats uses on one node.
package serve

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	"starmesh/internal/cluster"
)

// ClusterInfo is the GET /v1/cluster body: which node answered and
// the full member map. Any node's copy bootstraps a routing client.
type ClusterInfo struct {
	Self string      `json:"self"`
	Map  cluster.Map `json:"map"`
}

// SetCluster declares this service a member of a cluster: self must
// name a node of the (valid) map. Safe to call after the service is
// running — the harness binds listeners first and installs the map
// once every node's URL is known.
func (s *Service) SetCluster(self string, m cluster.Map) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if _, ok := m.NodeURL(self); !ok {
		return fmt.Errorf("serve: node %q is not in the cluster map", self)
	}
	s.clusterInfo.Store(&ClusterInfo{Self: self, Map: m})
	return nil
}

// Cluster returns this node's membership (ok=false when the service
// is not clustered).
func (s *Service) Cluster() (ClusterInfo, bool) {
	info := s.clusterInfo.Load()
	if info == nil {
		return ClusterInfo{}, false
	}
	return *info, true
}

// handleCluster serves the membership document. An unclustered node
// answers 404 — a routing client probing it should fail loudly, not
// route against an empty map.
func (s *Service) handleCluster(w http.ResponseWriter, r *http.Request) {
	info, ok := s.Cluster()
	if !ok {
		writeErrorCode(w, CodeNotFound, "node is not clustered (no -cluster/-peers)", nil)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// DrainResponse is the POST /v1/drain body: the queued jobs the node
// extracted for migration. The caller (the routing client's Drain)
// resubmits each job's durable spec to its surviving owner; specs
// fully determine results, so the re-execution elsewhere is
// bit-identical to what this node would have produced.
type DrainResponse struct {
	// Node is the draining node's cluster name ("" unclustered).
	Node string `json:"node,omitempty"`
	// Migrated holds the extracted jobs, in admission order — each
	// locally terminal (canceled, error "migrated") with its Spec and
	// Tenant intact for resubmission.
	Migrated []Job `json:"migrated"`
}

// handleDrain extracts the queued backlog for migration, answers
// with it, and then asks ListenAndServe to begin the normal graceful
// shutdown (running jobs get DrainGrace to finish; the listener stays
// up through the drain so this response and concurrent watch streams
// complete).
func (s *Service) handleDrain(w http.ResponseWriter, r *http.Request) {
	resp := DrainResponse{Migrated: s.DrainMigrate()}
	if info, ok := s.Cluster(); ok {
		resp.Node = info.Self
	}
	writeJSON(w, http.StatusOK, resp)
	s.requestDrainExit()
}

// DrainMigrate stops admission and extracts every queued job for
// migration: each is popped from the scheduler (so no local worker
// can claim it), marked locally terminal (canceled, error "migrated"
// — WAL-logged, so a crash mid-drain recovers it as canceled, never
// as a duplicate run), and returned in admission order. Running jobs
// are untouched: they finish locally under the drain grace. Safe to
// call repeatedly; later calls find an empty scheduler.
func (s *Service) DrainMigrate() []Job {
	s.beginDrain()
	ids := s.sched.drainAll()
	now := time.Now()
	migrated := make([]Job, 0, len(ids))
	for _, id := range ids {
		// A worker that popped the id before the drain races us here:
		// whoever reaches the store first wins (claim and migrate both
		// require Status == queued), so the job either runs locally or
		// migrates — never both.
		if job, ok := s.store.migrate(id, now); ok {
			migrated = append(migrated, job)
		}
	}
	if len(migrated) > 0 {
		s.log.Info("drain migrated queued jobs", "count", len(migrated))
	}
	return migrated
}

// requestDrainExit nudges ListenAndServe into its graceful-shutdown
// path (idempotent; a no-op for services driven without it).
func (s *Service) requestDrainExit() {
	select {
	case s.drainRequested <- struct{}{}:
	default:
	}
}

// MergeStats gathers per-node Stats into the one-service view a
// clustered GET /v1/stats presents. Counts, totals and throughput
// sum; Pooling holds only if every node pools; Draining if any node
// drains. Latency and queue-wait percentiles take the per-node
// maximum — a Stats carries each node's percentiles but not the
// log-bucket counts behind them, and percentiles do not merge, so
// the honest merged claim is the conservative bound. The per-tenant
// leaderboard merges each tenant's window counts across nodes, then
// recomputes the 95% Poisson throughput intervals from the merged
// counts (n ± 1.96·√n over the requested window, even where a node's
// TenantWindowNs reports a shorter span) and the simultaneous rank
// intervals from those —
// the same construction a single node uses, applied after the merge,
// so rank uncertainty reflects cluster-wide counts rather than
// averaging per-node ranks (which would be meaningless).
func MergeStats(per map[string]Stats, window time.Duration) Stats {
	out := Stats{
		Durability:     Durability{Store: "cluster"},
		Pooling:        len(per) > 0,
		TenantWindowNs: window.Nanoseconds(),
	}
	kinds := make(map[string]*KindStats)
	pools := make(map[string]*PoolStats)
	tenants := make(map[string]*TenantStats)
	names := make([]string, 0, len(per))
	for name := range per {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := per[name]
		out.Queued += st.Queued
		out.Running += st.Running
		out.Done += st.Done
		out.Failed += st.Failed
		out.Canceled += st.Canceled
		out.UnitRoutes += st.UnitRoutes
		out.Conflicts += st.Conflicts
		out.WatchDrops += st.WatchDrops
		out.Workers += st.Workers
		out.QueueCap += st.QueueCap
		out.ThroughputJobsPerSec += st.ThroughputJobsPerSec
		out.Pooling = out.Pooling && st.Pooling
		out.Draining = out.Draining || st.Draining
		out.LatencyTotalP50Ns = max(out.LatencyTotalP50Ns, st.LatencyTotalP50Ns)
		out.LatencyTotalP99Ns = max(out.LatencyTotalP99Ns, st.LatencyTotalP99Ns)
		out.LatencyRunP50Ns = max(out.LatencyRunP50Ns, st.LatencyRunP50Ns)
		out.LatencyRunP99Ns = max(out.LatencyRunP99Ns, st.LatencyRunP99Ns)
		for _, k := range st.Kinds {
			agg, ok := kinds[k.Kind]
			if !ok {
				agg = &KindStats{Kind: k.Kind}
				kinds[k.Kind] = agg
			}
			agg.Done += k.Done
			agg.Failed += k.Failed
			agg.Canceled += k.Canceled
			agg.UnitRoutes += k.UnitRoutes
			agg.Conflicts += k.Conflicts
		}
		for _, p := range st.Pools {
			// Shapes are partitioned by ownership, so one shape's pool
			// normally lives on one node; summing keeps the merge correct
			// across membership changes, when two nodes briefly hold
			// pools of the same shape.
			agg, ok := pools[p.Shape]
			if !ok {
				agg = &PoolStats{Shape: p.Shape}
				pools[p.Shape] = agg
			}
			agg.Idle += p.Idle
			agg.InUse += p.InUse
			agg.Builds += p.Builds
			agg.Reuses += p.Reuses
		}
		for _, t := range st.Tenants {
			agg, ok := tenants[t.Tenant]
			if !ok {
				agg = &TenantStats{Tenant: t.Tenant}
				tenants[t.Tenant] = agg
			}
			agg.Weight = max(agg.Weight, t.Weight)
			agg.Queued += t.Queued
			agg.Jobs += t.Jobs
			agg.Done += t.Done
			agg.UnitRoutes += t.UnitRoutes
			agg.Conflicts += t.Conflicts
			agg.QueueWaitP50Ns = max(agg.QueueWaitP50Ns, t.QueueWaitP50Ns)
			agg.QueueWaitP99Ns = max(agg.QueueWaitP99Ns, t.QueueWaitP99Ns)
		}
	}
	for _, k := range kinds {
		out.Kinds = append(out.Kinds, *k)
	}
	sort.Slice(out.Kinds, func(i, j int) bool { return out.Kinds[i].Kind < out.Kinds[j].Kind })
	for _, p := range pools {
		out.Pools = append(out.Pools, *p)
	}
	sort.Slice(out.Pools, func(i, j int) bool { return out.Pools[i].Shape < out.Pools[j].Shape })
	if out.Pools == nil {
		out.Pools = []PoolStats{}
	}
	rows := make([]TenantStats, 0, len(tenants))
	for _, t := range tenants {
		t.setThroughput(window)
		rows = append(rows, *t)
	}
	out.Tenants = RankTenantStats(rows)
	return out
}
