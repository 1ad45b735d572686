// The cluster routing client: N serve nodes presented as one typed
// client. Ownership is client-side — the consistent-hash ring over
// the cluster map assigns every spec's topology shape to
// one node, submits go straight to the owner, and reads route by the
// node prefix of the cluster job id ("node/localid"), so no request
// ever takes a second hop and no directory service exists. Reads
// that span the cluster scatter-gather: Stats merges per-node
// leaderboards with recomputed Poisson and rank intervals
// (serve.MergeStats), and List merges per-node pages under a
// compound cursor that inherits each node's cursor stability.
//
//	cc, err := client.DialCluster(ctx, "http://any-node:8080")
//	job, err := cc.Submit(ctx, spec)   // routed to the shape's owner
//	final, err := cc.Await(ctx, job.ID) // "n2/job-000017" routes itself
//
// Drain(node) empties one node for shutdown: the node extracts its
// queued backlog (each job locally canceled with the migration
// marker), and the client resubmits every extracted spec to its
// owner among the survivors. Specs fully determine results, so the
// migrated jobs re-execute bit-identically.
package client

import (
	"context"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"starmesh/internal/cluster"
	"starmesh/internal/serve"
)

// ClusterInfo is the GET /v1/cluster body.
type ClusterInfo = serve.ClusterInfo

// ClusterClient routes typed-client calls across the member nodes of
// a starmesh cluster. Safe for concurrent use; Drain atomically
// swaps the membership the routing runs against.
type ClusterClient struct {
	mu    sync.RWMutex
	m     cluster.Map
	ring  *cluster.Ring
	nodes map[string]*Client
	opts  []Option
}

// DialCluster bootstraps a routing client from any member node: it
// fetches the node's cluster map (GET /v1/cluster) and builds one
// typed client per member. The options apply to every per-node
// client (API key, retry policy, HTTP client).
func DialCluster(ctx context.Context, anyNodeURL string, opts ...Option) (*ClusterClient, error) {
	boot := New(anyNodeURL, opts...)
	var info ClusterInfo
	if err := boot.do(ctx, "GET", "/v1/cluster", nil, decodeInto(&info)); err != nil {
		return nil, fmt.Errorf("client: cluster bootstrap from %s: %w", anyNodeURL, err)
	}
	return NewCluster(info.Map, opts...)
}

// NewCluster builds a routing client directly from a member map —
// for callers that already hold one (the CLI's -peers flag, the
// bench harness).
func NewCluster(m cluster.Map, opts ...Option) (*ClusterClient, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cc := &ClusterClient{opts: opts}
	cc.install(m)
	return cc, nil
}

// install swaps in a membership: ring and per-node clients rebuilt.
func (cc *ClusterClient) install(m cluster.Map) {
	nodes := make(map[string]*Client, len(m.Nodes))
	for _, n := range m.Nodes {
		nodes[n.Name] = New(n.URL, cc.opts...)
	}
	cc.mu.Lock()
	cc.m, cc.ring, cc.nodes = m, m.Ring(), nodes
	cc.mu.Unlock()
}

// Map returns the membership the client currently routes against.
func (cc *ClusterClient) Map() cluster.Map {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return cc.m
}

// Nodes returns the member names, sorted.
func (cc *ClusterClient) Nodes() []string {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return cc.ring.Nodes()
}

// Node returns the typed client of one member — for per-node probes
// (healthz, metrics) the cluster view deliberately does not merge.
func (cc *ClusterClient) Node(name string) (*Client, bool) {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	c, ok := cc.nodes[name]
	return c, ok
}

// ownerOf resolves the node owning a spec's pool shape. The shape is
// computed from the normalized spec (what the server pools by); a
// spec too malformed to normalize routes by its raw shape and lets
// the owner reject it with the service's own 400 — validation errors
// keep exactly one source.
func (cc *ClusterClient) ownerOf(spec JobSpec) (string, *Client, error) {
	shape := spec.Shape()
	if norm, err := spec.Normalized(); err == nil {
		shape = norm.Shape()
	}
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	name := cc.ring.Owner(shape)
	c, ok := cc.nodes[name]
	if !ok {
		return "", nil, fmt.Errorf("client: cluster has no nodes")
	}
	return name, c, nil
}

// nodeFor resolves a cluster job id's owning node from its prefix.
func (cc *ClusterClient) nodeFor(id string) (string, string, *Client, error) {
	node, local, ok := cluster.SplitID(id)
	if !ok {
		return "", "", nil, fmt.Errorf("client: %q is not a cluster job id (want node/jobid)", id)
	}
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	c, found := cc.nodes[node]
	if !found {
		return "", "", nil, fmt.Errorf("client: job %q belongs to unknown node %q", id, node)
	}
	return node, local, c, nil
}

// qualify rewrites a node-local job snapshot into the cluster id
// namespace.
func qualify(node string, j Job) Job {
	j.ID = cluster.QualifyID(node, j.ID)
	return j
}

// Submit admits one job on the node owning its shape, returning the
// queued snapshot under its cluster id ("node/jobid").
func (cc *ClusterClient) Submit(ctx context.Context, spec JobSpec) (Job, error) {
	node, c, err := cc.ownerOf(spec)
	if err != nil {
		return Job{}, err
	}
	job, err := c.Submit(ctx, spec)
	if err != nil {
		return Job{}, err
	}
	return qualify(node, job), nil
}

// SubmitBatch admits a batch across the cluster, grouped by owning
// node, returning the queued jobs in spec order. Atomicity is
// per-node (each node's group is all-or-nothing); if a later group
// fails, the already-admitted groups are canceled best-effort and
// the error returned — callers needing strict all-or-nothing should
// batch specs of one shape, which always land on one node.
func (cc *ClusterClient) SubmitBatch(ctx context.Context, specs []JobSpec) ([]Job, error) {
	type group struct {
		c       *Client
		specs   []JobSpec
		indexes []int
	}
	groups := make(map[string]*group)
	var order []string
	for i, spec := range specs {
		node, c, err := cc.ownerOf(spec)
		if err != nil {
			return nil, err
		}
		g, ok := groups[node]
		if !ok {
			g = &group{c: c}
			groups[node] = g
			order = append(order, node)
		}
		g.specs = append(g.specs, spec)
		g.indexes = append(g.indexes, i)
	}
	out := make([]Job, len(specs))
	var admitted []Job
	for _, node := range order {
		g := groups[node]
		jobs, err := g.c.SubmitBatch(ctx, g.specs)
		if err != nil {
			// Roll the earlier groups back so a partial cluster batch
			// does not run half its jobs. Best-effort: a job a worker
			// already claimed cancels at its next checkpoint.
			for _, j := range admitted {
				_, _ = cc.Cancel(ctx, j.ID)
			}
			return nil, fmt.Errorf("client: batch group on %s failed (earlier groups canceled): %w", node, err)
		}
		for i, j := range jobs {
			q := qualify(node, j)
			out[g.indexes[i]] = q
			admitted = append(admitted, q)
		}
	}
	return out, nil
}

// Get returns a job snapshot by cluster id.
func (cc *ClusterClient) Get(ctx context.Context, id string) (Job, error) {
	node, local, c, err := cc.nodeFor(id)
	if err != nil {
		return Job{}, err
	}
	job, err := c.Get(ctx, local)
	if err != nil {
		return Job{}, err
	}
	return qualify(node, job), nil
}

// Cancel aborts a job by cluster id.
func (cc *ClusterClient) Cancel(ctx context.Context, id string) (Job, error) {
	node, local, c, err := cc.nodeFor(id)
	if err != nil {
		return Job{}, err
	}
	job, err := c.Cancel(ctx, local)
	if err != nil {
		return Job{}, err
	}
	return qualify(node, job), nil
}

// Trace returns a job's trace timeline by cluster id.
func (cc *ClusterClient) Trace(ctx context.Context, id string) ([]TraceEvent, error) {
	job, err := cc.Get(ctx, id)
	if err != nil {
		return nil, err
	}
	return job.Trace, nil
}

// ClusterWatcher is a Watcher whose snapshots carry cluster ids.
type ClusterWatcher struct {
	*Watcher
	node string
}

// Next returns the next snapshot, id qualified.
func (w *ClusterWatcher) Next() (Job, error) {
	j, err := w.Watcher.Next()
	if err != nil {
		return j, err
	}
	return qualify(w.node, j), nil
}

// Watch streams a job's transitions from its owning node (with the
// underlying Watcher's auto-reconnect).
func (cc *ClusterClient) Watch(ctx context.Context, id string) (*ClusterWatcher, error) {
	node, local, c, err := cc.nodeFor(id)
	if err != nil {
		return nil, err
	}
	w, err := c.Watch(ctx, local)
	if err != nil {
		return nil, err
	}
	return &ClusterWatcher{Watcher: w, node: node}, nil
}

// Await watches a job to its terminal status and returns the final
// snapshot.
func (cc *ClusterClient) Await(ctx context.Context, id string) (Job, error) {
	node, local, c, err := cc.nodeFor(id)
	if err != nil {
		return Job{}, err
	}
	job, err := c.Await(ctx, local)
	if err != nil {
		return job, err
	}
	return qualify(node, job), nil
}

// StatsWindow scatter-gathers GET /v1/stats from every node and
// merges them into the one-service view: counts and throughput sum,
// and the per-tenant leaderboard's Poisson throughput intervals and
// simultaneous rank intervals are recomputed from the merged
// per-tenant counts (serve.MergeStats) — rank uncertainty reflects
// cluster-wide evidence, not an average of per-node ranks. window
// uses the server default when ≤ 0. Any node failing fails the
// merge: a partial leaderboard would silently misrank.
func (cc *ClusterClient) StatsWindow(ctx context.Context, window time.Duration) (Stats, error) {
	cc.mu.RLock()
	nodes := make(map[string]*Client, len(cc.nodes))
	for name, c := range cc.nodes {
		nodes[name] = c
	}
	cc.mu.RUnlock()
	if window <= 0 {
		window = serve.DefaultTenantWindow
	}
	path := "/v1/stats?window=" + url.QueryEscape(window.String())
	var (
		mu   sync.Mutex
		per  = make(map[string]Stats, len(nodes))
		errs []error
		wg   sync.WaitGroup
	)
	for name, c := range nodes {
		wg.Add(1)
		go func(name string, c *Client) {
			defer wg.Done()
			var st Stats
			err := c.do(ctx, "GET", path, nil, decodeInto(&st))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", name, err))
				return
			}
			per[name] = st
		}(name, c)
	}
	wg.Wait()
	if len(errs) > 0 {
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return Stats{}, fmt.Errorf("client: cluster stats: %w", errs[0])
	}
	return serve.MergeStats(per, window), nil
}

// Stats is StatsWindow with the server-default leaderboard window.
func (cc *ClusterClient) Stats(ctx context.Context) (Stats, error) {
	return cc.StatsWindow(ctx, 0)
}

// List returns one merged page of the cluster job listing, newest
// first by (admission seq, node). The compound cursor folds one
// per-node cursor into an opaque token; each node's slice of the
// walk is its own cursor-stable seq walk, so the merged walk yields
// every job exactly once even while jobs finish (and new admissions,
// which take higher seqs, never appear inside a resumed walk).
func (cc *ClusterClient) List(ctx context.Context, opts ListOptions) (JobPage, error) {
	cc.mu.RLock()
	nodes := make(map[string]*Client, len(cc.nodes))
	for name, c := range cc.nodes {
		nodes[name] = c
	}
	cc.mu.RUnlock()
	per, err := cluster.DecodeCursor(opts.Cursor)
	if err != nil {
		return JobPage{}, fmt.Errorf("client: %w", err)
	}
	limit := opts.Limit
	if limit <= 0 {
		limit = 100
	}
	// One page per node, resumed from that node's cursor. An entry
	// remembers which node a candidate came from, so consuming it
	// advances the right cursor.
	type entry struct {
		node string
		job  Job
		seq  int
	}
	var (
		candidates []entry
		hasMore    = make(map[string]bool, len(nodes))
		names      []string
	)
	for name := range nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		page, err := nodes[name].List(ctx, ListOptions{
			Status: opts.Status, Limit: limit, Cursor: per[name],
		})
		if err != nil {
			return JobPage{}, fmt.Errorf("client: cluster list on %s: %w", name, err)
		}
		for _, j := range page.Jobs {
			candidates = append(candidates, entry{node: name, job: j, seq: serve.SeqOf(j.ID)})
		}
		hasMore[name] = page.NextCursor != ""
	}
	// Newest first; equal seqs (different nodes number independently)
	// break by node name so the order is total and replayable.
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].seq != candidates[j].seq {
			return candidates[i].seq > candidates[j].seq
		}
		return candidates[i].node < candidates[j].node
	})
	out := JobPage{Jobs: []Job{}}
	for i, e := range candidates {
		if len(out.Jobs) == limit {
			// Leftover candidates exist below the page: the walk
			// continues from the per-node cursors.
			hasMore[candidates[i].node] = true
			for _, rest := range candidates[i+1:] {
				hasMore[rest.node] = true
			}
			break
		}
		out.Jobs = append(out.Jobs, qualify(e.node, e.job))
		per[e.node] = strconv.Itoa(e.seq)
	}
	more := false
	for _, m := range hasMore {
		more = more || m
	}
	if more {
		out.NextCursor = cluster.EncodeCursor(per)
	}
	return out, nil
}

// ListAll walks the merged cursor chain to exhaustion.
func (cc *ClusterClient) ListAll(ctx context.Context, opts ListOptions) ([]Job, error) {
	var all []Job
	for {
		page, err := cc.List(ctx, opts)
		if err != nil {
			return all, err
		}
		all = append(all, page.Jobs...)
		if page.NextCursor == "" {
			return all, nil
		}
		opts.Cursor = page.NextCursor
	}
}

// MigratedJob maps one drained job to its resubmitted successor.
type MigratedJob struct {
	// From is the job's cluster id on the drained node (locally
	// terminal there: canceled, error "migrated").
	From string `json:"from"`
	// To is the resubmitted job's cluster id on the surviving owner.
	// The spec (and seed) is identical, so To's result is
	// bit-identical to what From would have produced.
	To string `json:"to"`
}

// Drain empties one node for shutdown: the node stops admission and
// extracts its queued backlog (POST /v1/drain — each job locally
// canceled with the migration marker, WAL-logged); the client then
// removes the node from its routing membership and resubmits every
// extracted spec to its new owner among the survivors, in the
// drained node's admission order. Jobs already running on the node
// finish there under its drain grace. Resubmission uses this
// client's credentials; per-tenant keys are a server-side concern
// the migration path deliberately bypasses (the operator draining a
// node acts for all tenants).
func (cc *ClusterClient) Drain(ctx context.Context, node string) ([]MigratedJob, error) {
	cc.mu.RLock()
	c, ok := cc.nodes[node]
	m := cc.m
	cc.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("client: unknown node %q", node)
	}
	var resp serve.DrainResponse
	if err := c.do(ctx, "POST", "/v1/drain", nil, decodeInto(&resp)); err != nil {
		return nil, fmt.Errorf("client: drain %s: %w", node, err)
	}
	survivors := m.Without(node)
	if len(survivors.Nodes) == 0 {
		if len(resp.Migrated) > 0 {
			return nil, fmt.Errorf("client: drained the last node %q with %d queued jobs and nowhere to migrate them", node, len(resp.Migrated))
		}
		return nil, nil
	}
	cc.install(survivors)
	migrated := make([]MigratedJob, 0, len(resp.Migrated))
	for _, old := range resp.Migrated {
		job, err := cc.Submit(ctx, old.Spec)
		if err != nil {
			return migrated, fmt.Errorf("client: migrating %s: %w", cluster.QualifyID(node, old.ID), err)
		}
		migrated = append(migrated, MigratedJob{
			From: cluster.QualifyID(node, old.ID),
			To:   job.ID,
		})
	}
	return migrated, nil
}
