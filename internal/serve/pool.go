// Per-shape machine pools: the amortization layer of the service.
// One pool holds idle machines of one shape; checkout hands a worker
// an idle machine (or builds one on a miss), checkin resets it —
// registers and stats zeroed, topology/plan/route-table state kept —
// and parks it for the next job of that shape. With pooling disabled
// every checkout builds and every checkin closes: the build-per-job
// baseline BENCH_serve.json measures against.
package serve

import (
	"errors"
	"sort"
	"sync"

	"starmesh/internal/workload"
)

// ErrPoolClosed reports a checkout against a drained pool set.
var ErrPoolClosed = errors.New("serve: machine pools are closed")

// pool manages the idle machines of one shape.
type pool struct {
	shape  string
	build  func() workload.Resource
	pooled bool

	mu     sync.Mutex
	idle   []workload.Resource
	closed bool
	builds int64
	reuses int64
	inUse  int
}

// checkout returns an idle machine or builds a fresh one, reporting
// which happened (built=true on a miss) so the caller can trace and
// count it. The build runs outside the lock so a slow construction
// never blocks checkouts of other workers (they simply build their
// own).
func (p *pool) checkout() (r workload.Resource, built bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, ErrPoolClosed
	}
	if n := len(p.idle); p.pooled && n > 0 {
		r := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.reuses++
		p.inUse++
		p.mu.Unlock()
		return r, false, nil
	}
	p.builds++
	p.inUse++
	p.mu.Unlock()
	return p.build(), true, nil
}

// checkin returns a machine after a job. Pooled machines are Reset —
// the satellite contract: registers and stats really are cleared
// before the next job — and parked; unpooled (or post-drain) ones
// are closed.
func (p *pool) checkin(r workload.Resource) {
	if p.pooled {
		r.Reset()
	}
	p.mu.Lock()
	p.inUse--
	if p.closed || !p.pooled {
		p.mu.Unlock()
		r.Close()
		return
	}
	p.idle = append(p.idle, r)
	p.mu.Unlock()
}

// close drains the pool: every idle machine is closed and later
// checkins close instead of parking. Idempotent — a second close
// finds no idle machines and an already-set flag.
func (p *pool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, r := range idle {
		r.Close()
	}
}

// PoolStats is the exported view of one shape's pool.
type PoolStats struct {
	Shape  string `json:"shape"`
	Idle   int    `json:"idle"`
	InUse  int    `json:"in_use"`
	Builds int64  `json:"builds"`
	Reuses int64  `json:"reuses"`
}

func (p *pool) stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Shape:  p.shape,
		Idle:   len(p.idle),
		InUse:  p.inUse,
		Builds: p.builds,
		Reuses: p.reuses,
	}
}

// poolSet lazily creates one pool per shape.
type poolSet struct {
	pooled bool
	mu     sync.Mutex
	pools  map[string]*pool
	closed bool
}

func newPoolSet(pooled bool) *poolSet {
	return &poolSet{pooled: pooled, pools: make(map[string]*pool)}
}

// forShape returns (creating if needed) the pool of a shape.
func (ps *poolSet) forShape(shape string, build func() workload.Resource) (*pool, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.closed {
		return nil, ErrPoolClosed
	}
	p, ok := ps.pools[shape]
	if !ok {
		p = &pool{shape: shape, build: build, pooled: ps.pooled}
		ps.pools[shape] = p
	}
	return p, nil
}

// closeAll drains every pool. Idempotent.
func (ps *poolSet) closeAll() {
	ps.mu.Lock()
	ps.closed = true
	pools := make([]*pool, 0, len(ps.pools))
	for _, p := range ps.pools {
		pools = append(pools, p)
	}
	ps.mu.Unlock()
	for _, p := range pools {
		p.close()
	}
}

// stats snapshots every pool, ordered by shape for stable output.
func (ps *poolSet) stats() []PoolStats {
	ps.mu.Lock()
	pools := make([]*pool, 0, len(ps.pools))
	for _, p := range ps.pools {
		pools = append(pools, p)
	}
	ps.mu.Unlock()
	out := make([]PoolStats, 0, len(pools))
	for _, p := range pools {
		out = append(out, p.stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shape < out[j].Shape })
	return out
}
