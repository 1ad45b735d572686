package simd

import (
	"sync"
	"testing"
	"time"
)

// countingCollector tallies events; safe for concurrent use like real
// collectors must be.
type countingCollector struct {
	mu        sync.Mutex
	routes    int
	conflicts int
	replays   int
}

func (c *countingCollector) RecordRoutes(routes, conflicts int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.routes += routes
	c.conflicts += conflicts
}

func (c *countingCollector) RecordReplay(time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replays++
}

func TestCollectorClosurePath(t *testing.T) {
	col := &countingCollector{}
	m := New(ring{8}, WithCollector(col), WithPlans(false))
	m.AddReg("A")
	m.AddReg("B")
	m.Set("A", func(pe int) int64 { return int64(pe) })
	m.RouteB("A", "B", func(pe int) int { return 0 })
	m.RouteB("A", "B", func(pe int) int { return 1 })
	if col.routes != 2 {
		t.Fatalf("collector routes = %d, want 2", col.routes)
	}
	if col.conflicts != m.Stats().ReceiveConflicts {
		t.Fatalf("collector conflicts = %d, want %d", col.conflicts, m.Stats().ReceiveConflicts)
	}
	if col.replays != 0 {
		t.Fatalf("closure path reported %d replays, want 0", col.replays)
	}
}

func TestCollectorRecordAndReplay(t *testing.T) {
	col := &countingCollector{}
	m := New(ring{8}, WithCollector(col))
	m.AddReg("A")
	m.AddReg("B")
	p := m.Record(func() {
		m.RouteB("A", "B", func(pe int) int { return 0 })
		m.RouteB("A", "B", func(pe int) int { return 1 })
	})
	if col.routes != 2 {
		t.Fatalf("recording routes = %d, want 2", col.routes)
	}
	routes, conflicts := m.Replay(p)
	if routes != 2 {
		t.Fatalf("replay routes = %d, want 2", routes)
	}
	if col.routes != 4 || col.conflicts != 2*conflicts {
		t.Fatalf("after replay: routes = %d conflicts = %d, want 4, %d", col.routes, col.conflicts, 2*conflicts)
	}
	if col.replays != 1 {
		t.Fatalf("replays = %d, want 1", col.replays)
	}
	// Replays inside an active recording batch routes but are not
	// timed replays.
	m2 := New(ring{8}, WithCollector(col))
	m2.AddReg("A")
	m2.AddReg("B")
	m2.Record(func() { m2.Replay(p) })
	if col.replays != 1 {
		t.Fatalf("splice path reported a timed replay: %d", col.replays)
	}
	if col.routes != 6 {
		t.Fatalf("after splice: routes = %d, want 6", col.routes)
	}
}

// TestResetKeepsCollector: the collector belongs to the machine's
// owner, so Reset leaves it installed.
func TestResetKeepsCollector(t *testing.T) {
	col := &countingCollector{}
	m := New(ring{4}, WithCollector(col), WithPlans(false))
	m.AddReg("A")
	m.AddReg("B")
	m.RouteB("A", "B", func(pe int) int { return 0 })
	m.Reset()
	m.RouteB("A", "B", func(pe int) int { return 0 })
	if col.routes != 2 {
		t.Fatalf("collector routes after Reset = %d, want 2", col.routes)
	}
}
