// Collector is the engine's outbound metrics hook. simd stays
// import-clean — it knows nothing about the metrics registry — while
// the service layer adapts its registry to this interface and passes
// it in via WithCollector.

package simd

import "time"

// Collector receives engine events. Implementations must be safe for
// concurrent use: pooled machines on different jobs share one
// collector. A nil collector (the default) costs the hot path one
// predictable branch.
type Collector interface {
	// RecordRoutes reports executed unit routes and the receive
	// conflicts they observed. Closure-path routes report per route;
	// plan replays report once per Replay with the batched totals, so
	// the replay inner loop stays free of per-step calls.
	RecordRoutes(routes, conflicts int)
	// RecordReplay reports one completed plan replay's wall time (its
	// routes arrive through RecordRoutes).
	RecordReplay(d time.Duration)
}

// WithCollector selects the machine's metrics collector (nil
// disables collection).
func WithCollector(c Collector) Option {
	return func(m *Machine) { m.collector = c }
}
