// Structured logging: the service logs through log/slog, and every
// line of a request's or a job's life carries the same correlating
// attribute, request_id on the request line and job_id on the job
// lines. The Service never writes to a default logger on its own —
// Config.Logger selects the destination, and a nil logger discards,
// which keeps library consumers (tests, benches) quiet by default;
// cmd wires a real handler from -log-level / -log-format. A line's
// attributes are built only when the logger keeps its level, so the
// discard default costs a level check per line.
package serve

import (
	"context"
	"log/slog"
)

// logs reports whether the service logger keeps lines at level.
func (s *Service) logs(level slog.Level) bool {
	return s.log.Enabled(context.Background(), level)
}

// jobLog returns the service logger with a job's correlating id.
func (s *Service) jobLog(id string) *slog.Logger {
	return s.log.With("job_id", id)
}
