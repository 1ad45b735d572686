package serve

import (
	"bytes"
	"testing"
	"time"
)

// raceEnabled is set under the race detector, where sync.Pool drops
// items at random and allocation counts mean nothing.
var raceEnabled bool

// TestHotPathAllocs pins the allocation ceilings of the codec's hot
// paths: every job body, watch line and WAL record goes through
// appendJob, every job the typed client reads through DecodeJob, and
// every spec it submits through decodeRequest's codec path.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	job := sampleJobs(t, time.UTC)[2] // done, with a result and a trace
	buf := appendJob(nil, &job)
	if n := testing.AllocsPerRun(100, func() { buf = appendJob(buf[:0], &job) }); n != 0 {
		t.Errorf("appendJob: %v allocs, want 0", n)
	}

	// DecodeJob allocates only what the job owns: its strings outside
	// the closed sets, its result and its trace.
	data := append(appendJob(nil, &job), '\n')
	owned := 0
	for _, s := range []string{job.ID, job.Spec.Kind, job.Spec.Dist, job.Spec.Pattern,
		job.Tenant, job.Shape, string(job.Status), job.Error, job.Result.Name} {
		if _, shared := symbols[s]; s != "" && !shared {
			owned++
		}
	}
	for _, ev := range job.Trace {
		for _, s := range []string{ev.Event, ev.Detail} {
			if _, shared := symbols[s]; s != "" && !shared {
				owned++
			}
		}
	}
	owned += 2 // the result and the trace
	var got Job
	if n := testing.AllocsPerRun(100, func() {
		got = Job{}
		if err := DecodeJob(data, &got); err != nil {
			t.Fatal(err)
		}
	}); n > float64(owned) {
		t.Errorf("DecodeJob of a done job: %v allocs, want at most %d", n, owned)
	}

	// A canonical spec body of closed-set strings decodes with none.
	body := AppendSpec(nil, &JobSpec{Kind: KindSort, N: 5, Dist: "reversed", Seed: 42})
	var spec JobSpec
	rd := bytes.NewReader(body)
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		spec = JobSpec{}
		if err := decodeRequest(rd, int64(len(body)), &spec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decodeRequest of a canonical spec: %v allocs, want 0", n)
	}
}
