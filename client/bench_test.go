package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"starmesh/internal/serve"
)

// BenchmarkJobRoundTrip times one Submit → Await → Get cycle through
// the typed client against an in-process service over loopback, the
// loop a closed-loop caller runs. B/op and allocs/op count both sides,
// client and service, since they share the process. A warm-up pass
// fills the machine pool, the connection and every recycled buffer
// before timing starts.
func BenchmarkJobRoundTrip(b *testing.B) {
	svc, err := serve.NewService(serve.Config{Workers: 1, Queue: 8})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer svc.Drain()
	defer ts.Close()
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	c := New(ts.URL, WithHTTPClient(&http.Client{Transport: tr}))
	ctx := context.Background()
	cycle := func(seed int64) {
		job, err := c.Submit(ctx, quickSpec(seed))
		if err != nil {
			b.Fatal(err)
		}
		final, err := c.Await(ctx, job.ID)
		if err != nil || final.Status != StatusDone {
			b.Fatalf("await %s: %v, status %s", job.ID, err, final.Status)
		}
		if _, err := c.Get(ctx, job.ID); err != nil {
			b.Fatal(err)
		}
	}
	for i := range 20 {
		cycle(int64(i))
	}
	b.ReportAllocs()
	seed := int64(0)
	for b.Loop() {
		seed++
		cycle(seed)
	}
}
