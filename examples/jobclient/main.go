// Command jobclient is the v1 API quickstart: it starts an
// in-process job service, then drives it exactly the way a remote
// caller would — through the typed client package — submitting a
// batch, watching a job's transitions, canceling a long sweep
// mid-run, and reading the aggregated stats.
//
// Against a real deployment, replace the httptest server with the
// service's URL:
//
//	c := client.New("http://localhost:8080")
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"

	"starmesh/client"
	"starmesh/internal/serve"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the tour to w.
func run(w io.Writer) error {
	// A self-contained service; `starmesh serve` runs the same thing
	// behind a real listener.
	svc, err := serve.NewService(serve.Config{Workers: 2, Queue: 32})
	if err != nil {
		return err
	}
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ctx := context.Background()
	c := client.New(ts.URL)

	// Atomic batch admission: every spec becomes a job or none does.
	jobs, err := c.SubmitBatch(ctx, []client.JobSpec{
		{Kind: "sort", N: 5, Dist: "reversed", Seed: 42},
		{Kind: "broadcast", N: 5},
		{Kind: "pipeline", N: 4, Seed: 7},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "batch admitted %d jobs\n", len(jobs))

	// Watch the first job's status transitions to the terminal one.
	watch, err := c.Watch(ctx, jobs[0].ID)
	if err != nil {
		return err
	}
	for {
		j, err := watch.Next()
		if err != nil {
			break
		}
		fmt.Fprintf(w, "watch %s: %s\n", j.ID, j.Status)
		if j.Status.Terminal() {
			break
		}
	}
	watch.Close()

	// Await the rest.
	for _, j := range jobs[1:] {
		final, err := c.Await(ctx, j.ID)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s (%s): %s, %d unit routes\n",
			final.ID, final.Spec.Kind, final.Status, final.Result.UnitRoutes)
	}

	// Cancel a long sweep mid-run: the cooperative checkpoints abort
	// it within one unit route, preserving partial stats.
	long, err := c.Submit(ctx, client.JobSpec{Kind: "sweep", N: 5, Trials: 1_000_000})
	if err != nil {
		return err
	}
	for { // wait until it is actually running
		j, err := c.Get(ctx, long.ID)
		if err != nil {
			return err
		}
		if j.Status == client.StatusRunning {
			break
		}
	}
	if _, err := c.Cancel(ctx, long.ID); err != nil {
		return err
	}
	canceled, err := c.Await(ctx, long.ID)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "canceled mid-run: %s after %d partial unit routes\n",
		canceled.Status, canceled.Result.UnitRoutes)

	// Canceling a terminal job is a typed conflict, not a no-op.
	if _, err := c.Cancel(ctx, canceled.ID); client.IsTerminal(err) {
		fmt.Fprintln(w, "second cancel: typed terminal conflict (409)")
	}

	// The listing paginates; stats aggregate per kind.
	page, err := c.List(ctx, client.ListOptions{Status: client.StatusDone, Limit: 2})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "done page: %d jobs (cursor %q)\n", len(page.Jobs), page.NextCursor)
	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stats: %d done, %d canceled across %d kinds\n", st.Done, st.Canceled, len(st.Kinds))
	return nil
}
