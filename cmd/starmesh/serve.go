// The serve subcommand: the long-running simulation job service
// over HTTP. SIGINT/SIGTERM triggers a graceful drain — admission
// stops, every admitted job completes, machine pools release.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"starmesh/internal/cluster"
	"starmesh/internal/serve"
)

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	workers := fs.Int("workers", 0, "concurrent job executors (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "admission queue depth (full queue returns 429)")
	drainGrace := fs.Duration("drain-grace", 5*time.Second,
		"graceful-drain deadline: admitted jobs get this long after SIGINT/SIGTERM before running ones are canceled at their next checkpoint")
	storeDir := fs.String("store-dir", "",
		"durable WAL-backed job store directory (empty = in-memory; on restart, queued jobs are re-admitted in order and interrupted running jobs re-execute deterministically)")
	tenantsPath := fs.String("tenants", "",
		"tenant registry JSON file (API keys, fair-queueing weights, rate limits, queue quotas; see docs/tenancy.md). Empty = single anonymous tenant")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "log encoding: text or json")
	pprofAddr := fs.String("pprof-addr", "",
		"optional ops listener mounting net/http/pprof under /debug/pprof (empty = off; bind loopback — the profiles expose internals)")
	clusterName := fs.String("cluster", "",
		"this node's name in a sharded cluster (requires -peers; see docs/cluster.md)")
	peers := fs.String("peers", "",
		"cluster membership as name=url[*weight],... — every node of the cluster, this one included")
	fs.Parse(args)
	if fs.NArg() != 0 {
		fatalf("serve takes no positional arguments")
	}

	log, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fatalf("%v", err)
	}

	var tenantsFile serve.TenantsFile
	if *tenantsPath != "" {
		tenantsFile, err = serve.LoadTenantsFile(*tenantsPath)
		if err != nil {
			fatalf("%v", err)
		}
	}

	svc, err := serve.NewService(serve.Config{
		Workers:    *workers,
		Queue:      *queue,
		DrainGrace: *drainGrace,
		StoreDir:   *storeDir,
		Tenants:    tenantsFile.Tenants,
		RequireKey: tenantsFile.RequireKey,
		Logger:     log,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if *clusterName != "" || *peers != "" {
		if *clusterName == "" || *peers == "" {
			fatalf("-cluster and -peers must be set together")
		}
		nodes, err := cluster.ParsePeers(*peers)
		if err != nil {
			fatalf("%v", err)
		}
		if err := svc.SetCluster(*clusterName, cluster.Map{Nodes: nodes}); err != nil {
			fatalf("%v", err)
		}
		log.Info("cluster member", "self", *clusterName, "nodes", len(nodes))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Info("job service starting",
		"addr", *addr, "workers", *workers, "queue", *queue, "store", storeKind(*storeDir),
		"tenants", len(tenantsFile.Tenants), "require_key", tenantsFile.RequireKey)
	if dur := svc.Durability(); dur.Store == "wal" &&
		(dur.RecoveredQueued > 0 || dur.ReexecutedRunning > 0 || dur.CanceledAtRecovery > 0) {
		log.Info("crash recovery complete",
			"requeued", dur.RecoveredQueued,
			"reexecuting", dur.ReexecutedRunning,
			"canceled", dur.CanceledAtRecovery,
			"wal_records", dur.WALRecords)
	}
	if *pprofAddr != "" {
		go servePprof(log, *pprofAddr)
	}
	err = svc.ListenAndServe(ctx, *addr)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		// The -drain-grace deadline fired: stragglers were canceled at
		// their checkpoints — the configured graceful outcome, not a
		// failure.
		log.Info("drained", "outcome", "grace deadline reached, running jobs canceled")
		return
	case err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, http.ErrServerClosed):
		fatalf("%v", err)
	}
	log.Info("drained", "outcome", "clean")
}

// buildLogger assembles the service logger from the -log-level /
// -log-format flags. Logs go to stderr — stdout stays free for
// subcommands that print results.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("starmesh: -log-level %q: want debug, info, warn or error", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("starmesh: -log-format %q: want text or json", format)
	}
}

// servePprof runs the ops listener: net/http/pprof only, on its own
// mux and address, so the profiling surface never shares a port with
// the public API.
func servePprof(log *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Info("pprof ops listener on", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Error("pprof listener failed", "error", err)
	}
}

func storeKind(dir string) string {
	if dir == "" {
		return "memory"
	}
	return "wal:" + dir
}
