// Command fspd serves the fspnet analyses over HTTP: it accepts fsplang
// networks, canonicalizes them, and answers the success predicates from a
// content-addressed verdict cache, running misses on a governed worker
// pool. See docs/SERVICE.md for the API.
//
// Usage:
//
//	fspd [-addr :8373] [-workers 2] [-queue 64] [-cache 1024]
//	     [-cache-dir DIR] [-cache-disk-cap 4096]
//	     [-max-timeout 60s] [-max-budget N] [-grace 10s]
//
// With -cache-dir the verdict cache is backed by a crash-safe append-only
// store: verdicts survive restarts (warm-loaded at boot), a torn tail
// from a crash is truncated on reopen, and a failing disk degrades the
// daemon to memory-only caching (visible as store state "degraded" in
// /statusz) rather than failing requests. -cache-disk-cap bounds the
// on-disk record count.
//
// On SIGTERM or SIGINT the daemon drains: /healthz flips to 503 at once
// so load balancers steer away, it stops accepting connections, gives
// in-flight analyses the -grace period to finish, then cancels their
// governors so they answer with partial verdicts, and exits 0.
//
//	curl -s --data-binary @testdata/philosophers10.fsp \
//	    'localhost:8373/v1/analyze?process=0&predicates=reach'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fspnet/internal/serve"
	"fspnet/internal/store"
	"fspnet/internal/store/storefault"
)

// storeKillHook parses the FSPD_STORE_KILL environment variable
// ("op:seq", e.g. "write:3") into a fault hook that SIGKILLs the daemon
// at that store operation — the crash-recovery matrix's kill switch. An
// empty value means no hook; a malformed one is an error, not a silent
// no-op, so a typo cannot quietly disable a crash test.
func storeKillHook(val string) (store.FaultFunc, error) {
	if val == "" {
		return nil, nil
	}
	op, seqStr, ok := strings.Cut(val, ":")
	if !ok {
		return nil, fmt.Errorf("FSPD_STORE_KILL %q: want op:seq", val)
	}
	seq, err := strconv.Atoi(seqStr)
	if err != nil || seq < 0 {
		return nil, fmt.Errorf("FSPD_STORE_KILL %q: bad seq", val)
	}
	for _, known := range store.Ops {
		if store.Op(op) == known {
			return storefault.KillAt(known, seq), nil
		}
	}
	return nil, fmt.Errorf("FSPD_STORE_KILL %q: unknown op %q", val, op)
}

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	if err := run(os.Args[1:], os.Stdout, sig, nil); err != nil {
		fmt.Fprintln(os.Stderr, "fspd:", err)
		os.Exit(1)
	}
}

// run parses flags, serves until an error or a signal, and on a signal
// drains gracefully and returns nil (exit 0). ready, when non-nil,
// receives the bound address once the listener is up — the test (and
// smoke-script) rendezvous.
func run(args []string, stdout io.Writer, sig <-chan os.Signal, ready chan<- string) error {
	fs := flag.NewFlagSet("fspd", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr       = fs.String("addr", ":8373", "listen address")
		workers    = fs.Int("workers", 0, "concurrent analyses (0 = default of 2; each analysis is internally parallel)")
		queue      = fs.Int("queue", serve.DefaultQueueDepth, "admission queue depth beyond the worker pool; a full queue answers 429")
		cacheSize  = fs.Int("cache", serve.DefaultCacheEntries, "verdict cache entries (LRU); also bounds the lint cache and the canonicalization memo")
		cacheDir   = fs.String("cache-dir", "", "directory for the persistent verdict store (empty = memory-only)")
		diskCap    = fs.Int("cache-disk-cap", store.DefaultMaxRecords, "persistent store record bound; compaction drops the oldest beyond it")
		maxTimeout = fs.Duration("max-timeout", 60*time.Second, "cap and default for per-request deadlines (0 = none)")
		maxBudget  = fs.Int("max-budget", 0, "cap and default for per-request joint state budgets (0 = none)")
		maxBody    = fs.Int64("max-body", serve.DefaultMaxBodyBytes, "request body byte cap (and per-item cap inside a batch); oversized bodies answer 413")
		grace      = fs.Duration("grace", 10*time.Second, "drain grace period before in-flight analyses are cancelled")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h is a successful outcome, not a failure
		}
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	killHook, err := storeKillHook(os.Getenv("FSPD_STORE_KILL"))
	if err != nil {
		return err
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(stdout, "fspd: "+format+"\n", args...)
	}
	s := serve.New(serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cacheSize,
		MaxTimeout:   *maxTimeout,
		MaxBudget:    *maxBudget,
		MaxBodyBytes: *maxBody,
		Store: serve.StoreConfig{
			Dir:     *cacheDir,
			Options: store.Options{MaxRecords: *diskCap, Fault: killHook},
		},
		Logf: logf,
	})
	defer s.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fspd: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	hs := &http.Server{Handler: s.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-sig:
		// Health first: load balancers see 503 while queued analyses still
		// run out the grace period.
		s.StartDrain()
		fmt.Fprintf(stdout, "fspd: draining (grace %s)\n", *grace)
		// After the grace period every in-flight governor is cancelled, so
		// the runs answer with partial verdicts and Shutdown can complete.
		timer := time.AfterFunc(*grace, s.CancelInflight)
		defer timer.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), *grace+5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			_ = hs.Close()
			return fmt.Errorf("drain: %w", err)
		}
		fmt.Fprintln(stdout, "fspd: drained")
		return nil
	}
}
