// Command ratd is the RAT prediction service: an HTTP/JSON daemon
// serving throughput-test predictions (single and multi-FPGA), batch
// predictions and bounded design-space explorations from the worksheet
// JSON format.
//
// Usage:
//
//	ratd [-addr :8080] [-access-log ratd.jsonl]
//	ratd -addr 127.0.0.1:0            # ephemeral port, printed on stdout
//	ratd -cache-size 4096
//	ratd -predict-limit 128 -explore-limit 4 -admission-wait 20ms
//	ratd -tenants tenants.json               # multi-tenant admission
//
// With -tenants, every API request must carry a configured key and is
// admitted against its tenant's token bucket and concurrency cap (see
// docs/TENANCY.md); SIGHUP reloads the file in place, preserving live
// bucket state.
//
// The daemon prints one line, "ratd: listening on <host:port>", once
// the listener is up, and drains gracefully on SIGINT/SIGTERM: the
// readiness probe flips to 503, in-flight requests finish (bounded by
// -drain-timeout), and the process exits 0. Exit codes follow the
// shared contract: 0 success, 1 runtime failure, 2 usage error. See
// docs/SERVER.md for the API and the operational runbook.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/chrec/rat/internal/cli"
	"github.com/chrec/rat/internal/server"
	"github.com/chrec/rat/internal/tenant"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// run is the testable entry point; tests inject the signal channel to
// drive a drain.
func run(args []string, out, errOut io.Writer, sig <-chan os.Signal) int {
	err := serve(args, out, sig)
	if err != nil {
		fmt.Fprintf(errOut, "ratd: %v\n", err)
		if errors.Is(err, cli.ErrUsage) {
			fmt.Fprintln(errOut, "usage: ratd [flags] (run ratd -help for the flag list)")
		}
	}
	return cli.Code(err)
}

func serve(args []string, out io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("ratd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks one)")
	cacheSize := fs.Int("cache-size", 0, "response cache entries (0 = default 1024, negative disables)")
	predictLimit := fs.Int("predict-limit", 0, "concurrent /v1/predict requests (0 = default 64)")
	batchLimit := fs.Int("batch-limit", 0, "concurrent /v1/predict/batch worksheet weight (0 = default 16)")
	exploreLimit := fs.Int("explore-limit", 0, "concurrent /v1/explore requests (0 = default 2)")
	admissionWait := fs.Duration("admission-wait", 0, "max queue wait before 429 (0 = default 10ms)")
	predictTimeout := fs.Duration("predict-timeout", 0, "per-request predict deadline (0 = default 10s)")
	exploreTimeout := fs.Duration("explore-timeout", 0, "per-request explore deadline (0 = default 2m)")
	maxCandidates := fs.Uint64("max-explore-candidates", 0, "largest grid a single explore may ask for (0 = default 4Mi)")
	maxDistributed := fs.Uint64("max-distributed-candidates", 0, "largest candidate span a distributed explore may coordinate (0 = default 1Gi)")
	accessLog := fs.String("access-log", "", "JSONL access log path (- for stdout, empty disables)")
	tenantsFile := fs.String("tenants", "", "tenant config JSON (enables multi-tenant admission; SIGHUP reloads)")
	exploreCost := fs.Float64("explore-cost", 0, "token-bucket cost of one explore request (0 = default 16)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests at shutdown")
	if err := fs.Parse(args); err != nil {
		return cli.WrapUsage(err)
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected argument %q", fs.Arg(0))
	}

	cfg := server.Config{
		CacheSize:                *cacheSize,
		PredictLimit:             *predictLimit,
		BatchLimit:               *batchLimit,
		ExploreLimit:             *exploreLimit,
		AdmissionWait:            *admissionWait,
		PredictTimeout:           *predictTimeout,
		ExploreTimeout:           *exploreTimeout,
		MaxExploreCandidates:     *maxCandidates,
		MaxDistributedCandidates: *maxDistributed,
		ExploreTokenCost:         *exploreCost,
	}

	// Multi-tenant admission: keys, quotas and concurrency caps come
	// from the -tenants JSON file. SIGHUP swaps in an edited file
	// atomically, preserving live bucket fills; a broken edit is
	// logged and the running tenant set stays untouched.
	var tenants *tenant.Registry
	if *tenantsFile != "" {
		reg, err := tenant.Load(*tenantsFile)
		if err != nil {
			return cli.WrapUsage(fmt.Errorf("tenants: %w", err))
		}
		tenants = reg
		cfg.Tenants = reg
	}

	// The access log is structured slog JSONL: one "request" record per
	// request with method, path, status, duration, trace/span IDs and
	// the per-stage nanosecond breakdown. File output is buffered;
	// logFlush is called after the drain completes (no writers left) so
	// the last in-flight request's line is on disk before exit 0.
	var logFlush func() error
	switch *accessLog {
	case "":
	case "-":
		cfg.AccessLogger = slog.New(slog.NewJSONHandler(out, nil))
	default:
		f, err := os.Create(*accessLog)
		if err != nil {
			return fmt.Errorf("access log: %w", err)
		}
		bw := bufio.NewWriter(f)
		cfg.AccessLogger = slog.New(slog.NewJSONHandler(bw, nil))
		logFlush = func() error {
			if err := bw.Flush(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	srv := server.New(cfg)
	fmt.Fprintf(out, "ratd: listening on %s\n", l.Addr())

	if tenants != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				if err := tenants.ReloadFile(*tenantsFile); err != nil {
					fmt.Fprintf(out, "ratd: tenants reload failed (keeping previous set): %v\n", err)
					continue
				}
				fmt.Fprintf(out, "ratd: tenants reloaded from %s (%d tenants)\n", *tenantsFile, tenants.Len())
			}
		}()
	}

	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	select {
	case err := <-served:
		// Serve failed before any signal — a runtime error (the listener
		// died out from under us).
		return fmt.Errorf("serve: %w", err)
	case s := <-sig:
		fmt.Fprintf(out, "ratd: %v: draining (up to %v)\n", s, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	if logFlush != nil {
		if err := logFlush(); err != nil {
			return fmt.Errorf("access log: %w", err)
		}
	}
	fmt.Fprintln(out, "ratd: drained, exiting")
	return nil
}
