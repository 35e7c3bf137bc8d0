package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/chrec/rat/internal/cli"
)

// cmdStatus probes every fleet member's /v1/status and prints one
// line per worker. It exits non-zero if any worker is unreachable, so
// scripts can gate a distributed run on fleet health.
func cmdStatus(args []string, out io.Writer) error {
	fs := newFlagSet("status")
	workersFlag := fs.String("workers", "", "comma-separated ratd base URLs (required)")
	key := fs.String("key", "", "API key sent to every worker (Authorization: Bearer)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-worker probe deadline")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}
	fleet, err := workerFleet(*workersFlag, *key, *timeout)
	if err != nil {
		return err
	}

	down := 0
	for _, w := range fleet {
		//rat:allow-wallclock CLI probe deadline
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		st, err := w.W.Status(ctx)
		cancel()
		if err != nil {
			down++
			fmt.Fprintf(out, "%s: DOWN (%v)\n", w.Name, err)
			continue
		}
		fmt.Fprintf(out, "%s: up %s, %d requests, draining %v\n",
			w.Name, (time.Duration(st.UptimeSeconds * float64(time.Second))).Round(time.Second),
			st.Requests, st.Draining)
	}
	if down > 0 {
		return fmt.Errorf("%d of %d workers down", down, len(fleet))
	}
	return nil
}
