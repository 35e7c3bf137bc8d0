package main

import (
	"context"
	"fmt"
	"io"

	"github.com/chrec/rat/internal/cli"
	"github.com/chrec/rat/internal/cli/explorecli"
	"github.com/chrec/rat/internal/telemetry"
)

// cmdExplore runs the design-space exploration engine over a grid
// described on the command line, around either a paper case study or a
// JSON worksheet.
func cmdExplore(args []string, out io.Writer) error {
	fs := newFlagSet("explore")
	grid := explorecli.Register(fs)
	workers := fs.Int("workers", 0, "worker count (0 = GOMAXPROCS; any value gives identical results)")
	metrics := fs.Bool("metrics", false, "print the engine's telemetry after the run")
	if err := fs.Parse(args); err != nil {
		return cli.WrapUsage(err)
	}
	_, job, err := grid.Request(*workers)
	if err != nil {
		return err
	}
	var reg *telemetry.Registry
	if *metrics {
		reg = telemetry.NewRegistry()
		job.Options.Metrics = reg
	}
	res, err := job.Grid.Run(context.Background(), job.Options)
	if err != nil {
		return err
	}
	if err := grid.Print(out, res, "with"); err != nil {
		return err
	}
	if reg != nil {
		fmt.Fprintln(out, "\nmetrics:")
		return telemetry.WriteText(out, reg.Snapshot())
	}
	return nil
}
