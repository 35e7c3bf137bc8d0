// Command ratctl operates a ratd fleet from the command line. Its
// centerpiece is distributed design-space exploration: it shards an
// explore grid's candidate-index range across N ratd workers via
// internal/cluster and prints the merged result — bit-for-bit what a
// single node (or `ratsim explore`) would produce for the same grid,
// whatever the worker count, shard size or mid-run failures.
//
// Usage:
//
//	ratctl explore -workers http://h1:8080,http://h2:8080 -worksheet w.json \
//	    [-clocks 75,100,150] [-tp 10,20,40] [-top 10] [-frontier] [-jsonl]
//	ratctl explore -workers ... -via http://coordinator:8080   (delegate to /v1/explore/distributed)
//	ratctl status -workers http://h1:8080,http://h2:8080
//
// Exit codes follow the shared contract: 0 success, 1 runtime
// failure, 2 usage error. See docs/DISTRIBUTED.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/chrec/rat/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point.
func run(args []string, out, errOut io.Writer) int {
	if len(args) < 1 {
		usage(errOut)
		return 2
	}
	var err error
	switch args[0] {
	case "explore":
		err = cmdExplore(args[1:], out, errOut)
	case "status":
		err = cmdStatus(args[1:], out)
	case "-h", "-help", "--help", "help":
		usage(out)
	default:
		fmt.Fprintf(errOut, "ratctl: unknown command %q\n", args[0])
		usage(errOut)
		return 2
	}
	if err != nil {
		fmt.Fprintf(errOut, "ratctl: %v\n", err)
		if errors.Is(err, cli.ErrUsage) {
			usage(errOut)
		}
	}
	return cli.Code(err)
}

func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  ratctl explore -workers URL[,URL...] [-via URL] [-case pdf1d | -worksheet f.json]
                 [-clocks 75,100,150] [-tp 10,20,40] [-alphas 0.16,0.37] [-blocks 512,2048]
                 [-devices 1,2,4] [-topology shared|independent] [-buffering single|double|both]
                 [-objective max-speedup|min-trc|min-cost] [-min-speedup X] [-max-trc S]
                 [-max-util-comm F] [-max-devices N] [-top 10] [-frontier] [-jsonl]
                 [-shard-size N] [-max-inflight 2] [-shard-timeout 30s] [-timeout 10m]
                 [-key APIKEY] [-metrics]
  ratctl status  -workers URL[,URL...] [-key APIKEY] [-timeout 10s]

explore shards the grid across the worker fleet and merges the results
byte-identically with a single-node run: -jsonl prints ratd's
?stream=jsonl candidate lines without the summary line (diff them
against 'ratsim explore -jsonl' on the same grid). With -via, the named
ratd coordinates instead via POST /v1/explore/distributed, and its
/metrics holds the coordinator's telemetry (-metrics is refused).
`)
}
