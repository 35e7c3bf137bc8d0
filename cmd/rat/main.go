// Command rat analyzes an application design worksheet with the RC
// Amenability Test: forward performance prediction (the throughput
// test), inverse solving for the parallelism or clock a speedup goal
// requires, clock sweeps, uncertainty intervals, multi-FPGA scaling,
// and the full three-test methodology run.
//
// Usage:
//
//	rat predict -f design.rat [-double] [-clocks 75,100,150]
//	rat solve   -f design.rat -target 10 [-for throughput|clock|alpha] [-double]
//	rat sweep   -f design.rat [-min 50] [-max 200] [-steps 7] [-double]
//	rat bounds  -f design.rat [-alpha 0.2] [-ops 0.1] [-proc 0.25] [-clock 0.33] [-tsoft 0.05] [-target 10]
//	rat multi   -f design.rat [-devices 8] [-shared|-independent]
//	rat check   -f design.rat -target 10 -device "Virtex-4 LX100" -dsp 8 -bram 36 -logic 6800 [-tol 0.03]
//	rat example            # print a template worksheet (the paper's Table 2)
//	rat devices            # list the FPGA device database
//
// Worksheet files use the text format documented in the library
// (see 'rat example'); files ending in .json use the JSON form.
package main

import (
	"fmt"
	"io"
	"os"

	"github.com/chrec/rat/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches the subcommand; it is the testable entry point.
func run(args []string, out, errOut io.Writer) int {
	if len(args) < 1 {
		usage(errOut)
		return 2
	}
	var err error
	switch args[0] {
	case "predict":
		err = cmdPredict(args[1:], out)
	case "solve":
		err = cmdSolve(args[1:], out)
	case "sweep":
		err = cmdSweep(args[1:], out)
	case "bounds":
		err = cmdBounds(args[1:], out)
	case "multi":
		err = cmdMulti(args[1:], out)
	case "project":
		err = cmdProject(args[1:], out)
	case "validate":
		err = cmdValidate(args[1:], out)
	case "check":
		var verdictFail bool
		verdictFail, err = cmdCheck(args[1:], out)
		if err == nil && verdictFail {
			return 1
		}
	case "example":
		err = cmdExample(out)
	case "devices":
		err = cmdDevices(out)
	case "-h", "-help", "--help", "help":
		usage(out)
	default:
		fmt.Fprintf(errOut, "rat: unknown command %q\n", args[0])
		usage(errOut)
		return 2
	}
	if err != nil {
		fmt.Fprintf(errOut, "rat: %v\n", err)
	}
	return cli.Code(err)
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  rat predict -f design.rat [-double] [-clocks 75,100,150]
  rat solve   -f design.rat -target N [-for throughput|clock|alpha] [-double]
  rat sweep   -f design.rat [-min MHz] [-max MHz] [-steps N] [-double]
  rat bounds  -f design.rat [-alpha F] [-ops F] [-proc F] [-clock F] [-tsoft F] [-target N] [-double]
  rat multi   -f design.rat [-devices N] [-independent] [-double]
  rat check   -f design.rat -target N -device NAME -dsp N -bram N -logic N [-tol F]
  rat validate -f design.rat -comm SEC -comp SEC [-trc SEC] [-double]
  rat project -f project.json
  rat example
  rat devices
`)
}
