// Exact design-space exploration with RAT: a six-dimension grid of
// candidate designs — clock x parallelism x interconnect efficiency x
// block size x device count x buffering — searched in parallel for the
// best and the cheapest configurations. The worksheet that the paper
// fills in by hand becomes a space you can search before writing any
// hardware code: the answer is the one evaluating every candidate
// would give, and the engine evaluates only the candidates that can
// change it.
//
// Run with: go run ./examples/explore
package main

import (
	"fmt"
	"log"

	rat "github.com/chrec/rat"
)

func main() {
	// The base worksheet: a image-correlation kernel sketch, in the
	// spirit of the paper's Table 1 inputs.
	base := rat.Parameters{
		Name: "correlation kernel",
		Dataset: rat.DatasetParams{
			ElementsIn: 16384, ElementsOut: 16384, BytesPerElement: 4,
		},
		Comm: rat.CommParams{IdealThroughput: rat.GBps(1), AlphaWrite: 0.37, AlphaRead: 0.37},
		Comp: rat.CompParams{OpsPerElement: 96, ThroughputProc: 8, ClockHz: rat.MHz(100)},
		Soft: rat.SoftwareParams{TSoft: 4.2, Iterations: 256},
	}

	// Six axes. Every combination is one candidate worksheet; the
	// block-size axis conserves total work (iterations re-derived so
	// each candidate processes the same dataset).
	grid := rat.Grid{
		Base:            base,
		Clocks:          []float64{rat.MHz(75), rat.MHz(100), rat.MHz(150), rat.MHz(200)},
		ThroughputProcs: []float64{4, 8, 16, 32},
		Alphas:          []float64{0.16, 0.37, 0.62},
		BlockSizes:      []int64{4096, 16384, 65536},
		Devices:         []int{1, 2, 4},
		Topology:        rat.IndependentChannels,
		// Bufferings empty: explore single- AND double-buffered.
	}
	if err := grid.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid: %d candidate designs across 6 axes\n\n", grid.Size())

	// Search 1: the fastest designs, unconstrained, with the Pareto
	// frontier printed below.
	res, err := rat.Explore(grid, rat.ExploreOptions{TopK: 5, Frontier: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top 5 by speedup (%d candidates in %v, %.1f M/s, %d workers):\n",
		res.Evaluated, res.Elapsed.Round(1000), res.CandidatesPerSec/1e6, res.Workers)
	for _, c := range res.Top {
		fmt.Printf("  %4.0f MHz  tp %2.0f  alpha %.2f  block %5d  x%d dev  %-15s  speedup %6.1f  t_RC %.3e s\n",
			c.ClockHz/1e6, c.ThroughputProc, c.AlphaWrite, c.ElementsIn,
			c.Devices, c.Buffering, c.Speedup, c.TRC)
	}

	// Search 2: the CHEAPEST design meeting a 20x speedup target —
	// fewest devices, least parallelism, lowest clock. This is the
	// question a procurement decision actually asks.
	cheap, err := rat.Explore(grid, rat.ExploreOptions{
		TopK:        1,
		Objective:   rat.MinCost,
		Constraints: rat.ExploreConstraints{MinSpeedup: 20},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncheapest design with speedup >= 20 (%d of %d feasible):\n",
		cheap.Feasible, cheap.Evaluated)
	for _, c := range cheap.Top {
		fmt.Printf("  %4.0f MHz  tp %2.0f  alpha %.2f  block %5d  x%d dev  %-15s  speedup %6.1f\n",
			c.ClockHz/1e6, c.ThroughputProc, c.AlphaWrite, c.ElementsIn,
			c.Devices, c.Buffering, c.Speedup)
	}

	// The Pareto frontier: designs where no other candidate is at
	// least as good on speedup AND computation utilization with no
	// more devices. Everything off the frontier is strictly wasteful.
	fmt.Printf("\nPareto frontier (speedup vs. utilization vs. devices): %d designs\n",
		len(res.Frontier))
	for i, c := range res.Frontier {
		if i == 8 {
			fmt.Printf("  ... and %d more\n", len(res.Frontier)-8)
			break
		}
		fmt.Printf("  %4.0f MHz  tp %2.0f  x%d dev  speedup %6.1f  util_comp %3.0f%%\n",
			c.ClockHz/1e6, c.ThroughputProc, c.Devices, c.Speedup, c.UtilComp*100)
	}
}
