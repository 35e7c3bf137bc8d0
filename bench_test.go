// Benchmarks regenerating every table and figure of the paper's
// evaluation (run the ratbench command for the rendered side-by-side
// output), plus micro-benchmarks of the library's hot paths.
package rat_test

import (
	"testing"

	rat "github.com/chrec/rat"
	"github.com/chrec/rat/internal/harness"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/worksheet"
)

// benchExperiment runs one harness experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("experiment produced no output")
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkFigure1Methodology(b *testing.B)     { benchExperiment(b, "fig1") }
func BenchmarkFigure2Overlap(b *testing.B)         { benchExperiment(b, "fig2") }
func BenchmarkFigure3Architecture(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkTable1Schema(b *testing.B)           { benchExperiment(b, "table1") }
func BenchmarkTable2PDF1DInputs(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkTable3PDF1DPerformance(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4PDF1DResources(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkTable5PDF2DInputs(b *testing.B)      { benchExperiment(b, "table5") }
func BenchmarkTable6PDF2DPerformance(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkTable7PDF2DResources(b *testing.B)   { benchExperiment(b, "table7") }
func BenchmarkTable8MDInputs(b *testing.B)         { benchExperiment(b, "table8") }
func BenchmarkTable9MDPerformance(b *testing.B)    { benchExperiment(b, "table9") }
func BenchmarkTable10MDResources(b *testing.B)     { benchExperiment(b, "table10") }
func BenchmarkPrecisionTradeStudy(b *testing.B)    { benchExperiment(b, "precision") }
func BenchmarkInverseSolver(b *testing.B)          { benchExperiment(b, "solver") }
func BenchmarkAlphaMicrobenchmark(b *testing.B)    { benchExperiment(b, "alphatable") }
func BenchmarkExtMultiFPGA(b *testing.B)           { benchExperiment(b, "ext-multifpga") }
func BenchmarkExtBounds(b *testing.B)              { benchExperiment(b, "ext-bounds") }
func BenchmarkExtAccuracy(b *testing.B)            { benchExperiment(b, "ext-accuracy") }
func BenchmarkExtPower(b *testing.B)               { benchExperiment(b, "ext-power") }

// Micro-benchmarks of the library's hot paths.

// BenchmarkPredict times one full throughput-test evaluation — the
// operation a design-space search calls millions of times.
func BenchmarkPredict(b *testing.B) {
	p := paper.PDF1DParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rat.Predict(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveThroughputProc times the inverse solver.
func BenchmarkSolveThroughputProc(b *testing.B) {
	p := paper.MDParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rat.SolveThroughputProc(p, 10, rat.SingleBuffered); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatePDF1D times a full 400-iteration simulated-platform
// run (single-buffered, ~2400 discrete events).
func BenchmarkSimulatePDF1D(b *testing.B) {
	sc, err := rat.CaseStudyScenario(rat.PDF1D, rat.MHz(150), rat.SingleBuffered)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rat.Simulate(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatePDF1DDouble times the double-buffered discipline,
// which exercises the buffer-dependency scheduling paths.
func BenchmarkSimulatePDF1DDouble(b *testing.B) {
	sc, err := rat.CaseStudyScenario(rat.PDF1D, rat.MHz(150), rat.DoubleBuffered)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rat.Simulate(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateStreaming times the streaming-discipline simulation
// of the 2-D PDF scenario.
func BenchmarkSimulateStreaming(b *testing.B) {
	sc, err := rat.CaseStudyScenario(rat.PDF2D, rat.MHz(150), rat.SingleBuffered)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rat.SimulateStreaming(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorksheetRoundTrip times encode+decode of a worksheet file.
func BenchmarkWorksheetRoundTrip(b *testing.B) {
	p := paper.PDF2DParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := worksheet.EncodeString(p)
		if _, err := worksheet.DecodeString(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepClock times a 100-point clock sweep.
func BenchmarkSweepClock(b *testing.B) {
	p := paper.PDF1DParams()
	clocks := make([]float64, 100)
	for i := range clocks {
		clocks[i] = rat.MHz(50 + float64(i)*2)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rat.SweepClock(p, clocks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBatch times the zero-allocation batch kernel over a
// 1024-worksheet slab; ns/op divided by 1024 is the per-candidate cost
// a grid exploration pays. Must report 0 allocs/op.
func BenchmarkPredictBatch(b *testing.B) {
	ps := make([]rat.Parameters, 1024)
	for i := range ps {
		ps[i] = paper.PDF1DParams().WithClock(rat.MHz(50 + float64(i%200)))
	}
	out := make([]rat.Prediction, len(ps))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rat.PredictBatch(ps, out); err != nil {
			b.Fatal(err)
		}
	}
}

// exploreBenchGrid returns a 522,240-candidate six-dimension grid
// (48 clocks x 34 tp x 8 alphas x 4 blocks x 5 devices x 2 bufferings).
func exploreBenchGrid() rat.Grid {
	clocks := make([]float64, 48)
	for i := range clocks {
		clocks[i] = rat.MHz(50 + float64(i)*5)
	}
	tps := make([]float64, 34)
	for i := range tps {
		tps[i] = 1 + float64(i)
	}
	alphas := make([]float64, 8)
	for i := range alphas {
		alphas[i] = 0.05 + 0.11*float64(i)
	}
	return rat.Grid{
		Base:            paper.PDF1DParams(),
		Clocks:          clocks,
		ThroughputProcs: tps,
		Alphas:          alphas,
		BlockSizes:      []int64{256, 512, 1024, 2048},
		Devices:         []int{1, 2, 4, 8, 16},
		Topology:        rat.SharedChannel,
	}
}

// benchExplore times a full exploration of the half-million-candidate
// grid at a fixed worker count; compare the -workers variants for the
// parallel scaling on the host machine. ns/candidate is wall time per
// evaluated candidate, the engine's per-design cost.
func benchExplore(b *testing.B, workers int) {
	g := exploreBenchGrid()
	size := g.Size() // outside the timed loop: Size compiles the grid
	opts := rat.ExploreOptions{Workers: workers, TopK: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rat.Explore(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Top) != 10 {
			b.Fatalf("kept %d candidates", len(res.Top))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(size)), "ns/candidate")
}

func BenchmarkExplore1Worker(b *testing.B) { benchExplore(b, 1) }
func BenchmarkExplore8Worker(b *testing.B) { benchExplore(b, 8) }

// BenchmarkExploreFrontier times a frontier request on one worker, per
// objective, over a grid of perfbench's explore-grid shape: 16 clocks
// x 16 throughput_procs x 4 alphas x 4 block sizes x 4 device counts x
// 2 bufferings = 32,768 candidates in rows of 256, top 10 above the
// base design's speedup.
func BenchmarkExploreFrontier(b *testing.B) {
	g := rat.Grid{
		Base:       paper.PDF1DParams(),
		Alphas:     []float64{0.15, 0.3, 0.55, 0.9},
		BlockSizes: []int64{128, 512, 1024, 4096},
		Devices:    []int{1, 2, 4, 8},
		Topology:   rat.SharedChannel,
	}
	for i := 0; i < 16; i++ {
		g.Clocks = append(g.Clocks, rat.MHz(float64(60+15*i)))
		g.ThroughputProcs = append(g.ThroughputProcs, 5+2.5*float64(i))
	}
	base, err := rat.Predict(g.Base)
	if err != nil {
		b.Fatal(err)
	}
	for _, obj := range []rat.ExploreObjective{rat.MaxSpeedup, rat.MinTRC, rat.MinCost} {
		b.Run(obj.String(), func(b *testing.B) {
			opts := rat.ExploreOptions{Workers: 1, TopK: 10, Objective: obj, Frontier: true,
				Constraints: rat.ExploreConstraints{MinSpeedup: base.SpeedupSingle}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := rat.Explore(g, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Frontier) == 0 {
					b.Fatal("empty frontier")
				}
			}
		})
	}
}

// BenchmarkExploreShortRows times a frontier request on one worker
// over a grid whose rows are too short for the row walk: 2 clocks x 2
// throughput_procs per row, x 16 alphas x 16 block sizes x 16 device
// counts x 2 bufferings = 65,536 candidates. Every candidate takes the
// exhaustive loop and is folded into the frontier, the case where
// pruning cannot pay.
func BenchmarkExploreShortRows(b *testing.B) {
	g := rat.Grid{
		Base:            paper.PDF1DParams(),
		Clocks:          []float64{rat.MHz(100), rat.MHz(150)},
		ThroughputProcs: []float64{10, 20},
		Topology:        rat.IndependentChannels,
	}
	for i := 1; i <= 16; i++ {
		g.Alphas = append(g.Alphas, float64(i)/17)
		g.BlockSizes = append(g.BlockSizes, 64*int64(i))
		g.Devices = append(g.Devices, i)
	}
	size := g.Size()
	opts := rat.ExploreOptions{Workers: 1, TopK: 10, Frontier: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rat.Explore(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Frontier) == 0 {
			b.Fatal("empty frontier")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(size)), "ns/candidate")
}
