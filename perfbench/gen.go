package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"github.com/chrec/rat"
	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/worksheet"
)

// Seeded input generation and the answer oracle. Every request body and
// every expected answer is built here, before anything is timed, from
// the seed alone: the rat library computes the answer and
// encoding/json renders it, which internal/wire is pinned to bit for
// bit, so a correct ratd response is byte-identical to the rendering.

// Workload names, as BENCHMARK.json lists them.
const (
	wPredictHot  = "predict-hot"
	wPredictCold = "predict-cold"
	wBatchBulk   = "batch-bulk"
	wExploreGrid = "explore-grid"
)

// Workload shapes. See README.md for why each number is what it is.
const (
	hotWorksheets   = 256   // replayed byte for byte after warm-up
	coldPool        = 32768 // 32x the default 1024-entry cache: a worksheet's next use is always evicted first
	coldWarm        = 1280  // fills the cache and starts steady evictions
	coldMultiEvery  = 8     // one cold request in 8 asks for ?devices=2..8
	batchSize       = 256   // worksheets per /v1/predict/batch body
	batchBodies     = 64    // distinct batch bodies, cycled
	exploreRequests = 192   // distinct grids, so every seed averages over a similar mix
	exploreTopK     = 10
)

var caseStudies = [...]paper.Case{paper.PDF1D, paper.PDF2D, paper.MD}

// item is one HTTP request of a workload together with its expected
// answer.
type item struct {
	path string // path and query
	body []byte
	// want is the exact expected 200 body; for explore it is the
	// canonical form (see canonicalExplore).
	want    []byte
	explore bool
	// ops is how many ops the request stands for: one prediction, one
	// worksheet of a batch, or one explore candidate.
	ops int64
}

// check reports whether a 200 response body is the right answer.
func (it *item) check(body []byte) bool {
	if !it.explore {
		return bytes.Equal(body, it.want)
	}
	got, err := canonicalExplore(body)
	return err == nil && bytes.Equal(got, it.want)
}

// exploreCase is one generated exploration: the request as sent and
// the grid and options ratd derives from it.
type exploreCase struct {
	req  api.ExploreRequest
	grid rat.Grid
	opts rat.ExploreOptions
}

// inputs is everything one workload sends, plus the raw material the
// traced run feeds to each layer's public functions in process.
type inputs struct {
	conns int
	warm  []item // sent once, in order, during set-up
	run   []item // cycled during the measured phase

	// Layer inputs, all drawn from the workload's own requests.
	docs     [][]byte // single-worksheet JSON bodies
	params   []rat.Parameters
	batches  [][]byte // JSON arrays of up to batchSize worksheets
	explores []exploreCase
}

// newRNG returns the generator of one workload's stream: the same seed
// always yields the same inputs, and the four workloads never share a
// stream.
func newRNG(seed uint64, stream string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// genDoc draws one worksheet around case study c. Every magnitude is
// the case study's own value scaled by a factor in [1/4, 4]; alphas are
// drawn in [0.05, 1] and clocks in [50, 250] MHz. Staying inside the
// case studies' ranges keeps every prediction finite, so no generated
// request can fail for reasons of its own.
func genDoc(r *rand.Rand, c paper.Case, name string) worksheet.Doc {
	base := worksheet.DocFromParams(paper.Params(c))
	scale := func(v float64) float64 { return v * math.Exp2(4*r.Float64()-2) }
	round := func(v, unit float64) float64 { return math.Max(unit, math.Round(v/unit)*unit) }
	d := base
	d.Name = name
	d.Dataset.ElementsIn = int64(round(scale(float64(base.Dataset.ElementsIn)), 1))
	d.Dataset.ElementsOut = int64(round(scale(float64(base.Dataset.ElementsOut)), 1))
	d.Dataset.BytesPerElement = base.Dataset.BytesPerElement * [...]float64{0.5, 1, 2}[r.IntN(3)]
	d.Comm.IdealThroughputMBps = round(scale(base.Comm.IdealThroughputMBps), 1)
	d.Comm.AlphaWrite = round(0.05+0.95*r.Float64(), 0.001)
	d.Comm.AlphaRead = round(0.05+0.95*r.Float64(), 0.001)
	d.Comp.OpsPerElement = round(scale(base.Comp.OpsPerElement), 1)
	d.Comp.ThroughputProc = round(scale(base.Comp.ThroughputProc), 0.1)
	d.Comp.ClockMHz = float64(50 + r.IntN(201))
	d.Soft.TSoftSeconds = round(scale(base.Soft.TSoftSeconds), 0.0001)
	d.Soft.Iterations = int64(round(scale(float64(base.Soft.Iterations)), 1))
	return d
}

// genDocs draws n worksheets, cycling the three case studies.
func genDocs(r *rand.Rand, workload string, n int) []worksheet.Doc {
	docs := make([]worksheet.Doc, n)
	for i := range docs {
		c := caseStudies[i%len(caseStudies)]
		docs[i] = genDoc(r, c, workload+"/"+string(c)+"/"+strconv.Itoa(i))
	}
	return docs
}

// expectPredict renders the expected /v1/predict answer: rat.Predict
// for one device, rat.PredictMulti on the shared channel (the query's
// default topology) for several.
func expectPredict(p rat.Parameters, devices int) ([]byte, error) {
	var v any
	if devices <= 1 {
		pr, err := rat.Predict(p)
		if err != nil {
			return nil, err
		}
		v = api.PredictionFromCore(pr)
	} else {
		mp, err := rat.PredictMulti(p, rat.MultiConfig{Devices: devices, Topology: rat.SharedChannel})
		if err != nil {
			return nil, err
		}
		v = api.MultiPredictionFromCore(mp)
	}
	return marshalLine(v)
}

// marshalLine is json.Marshal plus the newline ratd ends JSON bodies
// with.
func marshalLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// predictItem builds one /v1/predict request with its expected answer.
func predictItem(d worksheet.Doc, devices int) (item, []byte, error) {
	body, err := json.Marshal(d)
	if err != nil {
		return item{}, nil, err
	}
	want, err := expectPredict(d.Params(), devices)
	if err != nil {
		return item{}, nil, fmt.Errorf("worksheet %q: %w", d.Name, err)
	}
	path := "/v1/predict"
	if devices > 1 {
		path += "?devices=" + strconv.Itoa(devices)
	}
	return item{path: path, body: body, want: want, ops: 1}, body, nil
}

// batchItem builds one /v1/predict/batch request over docs.
func batchItem(docs []worksheet.Doc) (item, error) {
	body, err := json.Marshal(docs)
	if err != nil {
		return item{}, err
	}
	preds := make([]api.Prediction, len(docs))
	for i, d := range docs {
		pr, err := rat.Predict(d.Params())
		if err != nil {
			return item{}, fmt.Errorf("worksheet %q: %w", d.Name, err)
		}
		preds[i] = api.PredictionFromCore(pr)
	}
	want, err := marshalLine(preds)
	if err != nil {
		return item{}, err
	}
	return item{path: "/v1/predict/batch", body: body, want: want, ops: int64(len(docs))}, nil
}

// canonicalExplore reduces an explore response to the part the
// determinism contract covers, the way ratload -distributed does:
// counts, top-K and frontier. Run telemetry (elapsed, rate, worker
// count) legitimately varies and is stripped.
func canonicalExplore(body []byte) ([]byte, error) {
	var resp api.ExploreResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding explore response: %w", err)
	}
	return canonicalExploreResponse(resp)
}

func canonicalExploreResponse(resp api.ExploreResponse) ([]byte, error) {
	// ratd omits an empty frontier, which decodes as nil; the rendering
	// from an in-process result holds an empty slice. Both mean none.
	if len(resp.Frontier) == 0 {
		resp.Frontier = nil
	}
	return json.Marshal(struct {
		Evaluated uint64          `json:"evaluated"`
		Feasible  uint64          `json:"feasible"`
		Top       []api.Candidate `json:"top"`
		Frontier  []api.Candidate `json:"frontier"`
	}{resp.Evaluated, resp.Feasible, resp.Top, resp.Frontier})
}

// distinctFloats draws n distinct values from draw.
func distinctFloats(n int, draw func() float64) []float64 {
	out := make([]float64, 0, n)
	seen := make(map[float64]bool, n)
	for len(out) < n {
		if v := draw(); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// genExplore draws one grid of 16 clocks x 16 throughputs x 4 alphas x
// 4 block sizes x 4 device counts x 2 bufferings = 32768 candidates
// around base, ranked by objective obj, with a speedup floor that
// leaves part of the grid infeasible.
func genExplore(r *rand.Rand, base worksheet.Doc, obj string, frontier bool) (exploreCase, error) {
	clocks := distinctFloats(16, func() float64 { return float64(50 + r.IntN(251)) })
	tps := distinctFloats(16, func() float64 {
		return math.Max(0.1, math.Round(base.Comp.ThroughputProc*math.Exp2(4*r.Float64()-2)*10)/10)
	})
	alphas := distinctFloats(4, func() float64 { return float64(2+r.IntN(19)) / 20 })
	// Four distinct powers of two times the base block, from 1/8 to 8x.
	blocks := make([]int64, 0, 4)
	for _, k := range r.Perm(7)[:4] {
		blocks = append(blocks, int64(math.Ldexp(float64(base.Dataset.ElementsIn), k-3)))
	}
	topology := [...]string{"shared", "independent"}[r.IntN(2)]
	pr, err := rat.Predict(base.Params())
	if err != nil {
		return exploreCase{}, fmt.Errorf("worksheet %q: %w", base.Name, err)
	}
	req := api.ExploreRequest{
		Worksheet:       base,
		ClocksMHz:       clocks,
		ThroughputProcs: tps,
		Alphas:          alphas,
		BlockSizes:      blocks,
		Devices:         []int{1, 2, 4, 8},
		Topology:        topology,
		Bufferings:      []string{"single", "double"},
		Objective:       obj,
		TopK:            exploreTopK,
		MinSpeedup:      math.Round(pr.SpeedupSingle*100) / 100,
		Frontier:        frontier,
	}
	grid, err := req.Grid()
	if err != nil {
		return exploreCase{}, err
	}
	opts, err := req.Options(0)
	if err != nil {
		return exploreCase{}, err
	}
	return exploreCase{req: req, grid: grid, opts: opts}, nil
}

// genExplores draws exploreRequests grids around bases: the case study
// rotates every request, the objective every three, and every other
// request asks for the frontier.
func genExplores(r *rand.Rand, bases []worksheet.Doc) ([]exploreCase, error) {
	objectives := [...]string{"max-speedup", "min-trc", "min-cost"}
	out := make([]exploreCase, exploreRequests)
	for i := range out {
		ec, err := genExplore(r, bases[i%len(bases)], objectives[(i/3)%3], i%2 == 1)
		if err != nil {
			return nil, err
		}
		out[i] = ec
	}
	return out, nil
}

// exploreItem runs the exploration in process for its expected answer.
func exploreItem(ec exploreCase) (item, error) {
	body, err := json.Marshal(ec.req)
	if err != nil {
		return item{}, err
	}
	res, err := rat.Explore(ec.grid, ec.opts)
	if err != nil {
		return item{}, err
	}
	want, err := canonicalExploreResponse(api.ExploreResponseFromCore(res, ec.req.Frontier))
	if err != nil {
		return item{}, err
	}
	return item{path: "/v1/explore", body: body, want: want, explore: true, ops: int64(ec.grid.Size())}, nil
}

// joinBatches renders docs as JSON arrays of at most batchSize
// worksheets, for the traced run's batch-decode layer call.
func joinBatches(bodies [][]byte) [][]byte {
	var out [][]byte
	for lo := 0; lo < len(bodies); lo += batchSize {
		hi := min(lo+batchSize, len(bodies))
		out = append(out, append(append([]byte{'['}, bytes.Join(bodies[lo:hi], []byte{','})...), ']'))
	}
	return out
}

// generate builds a workload's requests and expected answers from the
// seed. conns caps the connection count (the benchmark never opens more
// connections than there are CPUs).
func generate(workload string, seed uint64, conns int) (*inputs, error) {
	r := newRNG(seed, workload)
	in := &inputs{}
	var docs []worksheet.Doc
	switch workload {
	case wPredictHot, wPredictCold:
		n, devicesFor := hotWorksheets, func(int) int { return 1 }
		if workload == wPredictCold {
			n = coldPool
			devicesFor = func(i int) int {
				if i%coldMultiEvery == coldMultiEvery-1 {
					return 2 + r.IntN(7)
				}
				return 1
			}
		}
		in.conns = 2
		docs = genDocs(r, workload, n)
		items := make([]item, n)
		for i, d := range docs {
			it, body, err := predictItem(d, devicesFor(i))
			if err != nil {
				return nil, err
			}
			items[i] = it
			in.docs = append(in.docs, body)
		}
		if workload == wPredictHot {
			// One pass of misses fills the cache, two passes of hits
			// settle the raw-alias index and the pools.
			in.warm = append(append(append([]item{}, items...), items...), items...)
			in.run = items
		} else {
			in.warm = items[:coldWarm]
			in.run = append(append([]item{}, items[coldWarm:]...), items[:coldWarm]...)
		}
	case wBatchBulk:
		in.conns = 1
		docs = genDocs(r, workload, batchBodies*batchSize)
		for lo := 0; lo < len(docs); lo += batchSize {
			it, err := batchItem(docs[lo : lo+batchSize])
			if err != nil {
				return nil, err
			}
			in.run = append(in.run, it)
			in.batches = append(in.batches, it.body)
		}
		in.warm = append(append(append(append([]item{}, in.run...), in.run...), in.run...), in.run...)
	case wExploreGrid:
		in.conns = 1
		docs = genDocs(r, workload, exploreRequests)
		explores, err := genExplores(r, docs)
		if err != nil {
			return nil, err
		}
		in.explores = explores
		for _, ec := range explores {
			it, err := exploreItem(ec)
			if err != nil {
				return nil, err
			}
			in.run = append(in.run, it)
		}
		in.warm = in.run
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	in.conns = min(in.conns, conns)
	for _, d := range docs {
		in.params = append(in.params, d.Params())
		if len(in.docs) < len(in.params) {
			body, err := json.Marshal(d)
			if err != nil {
				return nil, err
			}
			in.docs = append(in.docs, body)
		}
	}
	if in.batches == nil {
		in.batches = joinBatches(in.docs)
	}
	if in.explores == nil {
		// Every workload but explore-grid feeds its explore layer grids
		// around its own first worksheets.
		explores, err := genExplores(r, docs[:len(caseStudies)])
		if err != nil {
			return nil, err
		}
		in.explores = explores
	}
	return in, nil
}
