package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/paper"
)

// TestPredictionWireRoundTrip pins the bit-for-bit contract: a core
// prediction converted to the wire form, marshalled, unmarshalled and
// converted back must compare equal with ==, for all three paper case
// studies. encoding/json emits the shortest float representation that
// parses back to the same bits, so no tolerance is needed.
func TestPredictionWireRoundTrip(t *testing.T) {
	for _, c := range []paper.Case{paper.PDF1D, paper.PDF2D, paper.MD} {
		p := paper.Params(c)
		pr, err := core.Predict(p)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		body, err := json.Marshal(PredictionFromCore(pr))
		if err != nil {
			t.Fatalf("%s: marshal: %v", c, err)
		}
		var wire Prediction
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&wire); err != nil {
			t.Fatalf("%s: unmarshal: %v", c, err)
		}
		if got := wire.Core(); got != pr {
			t.Errorf("%s: wire round-trip changed the prediction\n got %+v\nwant %+v", c, got, pr)
		}
	}
}

func TestMultiPredictionWireRoundTrip(t *testing.T) {
	for _, topo := range []core.Topology{core.SharedChannel, core.IndependentChannels} {
		for _, devices := range []int{1, 2, 4} {
			mp, err := core.PredictMulti(paper.PDF2DParams(), core.MultiConfig{Devices: devices, Topology: topo})
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(MultiPredictionFromCore(mp))
			if err != nil {
				t.Fatal(err)
			}
			var wire MultiPrediction
			if err := json.Unmarshal(body, &wire); err != nil {
				t.Fatal(err)
			}
			if got := wire.Core(); got != mp {
				t.Errorf("%v x%d: wire round-trip changed the prediction", topo, devices)
			}
		}
	}
}

func TestParseTopology(t *testing.T) {
	for _, c := range []struct {
		in   string
		want core.Topology
		ok   bool
	}{
		{"", core.SharedChannel, true},
		{"shared", core.SharedChannel, true},
		{"shared-channel", core.SharedChannel, true},
		{"independent", core.IndependentChannels, true},
		{"independent-channels", core.IndependentChannels, true},
		{"ring", 0, false},
	} {
		got, err := ParseTopology(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseTopology(%q) = %v, %v", c.in, got, err)
		}
	}
}

func TestExploreRequestGrid(t *testing.T) {
	req := ExploreRequest{
		Worksheet:  PredictionFromCore(core.MustPredict(paper.PDF1DParams())).Worksheet,
		ClocksMHz:  []float64{75, 100, 150},
		Bufferings: []string{"single", "double"},
		Objective:  "min-trc",
		TopK:       5,
	}
	g, err := req.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Size(); got != 6 {
		t.Errorf("grid size = %d, want 6 (3 clocks x 2 bufferings)", got)
	}
	if g.Clocks[0] != core.MHz(75) {
		t.Errorf("clock axis not converted to Hz: %v", g.Clocks[0])
	}
	opts, err := req.Options(2)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Workers != 2 || opts.TopK != 5 {
		t.Errorf("options = %+v", opts)
	}

	req.Bufferings = []string{"triple"}
	if _, err := req.Grid(); err == nil {
		t.Error("bad buffering accepted")
	}
	req.Bufferings = nil
	req.Objective = "fastest"
	if _, err := req.Options(1); err == nil {
		t.Error("bad objective accepted")
	}
}

// TestPrepare: the one explore validation path compiles the grid once,
// keeps the request it prepared, charges a sharded request for its
// slice, and refuses an index range past the grid and non-finite
// constraints, which JSON cannot carry to ratd but a CLI flag can,
// with ErrInvalidParameters.
func TestPrepare(t *testing.T) {
	base := ExploreRequest{
		Worksheet: PredictionFromCore(core.MustPredict(paper.PDF1DParams())).Worksheet,
		ClocksMHz: []float64{75, 100, 150},
		Objective: "min-trc",
	}
	job, err := base.Prepare(3)
	if err != nil {
		t.Fatal(err)
	}
	if job.Span != 6 || job.Grid.Size() != 6 || job.Options.Workers != 3 || job.Options.Objective != explore.MinTRC {
		t.Errorf("job = span %d, grid %d, options %+v", job.Span, job.Grid.Size(), job.Options)
	}
	if !reflect.DeepEqual(job.Request, base) {
		t.Errorf("job.Request = %+v, want the request it was prepared from", job.Request)
	}
	shard := base
	shard.IndexLo, shard.IndexHi = 2, 5
	if job, err := shard.Prepare(0); err != nil || job.Span != 3 {
		t.Errorf("shard [2, 5): span %d, %v; want 3", job.Span, err)
	}

	for _, mod := range []func(*ExploreRequest){
		func(r *ExploreRequest) { r.IndexLo, r.IndexHi = 2, 100000 },
		func(r *ExploreRequest) { r.MinSpeedup = math.NaN() },
		func(r *ExploreRequest) { r.MaxTRCSeconds = math.Inf(1) },
		func(r *ExploreRequest) { r.MaxUtilComm = math.Inf(-1) },
	} {
		req := base
		mod(&req)
		if _, err := req.Prepare(0); !errors.Is(err, core.ErrInvalidParameters) {
			t.Errorf("range [%d, %d), constraints %v/%v/%v: Prepare = %v, want ErrInvalidParameters",
				req.IndexLo, req.IndexHi, req.MinSpeedup, req.MaxTRCSeconds, req.MaxUtilComm, err)
		}
	}
}
