package main

import (
	"bytes"
	"math"
	"testing"

	"github.com/chrec/rat"
	"github.com/chrec/rat/internal/wire"
)

var workloads = []string{wPredictHot, wPredictCold, wBatchBulk, wExploreGrid}

// sameItems reports whether two request lists are byte-identical,
// expected answers included.
func sameItems(a, b []item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].path != b[i].path || a[i].ops != b[i].ops ||
			!bytes.Equal(a[i].body, b[i].body) || !bytes.Equal(a[i].want, b[i].want) {
			return false
		}
	}
	return true
}

func TestGenerateIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 7, 2)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b, err := generate(w, 7, 2)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !sameItems(a.warm, b.warm) || !sameItems(a.run, b.run) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", w)
		}
		c, err := generate(w, 8, 2)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if sameItems(a.run, c.run) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w)
		}
	}
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func TestGeneratedWorksheetsPredictFinite(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{1, 2, 3} {
			in, err := generate(w, seed, 2)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w, seed, err)
			}
			for i, p := range in.params {
				if err := p.Validate(); err != nil {
					t.Fatalf("%s seed %d worksheet %d: %v", w, seed, i, err)
				}
				pr, err := rat.Predict(p)
				if err != nil || !finite(pr.TWrite, pr.TRead, pr.TComm, pr.TComp, pr.TRCSingle,
					pr.TRCDouble, pr.SpeedupSingle, pr.SpeedupDouble, pr.UtilCompSB,
					pr.UtilCommSB, pr.UtilCompDB, pr.UtilCommDB) {
					t.Fatalf("%s seed %d worksheet %d: prediction %+v, err %v", w, seed, i, pr, err)
				}
				mp, err := rat.PredictMulti(p, rat.MultiConfig{Devices: 8})
				if err != nil || !finite(mp.TComm, mp.TComp, mp.TRCSingle, mp.TRCDouble,
					mp.SpeedupSingle, mp.SpeedupDouble, mp.ScalingEfficiency) {
					t.Fatalf("%s seed %d worksheet %d: multi prediction %+v, err %v", w, seed, i, mp, err)
				}
			}
			// ratd decodes the bodies to exactly the parameters the
			// oracle predicted from.
			for i, b := range in.docs {
				p, err := wire.DecodeWorksheet(b)
				if err != nil || p != in.params[i] {
					t.Fatalf("%s seed %d body %d decodes to %+v (err %v), want %+v", w, seed, i, p, err, in.params[i])
				}
			}
			for _, ec := range in.explores {
				if err := ec.grid.Validate(); err != nil {
					t.Fatalf("%s seed %d grid: %v", w, seed, err)
				}
			}
		}
	}
}

func TestExploreGridsAreAbout32k(t *testing.T) {
	in, err := generate(wExploreGrid, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range in.run {
		if it.ops != 32768 {
			t.Errorf("grid %d has %d candidates, want 32768", i, it.ops)
		}
	}
}
