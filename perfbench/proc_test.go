package main

import (
	"os"
	"testing"
	"time"
)

// listing renders the telemetry text format /metrics serves by default.
const listingBefore = `counter server.admitted.batch                         0
counter server.admitted.explore                       0
counter server.admitted.predict                       100
counter server.batches                                40
counter server.cache_evictions                        0
counter server.cache_hits                             10
counter server.cache_misses                           90
counter server.rejected.predict                       0
gauge   server.cache_entries                          90
histo   server.batch_size                             count=40 sum=80 le(1)=10 le(2)=20 le(4)=10 over=0
timer   server.latency                                count=100 total=1s mean=10ms min=1ms max=20ms
`

const listingAfter = `counter server.admitted.batch                         0
counter server.admitted.explore                       0
counter server.admitted.predict                       1090
counter server.batches                                440
counter server.cache_evictions                        600
counter server.cache_hits                             10
counter server.cache_misses                           1090
counter server.rejected.predict                       10
gauge   server.cache_entries                          1024
histo   server.batch_size                             count=440 sum=880 le(1)=10 le(2)=420 le(4)=10 over=0
timer   server.latency                                count=1100 total=11s mean=10ms min=1ms max=20ms
`

func TestLayersFromCannedMetrics(t *testing.T) {
	before, err := parseMetrics(listingBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(listingAfter)
	if err != nil {
		t.Fatal(err)
	}
	if after["server.batch_size.sum"] != 880 || after["server.cache_entries"] != 1024 {
		t.Fatalf("parsed %v", after)
	}
	l := layersFromMetrics(before, after, 1000)
	for _, tc := range []struct {
		name string
		got  ratio
		want ratio
	}{
		{"cache hit ratio", l.cacheHit, ratio{0, 1000}},
		{"evictions per op", l.evictionsPerOp, ratio{0.6, 1000}},
		{"batch size mean", l.batchSizeMean, ratio{2, 400}},
		{"predict rejected share", l.rejected["predict"], ratio{0.01, 1000}},
		{"batch rejected share", l.rejected["batch"], ratio{0, 0}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %+v, want %+v", tc.name, tc.got, tc.want)
		}
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	if _, err := parseMetrics("counter server.cache_hits lots\n"); err == nil {
		t.Error("a non-numeric counter parsed")
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses.
	line := "4242 (rat d) (x) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 75 0 0 20 0 9 0 12345 0 0"
	cpu, err := parseStatCPU(line)
	if err != nil || cpu != 3250*time.Millisecond {
		t.Errorf("parseStatCPU = %v, %v; want 3.25s", cpu, err)
	}
	if _, err := parseStatCPU("4242 no parenthesis"); err == nil {
		t.Error("a malformed stat line parsed")
	}
}

func TestProcReadsSelf(t *testing.T) {
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	rss, err := procPeakRSS(os.Getpid())
	if err != nil || rss <= 0 {
		t.Fatalf("procPeakRSS = %d, %v", rss, err)
	}
}

func TestParseStages(t *testing.T) {
	st, err := parseStages("admission=120;cache=35;batch_wait=0;kernel=90;encode=15")
	if err != nil {
		t.Fatal(err)
	}
	if st != [5]int64{120, 35, 0, 90, 15} {
		t.Errorf("parseStages = %v", st)
	}
	if _, err := parseStages("admission"); err == nil {
		t.Error("a malformed stage header parsed")
	}
}
