package server

import (
	"testing"

	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/telemetry"
)

// TestCacheLRU exercises eviction order and the disabled (nil) cache.
func TestCacheLRU(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newResponseCache(reg, 2)
	c.put([]byte("a"), nil, []byte("A"))
	c.put([]byte("b"), nil, []byte("B"))
	if _, hit := c.get([]byte("a"), nil); !hit { // bumps a over b
		t.Fatal("a missing")
	}
	c.put([]byte("c"), nil, []byte("C")) // evicts b, the LRU
	if _, hit := c.get([]byte("b"), nil); hit {
		t.Error("b survived eviction; LRU order is wrong")
	}
	if body, hit := c.get([]byte("a"), nil); !hit || string(body) != "A" {
		t.Error("a evicted out of order")
	}
	snap := reg.Snapshot()
	if snap.Counters["server.cache_evictions"] != 1 {
		t.Errorf("evictions = %d, want 1", snap.Counters["server.cache_evictions"])
	}

	var disabled *responseCache // nil: caching off
	disabled.put([]byte("k"), nil, []byte("v"))
	if _, hit := disabled.get([]byte("k"), nil); hit {
		t.Error("nil cache returned a hit")
	}
}

// TestCacheKeyDistinguishesRequests: any parameter or topology change
// must change the key; equal requests must collide.
func TestCacheKeyDistinguishesRequests(t *testing.T) {
	base := paper.PDF1DParams()
	cfg := core.MultiConfig{Devices: 1, Topology: core.SharedChannel}
	if cacheKey(base, cfg) != cacheKey(paper.PDF1DParams(), cfg) {
		t.Error("identical requests produced different keys")
	}
	mutations := []func(*core.Parameters){
		func(p *core.Parameters) { p.Name = p.Name + "x" },
		func(p *core.Parameters) { p.Dataset.ElementsIn++ },
		func(p *core.Parameters) { p.Comm.AlphaWrite += 1e-9 },
		func(p *core.Parameters) { p.Comp.ClockHz *= 1.0000001 },
		func(p *core.Parameters) { p.Soft.Iterations++ },
	}
	for i, mutate := range mutations {
		p := paper.PDF1DParams()
		mutate(&p)
		if cacheKey(p, cfg) == cacheKey(base, cfg) {
			t.Errorf("mutation %d did not change the cache key", i)
		}
	}
	if cacheKey(base, cfg) == cacheKey(base, core.MultiConfig{Devices: 2, Topology: core.SharedChannel}) {
		t.Error("device count not part of the cache key")
	}
	if cacheKey(base, core.MultiConfig{Devices: 2, Topology: core.SharedChannel}) ==
		cacheKey(base, core.MultiConfig{Devices: 2, Topology: core.IndependentChannels}) {
		t.Error("topology not part of the cache key")
	}
}
