package server

import (
	"testing"

	"github.com/chrec/rat/internal/telemetry"
)

// TestCacheLRU exercises eviction order and the disabled (nil) cache.
func TestCacheLRU(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newResponseCache(reg, 2)
	c.put([]byte("a"), []byte("A"))
	c.put([]byte("b"), []byte("B"))
	if _, hit := c.get([]byte("a")); !hit { // bumps a over b
		t.Fatal("a missing")
	}
	c.put([]byte("c"), []byte("C")) // evicts b, the LRU
	if _, hit := c.get([]byte("b")); hit {
		t.Error("b survived eviction; LRU order is wrong")
	}
	if body, hit := c.get([]byte("a")); !hit || string(body) != "A" {
		t.Error("a evicted out of order")
	}
	snap := reg.Snapshot()
	if snap.Counters["server.cache_evictions"] != 1 {
		t.Errorf("evictions = %d, want 1", snap.Counters["server.cache_evictions"])
	}

	var disabled *responseCache // nil: caching off
	disabled.put([]byte("k"), []byte("v"))
	if _, hit := disabled.get([]byte("k")); hit {
		t.Error("nil cache returned a hit")
	}
}

// TestCacheKeyDistinguishesRequests: the request format, the response
// format, the query and every body byte must each change the key;
// identical requests must collide.
func TestCacheKeyDistinguishesRequests(t *testing.T) {
	type request struct {
		body            string
		query           string
		binReq, binResp bool
	}
	key := func(r request) string {
		return string(appendRequestKey(nil, []byte(r.body), r.query, r.binReq, r.binResp))
	}
	base := request{body: `{"name":"pdf1d"}`, query: "devices=2"}
	if key(base) != key(request{body: `{"name":"pdf1d"}`, query: "devices=2"}) {
		t.Error("identical requests produced different keys")
	}
	mutations := map[string]request{
		"request format":      {body: base.body, query: base.query, binReq: true},
		"response format":     {body: base.body, query: base.query, binResp: true},
		"query":               {body: base.body, query: "devices=3"},
		"no query":            {body: base.body},
		"one body byte":       {body: `{"name":"pdf1e"}`, query: base.query},
		"query/body boundary": {body: "2" + base.body, query: "devices="},
	}
	for name, r := range mutations {
		if key(r) == key(base) {
			t.Errorf("changing the %s did not change the cache key", name)
		}
	}
}
