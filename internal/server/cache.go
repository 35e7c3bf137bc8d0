package server

import (
	"container/list"
	"encoding/binary"
	"sync"

	"github.com/chrec/rat/internal/telemetry"
)

// appendRequestKey appends the response-cache key of one predict
// request to dst: both wire-format discriminators (request body
// encoding and negotiated response encoding), the length and bytes of
// the unparsed query string, and the verbatim body. Two byte-identical
// requests under the same negotiation always produce byte-identical
// responses, which is what makes the key sound; the length prefix
// keeps query bytes from being read as body bytes.
//
//rat:hotpath
func appendRequestKey(dst, body []byte, rawQuery string, binReq, binResp bool) []byte {
	var formats [2]byte
	if binReq {
		formats[0] = 1
	}
	if binResp {
		formats[1] = 1
	}
	dst = append(dst, formats[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rawQuery)))
	dst = append(dst, rawQuery...)
	return append(dst, body...)
}

// responseCache is a mutex-guarded LRU of marshalled response bodies,
// keyed by appendRequestKey. Caching the exact bytes (not the
// Prediction) guarantees a hit replays a byte-identical response,
// which is what the bit-for-bit acceptance tests compare, and a client
// replaying identical request bytes is answered without decoding the
// worksheet at all. Keys are passed as byte slices so the
// steady-state lookup compiles to an allocation-free map access; the
// cache copies the key only when it stores a new entry.
type responseCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recent; values are *cacheEntry
	items map[string]*list.Element

	hits   *telemetry.Counter
	misses *telemetry.Counter
	evicts *telemetry.Counter
	sizeG  *telemetry.Gauge
}

type cacheEntry struct {
	key  string
	body []byte
}

// newResponseCache returns a cache holding up to max entries, or nil
// when max <= 0 (caching disabled; a nil cache misses everything).
func newResponseCache(reg *telemetry.Registry, max int) *responseCache {
	if max <= 0 {
		return nil
	}
	return &responseCache{
		max:    max,
		ll:     list.New(),
		items:  make(map[string]*list.Element, max),
		hits:   reg.Counter("server.cache_hits"),
		misses: reg.Counter("server.cache_misses"),
		evicts: reg.Counter("server.cache_evictions"),
		sizeG:  reg.Gauge("server.cache_entries"),
	}
}

// get returns the cached body for key, bumping its recency, and counts
// the hit or miss. The map index through string(key) does not
// allocate.
//
//rat:hotpath
func (c *responseCache) get(key []byte) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	elem, ok := c.items[string(key)]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(elem)
	c.hits.Inc()
	return elem.Value.(*cacheEntry).body, true
}

// put stores a copy of body under a copy of key, evicting the least
// recently used entry when full. Copying here (off the measured hit
// path) is what lets callers hand in pooled buffers. A key already
// present keeps its body: equal keys render equal bytes.
func (c *responseCache) put(key, body []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.items[string(key)]; ok {
		c.ll.MoveToFront(elem)
		return
	}
	k := string(key)
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, body: append([]byte(nil), body...)})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evicts.Inc()
	}
	c.sizeG.Set(float64(c.ll.Len()))
}
