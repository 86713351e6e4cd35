package verify

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"raptrack/internal/trace"
	"raptrack/internal/trace/pipeline"
)

// Cache is the cross-session verification fast path: a sharded, bounded
// LRU of whole-stream verdicts keyed by SHA-256(H_MEM ‖ decompressed
// evidence), shared by every session verifying the same firmware fleet.
// Fleet devices running identical firmware produce identical evidence, so
// a repeated stream returns its verdict without running the automaton or
// the pushdown search at all.
//
// Soundness: a verdict is a pure function of (golden image, packet
// stream); H_MEM determines the image and the digest covers the stream.
// Changing the firmware changes H_MEM and therefore every key:
// invalidation is structural, never explicit.
//
// All methods are safe for concurrent use; one Cache may back many
// Verifiers (a gateway typically allocates one per application).
type Cache struct {
	shards [cacheShards]cacheShard

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

const cacheShards = 16

// DefaultCacheBytes is the capacity NewCache selects for maxBytes <= 0.
const DefaultCacheBytes = 64 << 20

// cacheKey is the SHA-256 digest of H_MEM and the expanded evidence.
type cacheKey [sha256.Size]byte

type cacheShard struct {
	mu    sync.Mutex
	items map[cacheKey]*list.Element
	lru   *list.List // front = most recent
	bytes int64
	max   int64
}

// cacheEntry is one memoized verdict. Evidence is never stored (the
// cache must not pin evidence streams); Path is shared read-only by every
// copy get hands out.
type cacheEntry struct {
	key  cacheKey
	vd   Verdict
	size int64
}

// NewCache builds a cache bounded to maxBytes of accounted payload
// (maxBytes <= 0 selects DefaultCacheBytes).
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	c := &Cache{}
	per := maxBytes / cacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].items = make(map[cacheKey]*list.Element)
		c.shards[i].lru = list.New()
		c.shards[i].max = per
	}
	return c
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	Bytes     int64
}

// Stats snapshots the counters and walks the shards for occupancy.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	s := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.items)
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}

func verdictKey(hmem [sha256.Size]byte, packets []trace.Packet) cacheKey {
	h := sha256.New()
	h.Write(hmem[:])
	h.Write(pipeline.EncodeMTB(packets))
	var k cacheKey
	h.Sum(k[:0])
	return k
}

func (c *Cache) shard(k cacheKey) *cacheShard {
	return &c.shards[k[0]%cacheShards]
}

// get returns a private copy of the verdict stored under k, refreshing
// its LRU position, and counts the lookup as a hit or a miss.
func (c *Cache) get(k cacheKey) (*Verdict, bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	el, ok := sh.items[k]
	var vd Verdict
	if ok {
		sh.lru.MoveToFront(el)
		vd = el.Value.(*cacheEntry).vd
	}
	sh.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return &vd, true
}

// put memoizes vd under k, evicting least-recently-used entries until the
// shard fits its budget. Budget-limited verdicts are not stored: they
// depend on the Verifier's MaxInstrs, which is not part of the key. An
// entry larger than the whole shard budget is not admitted (it would
// evict everything for one entry that itself cannot stay).
func (c *Cache) put(k cacheKey, vd *Verdict) {
	if vd.Code == ReasonWorkBudget {
		return
	}
	size := 256 + int64(len(vd.Path))*12 + int64(len(vd.Detail))
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if size > sh.max {
		return
	}
	e := &cacheEntry{key: k, vd: *vd, size: size}
	e.vd.Evidence = nil
	if el, ok := sh.items[k]; ok {
		sh.bytes -= el.Value.(*cacheEntry).size
		el.Value = e
		sh.lru.MoveToFront(el)
	} else {
		sh.items[k] = sh.lru.PushFront(e)
	}
	sh.bytes += size
	for sh.bytes > sh.max {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		sh.lru.Remove(back)
		delete(sh.items, e.key)
		sh.bytes -= e.size
		c.evictions.Add(1)
	}
}
