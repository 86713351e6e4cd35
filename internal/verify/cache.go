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
// LRU holding two kinds of relocatable reconstruction results, shared by
// every session verifying the same firmware fleet:
//
//   - whole-stream verdicts, keyed by SHA-256(H_MEM ‖ decompressed
//     evidence): fleet devices running identical firmware produce
//     identical evidence, so a repeated stream returns its verdict
//     without re-running the pushdown search at all;
//   - deterministic segment summaries, keyed by (H_MEM, pc, loop state)
//     plus the exact evidence window the walk peeked: near-identical
//     streams (same firmware, slightly different inputs) reuse every
//     segment whose local evidence window recurs, at any cursor offset.
//
// Soundness: cached values are pure functions of their key. A verdict is
// determined by (golden image, packet stream) — H_MEM determines the
// image, the digest covers the stream. A segment walk is determined by
// (image, entry pc, loop state, the packets it peeks); a stored summary
// carries that peeked window verbatim and is only replayed when the
// window (and end-of-stream condition, when observed) matches exactly at
// the new cursor, so a hit can never produce a result the uncached walk
// would not have produced. Changing the firmware changes H_MEM and
// therefore every key: invalidation is structural, never explicit.
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

type cacheShard struct {
	mu    sync.Mutex
	items map[cacheKey]*list.Element
	lru   *list.List // front = most recent
	bytes int64
	max   int64
}

// cacheKey identifies one cached value. kind separates the two value
// namespaces; h64 is a cheap per-node hash for segment entries (collisions
// are resolved by exact variant comparison, never trusted); hsum is the
// full SHA-256 stream digest for verdicts and H_MEM for segments.
type cacheKey struct {
	kind byte
	h64  uint64
	hsum [sha256.Size]byte
}

const (
	keyKindVerdict byte = 1
	keyKindSegment byte = 2
)

type cacheEntry struct {
	key  cacheKey
	val  any
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

func (c *Cache) shard(k cacheKey) *cacheShard {
	return &c.shards[(k.h64^uint64(k.kind)*0x9e3779b97f4a7c15)%cacheShards]
}

// get returns the cached value for k, refreshing its LRU position. It
// does not touch the hit/miss counters: a segment-bucket lookup only
// counts as a hit when a variant actually matches, so the callers count.
func (c *Cache) get(k cacheKey) (any, bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[k]
	if !ok {
		return nil, false
	}
	sh.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// put inserts or replaces the value for k, evicting least-recently-used
// entries until the shard fits its budget. Values larger than the whole
// shard budget are not admitted (they would evict everything for one
// entry that itself cannot stay).
func (c *Cache) put(k cacheKey, v any, size int64) {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if size > sh.max {
		return
	}
	if el, ok := sh.items[k]; ok {
		e := el.Value.(*cacheEntry)
		sh.bytes += size - e.size
		e.val, e.size = v, size
		sh.lru.MoveToFront(el)
	} else {
		e := &cacheEntry{key: k, val: v, size: size}
		sh.items[k] = sh.lru.PushFront(e)
		sh.bytes += size
	}
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

// --- verdict entries -------------------------------------------------

// cachedVerdict is one memoized whole-stream result. The Verdict value
// is returned by shallow copy: Path is shared read-only, Evidence is
// re-attached per call (it is the caller's own decompressed stream).
type cachedVerdict struct {
	vd Verdict
}

func verdictKey(hmem [sha256.Size]byte, packets []trace.Packet) cacheKey {
	h := sha256.New()
	h.Write(hmem[:])
	h.Write(pipeline.EncodeMTB(packets))
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	var h64 uint64
	for i := 0; i < 8; i++ {
		h64 = h64<<8 | uint64(sum[i])
	}
	return cacheKey{kind: keyKindVerdict, h64: h64, hsum: sum}
}

func (cv *cachedVerdict) sizeBytes() int64 {
	return 256 + int64(len(cv.vd.Path))*12 + int64(len(cv.vd.Detail))
}

// lookupVerdict returns a private copy of the memoized verdict for
// (hmem, packets), if any.
func (c *Cache) lookupVerdict(hmem [sha256.Size]byte, packets []trace.Packet) (*Verdict, bool) {
	v, ok := c.get(verdictKey(hmem, packets))
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	cv, ok := v.(*cachedVerdict)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	vd := cv.vd // shallow copy; Path shared read-only
	return &vd, true
}

// storeVerdict memoizes vd for (hmem, packets). Budget-limited verdicts
// are not stored: they depend on the Verifier's MaxInstrs, which is not
// part of the key.
func (c *Cache) storeVerdict(hmem [sha256.Size]byte, packets []trace.Packet, vd *Verdict) {
	if vd.Code == ReasonWorkBudget {
		return
	}
	cv := &cachedVerdict{vd: *vd}
	cv.vd.Evidence = nil // do not pin evidence streams in the cache
	c.put(verdictKey(hmem, packets), cv, cv.sizeBytes())
}

// --- segment entries -------------------------------------------------

// noteRec is a diagnostic captured during a recorded segment walk,
// replayed on every cache hit so rejection detail does not depend on
// which session first walked the segment.
type noteRec struct {
	pc     uint32
	code   ReasonCode
	msg    string
	attack bool
}

// segSummary is one relocatable deterministic-segment result: entering at
// pc with loopCtx and evidence matching win at the cursor (plus, when eos
// is set, the stream ending right after the window), the walk ends in
// res with cursors expressed relative to the entry cursor.
type segSummary struct {
	pc      uint32
	loopCtx loopMap
	win     []trace.Packet
	eos     bool
	res     advState // cursor fields are deltas from the entry cursor
	note    *noteRec
}

// matches reports whether the summary applies at packets[cursor:].
func (sg *segSummary) matches(packets []trace.Packet, cursor int) bool {
	if cursor+len(sg.win) > len(packets) {
		return false
	}
	for i, p := range sg.win {
		if packets[cursor+i] != p {
			return false
		}
	}
	if sg.eos && cursor+len(sg.win) != len(packets) {
		return false
	}
	return true
}

func (sg *segSummary) sizeBytes() int64 {
	return 160 + int64(len(sg.win))*trace.PacketSize +
		int64(len(sg.loopCtx)+len(sg.res.loopCtx))*16
}

// segBucket holds the summaries recorded for one (H_MEM, pc, loop-hash)
// slot. Buckets are immutable snapshots (copy-on-write on insert) so
// readers never lock beyond the shard mutex.
type segBucket struct {
	variants []*segSummary
}

// maxSegVariants bounds one bucket: distinct windows per node are rare
// (different loop counts or tail positions), so a handful suffices.
const maxSegVariants = 6

func segKey(hmem [sha256.Size]byte, pc uint32, lhash uint64) cacheKey {
	const prime64 = 1099511628211
	h := (uint64(pc)*prime64 ^ lhash) * prime64
	return cacheKey{kind: keyKindSegment, h64: h, hsum: hmem}
}

// lookupSegment returns a summary applying at (pc, loopCtx,
// packets[cursor:]), if one was recorded by any session.
func (c *Cache) lookupSegment(hmem [sha256.Size]byte, pc uint32, loopCtx loopMap, packets []trace.Packet, cursor int) (*segSummary, bool) {
	v, ok := c.get(segKey(hmem, pc, loopCtx.hash()))
	if ok {
		if b, okb := v.(*segBucket); okb {
			for _, sg := range b.variants {
				if sg.pc == pc && loopMapsEqual(sg.loopCtx, loopCtx) && sg.matches(packets, cursor) {
					c.hits.Add(1)
					return sg, true
				}
			}
		}
	}
	c.misses.Add(1)
	return nil, false
}

// storeSegment records a summary, replacing the bucket snapshot. The
// newest variant goes first; the oldest falls off past maxSegVariants.
func (c *Cache) storeSegment(hmem [sha256.Size]byte, sg *segSummary) {
	k := segKey(hmem, sg.pc, sg.loopCtx.hash())
	var old []*segSummary
	if v, ok := c.get(k); ok {
		if b, okb := v.(*segBucket); okb {
			old = b.variants
		}
	}
	variants := make([]*segSummary, 0, len(old)+1)
	variants = append(variants, sg)
	for _, o := range old {
		if len(variants) >= maxSegVariants {
			break
		}
		variants = append(variants, o)
	}
	size := int64(48)
	for _, v := range variants {
		size += v.sizeBytes()
	}
	c.put(k, &segBucket{variants: variants}, size)
}

func loopMapsEqual(a, b loopMap) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
