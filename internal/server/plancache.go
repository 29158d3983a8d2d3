package server

import (
	"container/list"
	"context"
	"sync"
)

// The compiled-plan LRU cache. Production traffic often re-solves one loop
// shape with fresh data every timestep, and the structure-only half of a
// solve — chain decomposition, the general family's path counts, the
// Möbius shadow rewrite — depends only on the index maps. The server
// compiles that half once into a plan keyed by its canonical fingerprint
// (ir.PlanFingerprint over family, n, m, g, f, h) and replays it for every
// request with the same shape; replays are bit-identical to direct solves.
// The cache is bounded by plan SizeBytes, evicts least-recently-used
// entries, and is observable as irserved_plan_cache_{hits,misses,
// evictions}_total and irserved_plan_cache_bytes.

// CachedPlan is what the cache stores: a compiled plan that can report its
// resident size. The daemons cache *ir.Plan for every family.
type CachedPlan interface {
	SizeBytes() int64
}

// PlanCache is a size-accounted LRU of compiled plans, keyed by fingerprint.
// All methods are safe for concurrent use; a nil *PlanCache means caching is
// disabled (see PlanFor).
type PlanCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits, misses, evictions *Counter
	bytesGauge              *Gauge
}

type planEntry struct {
	key  string
	plan CachedPlan
	size int64
}

// PlanCacheMetrics wires a cache's observability: hit/miss/eviction
// counters and a resident-bytes gauge. Any field may be nil (unobserved).
// The cache is shared with internal/cluster, whose coordinator keys the
// same plans under ircluster_* metric names.
type PlanCacheMetrics struct {
	// Hits, Misses and Evictions count cache outcomes.
	Hits, Misses, Evictions *Counter
	// Bytes tracks resident plan bytes.
	Bytes *Gauge
}

// NewPlanCache builds a cache bounded by maxBytes (> 0).
func NewPlanCache(maxBytes int64, m PlanCacheMetrics) *PlanCache {
	return &PlanCache{
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		hits:       m.Hits,
		misses:     m.Misses,
		evictions:  m.Evictions,
		bytesGauge: m.Bytes,
	}
}

func inc(c *Counter) {
	if c != nil {
		c.Inc()
	}
}

// Get returns the cached plan for key, marking it most recently used.
func (c *PlanCache) Get(key string) (CachedPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		inc(c.misses)
		return nil, false
	}
	c.ll.MoveToFront(el)
	inc(c.hits)
	return el.Value.(*planEntry).plan, true
}

// Put inserts a compiled plan, evicting LRU entries until the byte bound
// holds again. A plan larger than the whole cache is not stored (it would
// evict everything for a single use). Re-inserting an existing key keeps the
// already-cached plan: equal fingerprints mean interchangeable plans.
func (c *PlanCache) Put(key string, plan CachedPlan) {
	size := plan.SizeBytes()
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&planEntry{key: key, plan: plan, size: size})
	c.items[key] = el
	c.bytes += size
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil || back == el {
			break
		}
		ent := back.Value.(*planEntry)
		c.ll.Remove(back)
		delete(c.items, ent.key)
		c.bytes -= ent.size
		inc(c.evictions)
	}
	if c.bytesGauge != nil {
		c.bytesGauge.Set(c.bytes)
	}
}

// Len reports the entry count (tests and diagnostics).
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// PlanFor resolves a plan by fingerprint: cache hit, or compile (on the
// calling worker goroutine, under the request ctx) and insert. Concurrent
// misses on one key may compile twice; the first insert wins and the
// duplicate is dropped, which is harmless because equal fingerprints mean
// interchangeable plans. A nil cache (caching disabled) compiles every time.
func PlanFor[P CachedPlan](c *PlanCache, ctx context.Context, key string, compile func(context.Context) (P, error)) (P, error) {
	if c != nil {
		if v, ok := c.Get(key); ok {
			if p, ok := v.(P); ok {
				return p, nil
			}
			// A fingerprint can only collide across plan types if the hash
			// itself collides; recompile rather than misreplay.
		}
	}
	p, err := compile(ctx)
	if err != nil {
		var zero P
		return zero, err
	}
	if c != nil {
		c.Put(key, p)
	}
	return p, nil
}
