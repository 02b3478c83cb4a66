// Package cache implements the adaptive halo-strip cache subsystem: a
// bounded, byte-budgeted cache per storage server holding copies of the
// *remote* strips the server fetched to satisfy dependence halos during
// offloaded execution, plus a cluster-wide manager (manager.go) that
// tracks per-file heat and runs the pin/unpin passes.
//
// The paper's improved distribution (Eqs. 14–17) fixes group size r and
// the boundary replicas at file-creation time; a workload whose hotspot
// drifts still pays remote fetches for dependent strips — the
// server↔server traffic Fig. 6 shows killing NAS. The cache absorbs that
// traffic after the first pass, and the p99 controller (internal/control,
// after DynamicCache's shard manager, recast onto strips) drives the
// manager's passes that turn the hottest cached boundary strips into
// pinned replicas on the dependent server.
//
// Correctness rules:
//
//   - Entries are copies; the cache never aliases pfs buffers. Get
//     returns a pool-backed copy the consumer releases as usual.
//   - A write to a strip invalidates every cached copy of it cluster-wide
//     (the pfs write path calls Manager.InvalidateStrip from storePut).
//   - A server restart purges its cache: caches are memory, and the fault
//     layer's incarnation counters make the purge lazy and deterministic —
//     the first access after a bump drops everything.
//   - All state is engine-goroutine state keyed and ordered by lists, not
//     map iteration, and all timestamps are DES times: two identical runs
//     produce identical stats and identical victims.
package cache

import (
	"fmt"
	"sort"

	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
)

// Key addresses one cached strip of one file.
type Key struct {
	File  string
	Strip int64
}

// entry is one resident strip range: bytes [Lo, Hi) of the strip,
// relative to the strip's start.
type entry struct {
	data     []byte
	lo, hi   int64
	pinned   bool
	winHits  int64 // hits since the last window reset
	winFetch int64 // remote fetches that (re)admitted it this window
	hits     int64 // lifetime hits
}

// Stats is a point-in-time snapshot of one server cache.
type Stats struct {
	Server        int     `json:"server"`
	Entries       int     `json:"entries"`
	UsedBytes     int64   `json:"used_bytes"`
	PinnedEntries int     `json:"pinned_entries"`
	PinnedBytes   int64   `json:"pinned_bytes"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	HitBytes      int64   `json:"hit_bytes"`
	MissBytes     int64   `json:"miss_bytes"`
	Evictions     int64   `json:"evictions"`
	Invalidations int64   `json:"invalidations"`
	RestartPurges int64   `json:"restart_purges"`
	Promotions    int64   `json:"promotions"`
	Demotions     int64   `json:"demotions"`
	HitRate       float64 `json:"hit_rate"`
}

// ServerCache is the bounded halo-strip cache of one storage server. It
// is engine-goroutine state: no locks, no wall clock, no map-order
// iteration on any decision path.
type ServerCache struct {
	srv    int
	budget int64
	pol    Policy
	// maxPinned caps pinned bytes so the tuning loop cannot starve the
	// adaptive part of the cache.
	maxPinned int64

	entries map[Key]*entry
	used    int64
	pinned  int64

	// incarnation gate: incFn reports the server's current incarnation;
	// a change since the last access means the server restarted and its
	// cache memory is gone.
	incFn func() uint64
	inc   uint64

	// local counters (the cluster-wide metrics.Cache aggregates across
	// servers; these feed per-server reports and the manager's sampling).
	stats Stats
	agg   *metrics.Cache

	// winHits counts hits since the controller's last window reset.
	winHits int64
}

// newServerCache builds one server's cache. agg may be nil.
func newServerCache(srv int, budget, maxPinned int64, pol Policy, incFn func() uint64, agg *metrics.Cache) *ServerCache {
	if incFn == nil {
		incFn = func() uint64 { return 0 }
	}
	if agg == nil {
		agg = metrics.NewCache()
	}
	c := &ServerCache{
		srv:       srv,
		budget:    budget,
		maxPinned: maxPinned,
		pol:       pol,
		entries:   make(map[Key]*entry),
		incFn:     incFn,
		agg:       agg,
	}
	c.stats.Server = srv
	c.inc = incFn()
	return c
}

// checkIncarnation lazily purges the cache when the server restarted
// since the last access: cache memory does not survive a crash, even
// though the simulated disk does.
func (c *ServerCache) checkIncarnation() {
	cur := c.incFn()
	if cur == c.inc {
		return
	}
	c.inc = cur
	// The pre-restart hit window died with the server's memory: discard
	// it outright so pre-crash hits never read as a post-restart signal.
	c.winHits = 0
	if len(c.entries) == 0 {
		return
	}
	for k, e := range c.entries {
		c.pol.Remove(k)
		c.release(e)
		delete(c.entries, k)
	}
	c.used, c.pinned = 0, 0
	c.stats.RestartPurges++
	c.agg.AddRestartPurge()
}

// Get looks up bytes [lo, hi) of a strip (relative to the strip start)
// and, on a hit, returns a pool-backed copy the caller releases with
// pfs.ReleaseBuffer. A resident entry only hits when it covers the whole
// requested range.
func (c *ServerCache) Get(file string, strip, lo, hi int64) ([]byte, bool) {
	c.checkIncarnation()
	k := Key{File: file, Strip: strip}
	e, ok := c.entries[k]
	if !ok || lo < e.lo || hi > e.hi {
		return nil, false
	}
	out := pfs.AcquireBuffer(hi - lo)
	copy(out, e.data[lo-e.lo:hi-e.lo])
	e.winHits++
	e.hits++
	c.winHits++
	c.pol.Touch(k)
	c.stats.Hits++
	c.stats.HitBytes += hi - lo
	c.agg.AddHit(hi - lo)
	//das:transfer -- hit copies leave with the caller, who releases them like a fetched strip
	return out, true
}

// RecordMiss accounts a lookup the cache could not serve; bytes is what
// the remote fetch moved.
func (c *ServerCache) RecordMiss(bytes int64) {
	c.checkIncarnation()
	c.stats.Misses++
	c.stats.MissBytes += bytes
	c.agg.AddMiss(bytes)
}

// Put admits a copy of bytes [lo, hi) of a strip (relative to the strip
// start). The cache copies data; the caller keeps ownership of its slice.
// Entries larger than the budget are not admitted. An existing entry for
// the key is replaced only when the new range covers more bytes.
func (c *ServerCache) Put(file string, strip, lo int64, data []byte) {
	c.checkIncarnation()
	size := int64(len(data))
	if size == 0 || size > c.budget {
		return
	}
	k := Key{File: file, Strip: strip}
	if old, ok := c.entries[k]; ok {
		if size <= old.hi-old.lo {
			return // resident range already covers at least as much
		}
		c.removeEntry(k, old, false)
	}
	for c.used+size > c.budget {
		vk, ok := c.pol.Victim(func(k Key) bool { return !c.entries[k].pinned })
		if !ok {
			return // everything evictable is pinned; do not admit
		}
		ve := c.entries[vk]
		c.removeEntry(vk, ve, true)
		c.stats.Evictions++
		c.agg.AddEviction(ve.hi - ve.lo)
	}
	cp := make([]byte, size)
	copy(cp, data)
	c.entries[k] = &entry{data: cp, lo: lo, hi: lo + size, winFetch: 1}
	c.used += size
	c.pol.Insert(k, size)
	c.agg.AddInsert(size)
}

// removeEntry drops a resident entry. evicted selects the policy's
// ghost-remembering path (ARC) over plain removal.
func (c *ServerCache) removeEntry(k Key, e *entry, evicted bool) {
	if ge, ok := c.pol.(ghostEvicter); ok && evicted {
		ge.Evicted(k)
	} else {
		c.pol.Remove(k)
	}
	c.release(e)
	delete(c.entries, k)
}

func (c *ServerCache) release(e *entry) {
	c.used -= e.hi - e.lo
	if e.pinned {
		c.pinned -= e.hi - e.lo
	}
	e.data = nil
}

// Invalidate drops any cached copy of a strip (its data changed).
func (c *ServerCache) Invalidate(file string, strip int64) {
	c.checkIncarnation()
	k := Key{File: file, Strip: strip}
	if e, ok := c.entries[k]; ok {
		c.removeEntry(k, e, false)
		c.stats.Invalidations++
		c.agg.AddInvalidation()
	}
}

// InvalidateFile drops every cached strip of a file (file deleted or
// migrated). Keys are collected and sorted before removal so the policy
// sees a deterministic order.
func (c *ServerCache) InvalidateFile(file string) {
	c.checkIncarnation()
	var keys []Key
	for k := range c.entries {
		if k.File == file {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Strip < keys[j].Strip })
	for _, k := range keys {
		c.removeEntry(k, c.entries[k], false)
		c.stats.Invalidations++
		c.agg.AddInvalidation()
	}
}

// Pin protects a resident strip from eviction — the "pinned replica on
// the dependent server" the tuning loop promotes hot boundary strips to.
// It reports whether the strip was resident and is now pinned.
func (c *ServerCache) Pin(file string, strip int64) bool {
	c.checkIncarnation()
	e, ok := c.entries[Key{File: file, Strip: strip}]
	if !ok {
		return false
	}
	if e.pinned {
		return true
	}
	size := e.hi - e.lo
	if c.pinned+size > c.maxPinned {
		return false
	}
	e.pinned = true
	c.pinned += size
	c.stats.Promotions++
	c.agg.AddPromotion()
	return true
}

// Unpin releases a pinned strip back to the eviction policy.
func (c *ServerCache) Unpin(file string, strip int64) bool {
	c.checkIncarnation()
	e, ok := c.entries[Key{File: file, Strip: strip}]
	if !ok || !e.pinned {
		return false
	}
	e.pinned = false
	c.pinned -= e.hi - e.lo
	c.stats.Demotions++
	c.agg.AddDemotion()
	return true
}

// Pinned reports whether a resident strip is pinned.
func (c *ServerCache) Pinned(file string, strip int64) bool {
	e, ok := c.entries[Key{File: file, Strip: strip}]
	return ok && e.pinned
}

// Holds reports whether the cache currently covers any bytes of a strip.
func (c *ServerCache) Holds(file string, strip int64) bool {
	c.checkIncarnation()
	_, ok := c.entries[Key{File: file, Strip: strip}]
	return ok
}

// UsedBytes returns the resident byte total.
func (c *ServerCache) UsedBytes() int64 { return c.used }

// Snapshot returns the server's current statistics.
func (c *ServerCache) Snapshot() Stats {
	s := c.stats
	s.Entries = len(c.entries)
	s.UsedBytes = c.used
	s.PinnedBytes = c.pinned
	for _, e := range c.entries {
		if e.pinned {
			s.PinnedEntries++
		}
	}
	if s.Hits+s.Misses > 0 {
		s.HitRate = float64(s.Hits) / float64(s.Hits+s.Misses)
	}
	return s
}

// String renders a one-line summary for reports.
func (s Stats) String() string {
	return fmt.Sprintf("server %d: %d entries (%d pinned), %s used, hits=%d misses=%d (%.0f%%), evict=%d inval=%d purge=%d promo=%d demo=%d",
		s.Server, s.Entries, s.PinnedEntries, metrics.FormatBytes(s.UsedBytes),
		s.Hits, s.Misses, 100*s.HitRate, s.Evictions, s.Invalidations, s.RestartPurges, s.Promotions, s.Demotions)
}
