package cache

import (
	"bytes"
	"testing"
)

func newTestCache(budget int64, incFn func() uint64) *ServerCache {
	pol, _ := NewPolicy("lru", budget)
	return newServerCache(0, budget, budget/2, pol, incFn, nil)
}

func TestCacheGetReturnsCopyOfCoveredRange(t *testing.T) {
	c := newTestCache(1024, nil)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	c.Put("f", 3, 0, data)
	data[0] = 99 // the cache must have copied

	got, ok := c.Get("f", 3, 0, 8)
	if !ok {
		t.Fatal("whole-range lookup missed")
	}
	if got[0] != 1 {
		t.Error("cache aliased the caller's buffer")
	}
	got[7] = 42 // the returned copy must not alias the cache
	again, _ := c.Get("f", 3, 6, 8)
	if again[1] != 8 {
		t.Error("returned buffer aliased the cached bytes")
	}
	if sub, ok := c.Get("f", 3, 2, 5); !ok || !bytes.Equal(sub, []byte{3, 4, 5}) {
		t.Errorf("sub-range = %v, %v", sub, ok)
	}
}

func TestCacheGetMissesOutsideResidentRange(t *testing.T) {
	c := newTestCache(1024, nil)
	c.Put("f", 3, 16, []byte{1, 2, 3, 4}) // covers [16, 20)
	if _, ok := c.Get("f", 3, 0, 4); ok {
		t.Error("hit below the resident range")
	}
	if _, ok := c.Get("f", 3, 18, 24); ok {
		t.Error("hit past the resident range")
	}
	if _, ok := c.Get("f", 4, 16, 20); ok {
		t.Error("hit on a different strip")
	}
	if got, ok := c.Get("f", 3, 16, 20); !ok || !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Errorf("covered range = %v, %v", got, ok)
	}
}

func TestCacheEvictsWithinBudget(t *testing.T) {
	c := newTestCache(32, nil)
	buf := make([]byte, 16)
	c.Put("f", 1, 0, buf)
	c.Put("f", 2, 0, buf)
	c.Put("f", 3, 0, buf) // evicts f/1 (LRU)
	if c.UsedBytes() != 32 {
		t.Fatalf("used %d, want 32", c.UsedBytes())
	}
	if c.Holds("f", 1) {
		t.Error("LRU entry survived over-budget insert")
	}
	if !c.Holds("f", 2) || !c.Holds("f", 3) {
		t.Error("recent entries evicted")
	}
	if s := c.Snapshot(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	// An entry larger than the whole budget is not admitted.
	c.Put("f", 9, 0, make([]byte, 64))
	if c.Holds("f", 9) {
		t.Error("oversize entry admitted")
	}
}

func TestCachePinnedEntriesSurviveEviction(t *testing.T) {
	c := newTestCache(32, nil)
	buf := make([]byte, 16)
	c.Put("f", 1, 0, buf)
	if !c.Pin("f", 1) {
		t.Fatal("pin failed")
	}
	c.Put("f", 2, 0, buf)
	c.Put("f", 3, 0, buf) // must evict f/2, not pinned f/1
	if !c.Holds("f", 1) {
		t.Error("pinned entry evicted")
	}
	if c.Holds("f", 2) {
		t.Error("unpinned entry survived over the pinned one")
	}
	// The pinned-byte cap (budget/2 = 16) rejects a second pin.
	if c.Pin("f", 3) {
		t.Error("pin accepted past the pinned-byte cap")
	}
	if !c.Unpin("f", 1) {
		t.Error("unpin failed")
	}
	if !c.Pin("f", 3) {
		t.Error("pin rejected after cap freed")
	}
}

func TestCacheInvalidation(t *testing.T) {
	c := newTestCache(1024, nil)
	c.Put("f", 1, 0, []byte{1})
	c.Put("f", 2, 0, []byte{2})
	c.Put("g", 1, 0, []byte{3})
	c.Invalidate("f", 1)
	if c.Holds("f", 1) {
		t.Error("invalidated strip still resident")
	}
	c.InvalidateFile("f")
	if c.Holds("f", 2) {
		t.Error("file invalidation missed a strip")
	}
	if !c.Holds("g", 1) {
		t.Error("file invalidation hit another file")
	}
	if s := c.Snapshot(); s.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2", s.Invalidations)
	}
}

func TestCacheIncarnationBumpPurges(t *testing.T) {
	inc := uint64(1)
	c := newTestCache(1024, func() uint64 { return inc })
	c.Put("f", 1, 0, []byte{1, 2, 3})
	c.Pin("f", 1)
	inc = 2 // the server restarted: memory is gone
	if _, ok := c.Get("f", 1, 0, 3); ok {
		t.Error("cache survived a restart")
	}
	if c.UsedBytes() != 0 {
		t.Errorf("used %d after purge", c.UsedBytes())
	}
	s := c.Snapshot()
	if s.RestartPurges != 1 {
		t.Errorf("restart purges = %d, want 1", s.RestartPurges)
	}
	if s.PinnedBytes != 0 {
		t.Errorf("pinned bytes %d after purge", s.PinnedBytes)
	}
	// The cache works again at the new incarnation.
	c.Put("f", 1, 0, []byte{9})
	if !c.Holds("f", 1) {
		t.Error("cache dead after purge")
	}
}

func TestCachePutKeepsWiderRange(t *testing.T) {
	c := newTestCache(1024, nil)
	c.Put("f", 1, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	c.Put("f", 1, 2, []byte{9, 9}) // narrower: ignored
	if got, ok := c.Get("f", 1, 0, 8); !ok || got[2] != 3 {
		t.Errorf("narrow re-put replaced wider entry: %v, %v", got, ok)
	}
	c.Put("f", 1, 0, make([]byte, 16)) // wider: replaces
	if _, ok := c.Get("f", 1, 0, 16); !ok {
		t.Error("wider re-put not admitted")
	}
}

func TestCacheRecordMissCountsBytes(t *testing.T) {
	c := newTestCache(1024, nil)
	c.RecordMiss(64)
	c.RecordMiss(64)
	s := c.Snapshot()
	if s.Misses != 2 || s.MissBytes != 128 {
		t.Errorf("misses = %d / %d bytes", s.Misses, s.MissBytes)
	}
}
