package sim

import "testing"

// The calendar queue's contract is byte-for-byte the heap's: identical
// push sequences must produce identical pop sequences. These tests drive
// both implementations with the same deterministic schedules — including
// the regimes where a calendar queue's bookkeeping can go wrong: dense
// same-timestamp bursts (append fast path + seq tie-breaks), far-future
// outliers (full-year scan misses → jumpToMin), and population swings
// across the grow/shrink thresholds.

// calRng is the tests' deterministic stream (same LCG as heap_test.go).
type calRng uint64

func (r *calRng) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r) >> 16
}

// crossCheck feeds the same push/pop schedule to a fresh heap and a fresh
// calendar and fails on the first divergence. Pushes respect the engine's
// invariant — never earlier than the last popped timestamp — because the
// calendar's forward scan is only exact under it.
func crossCheck(t *testing.T, seed uint64, rounds, pushes, pops int, spread func(r *calRng) Time) {
	t.Helper()
	h := newEventHeap()
	c := newCalendarQueue()
	rng := calRng(seed)
	var seq uint64
	var now Time
	for round := 0; round < rounds; round++ {
		for j := 0; j < pushes; j++ {
			seq++
			ev := event{at: now + spread(&rng), seq: seq}
			h.push(ev)
			c.push(ev)
		}
		for j := 0; j < pops && h.Len() > 0; j++ {
			want := h.pop()
			got := c.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("round %d pop %d: calendar returned (%v, %d), heap (%v, %d)",
					round, j, got.at, got.seq, want.at, want.seq)
			}
			now = want.at
		}
	}
	for h.Len() > 0 {
		want := h.pop()
		got := c.pop()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("drain: calendar returned (%v, %d), heap (%v, %d)",
				got.at, got.seq, want.at, want.seq)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("calendar not empty after drain: Len = %d", c.Len())
	}
}

func TestCalendarMatchesHeapDense(t *testing.T) {
	// Timestamps cluster in a handful of instants near now: the RPC hot
	// path's shape. Exercises the append fast path and seq tie-breaking.
	crossCheck(t, 1, 200, 41, 37, func(r *calRng) Time {
		return Time(r.next() % 8)
	})
}

func TestCalendarMatchesHeapMixedScales(t *testing.T) {
	// Delays spanning nine orders of magnitude: sub-width, multi-bucket,
	// and beyond-a-year offsets interleave, so pops alternate between the
	// in-window fast path and jumpToMin.
	crossCheck(t, 2, 150, 23, 19, func(r *calRng) Time {
		shift := r.next() % 30
		return Time(r.next() % (1 << shift))
	})
}

func TestCalendarMatchesHeapGrowShrink(t *testing.T) {
	// Population swings from 0 to ~4000 and back several times, crossing
	// the grow and shrink thresholds repeatedly mid-schedule.
	h := newEventHeap()
	c := newCalendarQueue()
	rng := calRng(3)
	var seq uint64
	var now Time
	for cycle := 0; cycle < 4; cycle++ {
		for j := 0; j < 4000; j++ {
			seq++
			ev := event{at: now + Time(rng.next()%100_000), seq: seq}
			h.push(ev)
			c.push(ev)
		}
		for h.Len() > 0 {
			want := h.pop()
			got := c.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("cycle %d: calendar returned (%v, %d), heap (%v, %d)",
					cycle, got.at, got.seq, want.at, want.seq)
			}
			now = want.at
		}
	}
}

func TestCalendarSparseFarFuture(t *testing.T) {
	// A lone far-future event (a fault timer years of widths away) must be
	// found by jumpToMin, and a nearer event pushed afterwards must still
	// pop first.
	c := newCalendarQueue()
	c.push(event{at: Time(1) << 40, seq: 1})
	c.push(event{at: 100, seq: 2})
	if ev := c.pop(); ev.seq != 2 {
		t.Fatalf("near event did not pop first: got seq %d", ev.seq)
	}
	if ev := c.pop(); ev.seq != 1 {
		t.Fatalf("far event lost: got seq %d", ev.seq)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after draining", c.Len())
	}
}
