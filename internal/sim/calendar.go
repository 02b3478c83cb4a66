package sim

import (
	"math/bits"
	"sort"
)

// event is a scheduled wake-up for a process (*Proc), a pending AfterFunc
// callback (*Timer), or an inline task callback (any other Tasker);
// the dispatch loop type-switches on who. One interface instead of three
// typed fields keeps the struct at 32 bytes with a single heap pointer,
// which matters in the queues: shifts and sift swaps copy events
// constantly, and both the bytes moved and the GC write-barrier work
// scale with the layout. seq breaks timestamp ties in schedule order,
// which keeps the simulation deterministic.
type event struct {
	at  Time
	seq uint64
	who any
}

// before reports whether event a dispatches before event b.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// calendarQueue is the engine's event queue, a Brown-style calendar queue: events hash into buckets
// by timestamp (one bucket spans `width` of simulated time; the bucket
// array wraps like the days of a year), each bucket stays sorted, and pop
// scans forward from the current bucket. With a width near the mean event
// spacing, push and pop are O(1) amortized — against the O(log n) heap
// this is what keeps per-event cost flat as runs grow to thousands of
// nodes and millions of queued events.
//
// Ordering contract: pop returns events in exactly (at, seq) order, the
// order a binary heap would produce. The scan is exhaustive over one full year
// before falling back to a global minimum search, and the year windows
// partition time precisely, so the first in-window head found is the
// global minimum (the calendar tests cross-check this against a d-ary heap
// oracle on randomized schedules). Bucket-count and width adaptation only move
// events between buckets; they can never reorder a pop.
type calendarQueue struct {
	buckets [][]event
	heads   []int // per-bucket index of the first pending event
	mask    int   // len(buckets)-1; bucket count is a power of two
	width   Time  // simulated time spanned by one bucket; a power of two
	shift   uint  // log2(width): bucketOf shifts instead of dividing
	n       int

	// cur/curTop are the scan cursor: bucket cur's current window is
	// [curTop-width, curTop). Every pending event's timestamp falls in the
	// current or a later window (pushes are never in the past), which is
	// what makes the forward scan exact.
	cur    int
	curTop Time

	// Occupancy thresholds triggering a resize.
	growAt, shrinkAt int
}

const (
	calMinBuckets = 64
	// calInitWidth only matters until the first resize samples the real
	// event spacing; microsecond-scale matches the simulator's NIC/disk
	// service times.
	calInitWidth = Time(4 * Microsecond)
	// calSample bounds the resize-time width estimation work.
	calSample = 256
)

func newCalendarQueue() *calendarQueue {
	q := &calendarQueue{}
	q.setWidth(calInitWidth)
	q.setSize(calMinBuckets)
	q.curTop = q.width
	return q
}

// setWidth rounds w up to a power of two and stores it with its log. The
// rounding costs nothing in calendar terms — any width is correct, and
// estimates are approximate anyway — and turns the per-event bucket
// computation from a 64-bit division into a shift.
func (q *calendarQueue) setWidth(w Time) {
	q.shift = uint(bits.Len64(uint64(w - 1)))
	q.width = 1 << q.shift
}

func (q *calendarQueue) Len() int { return q.n }

// due is O(1): an event at exactly `at` is the global minimum (nothing is
// ever pending in the past), so it must head its home bucket, whose
// sorted order puts it at heads[b].
func (q *calendarQueue) due(at Time) bool {
	b := q.bucketOf(at)
	h := q.heads[b]
	return h < len(q.buckets[b]) && q.buckets[b][h].at == at
}

func (q *calendarQueue) setSize(nb int) {
	q.buckets = make([][]event, nb)
	q.heads = make([]int, nb)
	q.mask = nb - 1
	q.growAt = 2 * nb
	q.shrinkAt = nb / 2
	if nb == calMinBuckets {
		q.shrinkAt = 0
	}
}

func (q *calendarQueue) bucketOf(at Time) int {
	return int(uint64(at)>>q.shift) & q.mask
}

func (q *calendarQueue) push(ev event) {
	if q.n >= q.growAt {
		q.resize(2 * len(q.buckets))
	}
	q.n++
	q.insert(ev)
}

func (q *calendarQueue) insert(ev event) {
	b := q.bucketOf(ev.at)
	bk := q.buckets[b]
	// Append fast path: in-order arrival within a bucket. Equal timestamps
	// always take it (seq grows monotonically), so bursts of same-instant
	// events — the common case on RPC hot paths — cost one append.
	if k := len(bk); k == q.heads[b] || !before(&ev, &bk[k-1]) {
		q.buckets[b] = append(bk, ev)
		return
	}
	lo, hi := q.heads[b], len(bk)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if before(&ev, &bk[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// Shift the shorter side. Out-of-order arrivals usually slot near the
	// front of a bucket dominated by a same-instant burst, and popped
	// events leave dead slots before heads[b] — shifting the short prefix
	// left into that space beats sliding the whole burst right.
	if h := q.heads[b]; h > 0 && lo-h < len(bk)-lo {
		copy(bk[h-1:], bk[h:lo])
		bk[lo-1] = ev
		q.heads[b] = h - 1
		return
	}
	bk = append(bk, event{})
	copy(bk[lo+1:], bk[lo:])
	bk[lo] = ev
	q.buckets[b] = bk
}

// pop removes and returns the minimum event. It must only be called when
// Len() > 0 (the engine's dispatch loop guarantees this).
func (q *calendarQueue) pop() event {
	for {
		i, top := q.cur, q.curTop
		for scanned := 0; scanned <= q.mask; scanned++ {
			if h := q.heads[i]; h < len(q.buckets[i]) {
				if ev := &q.buckets[i][h]; ev.at < top {
					q.cur, q.curTop = i, top
					return q.take(i)
				}
			}
			i++
			if i > q.mask {
				i = 0
			}
			top += q.width
		}
		// Nothing due within one full year (sparse queue, e.g. a lone
		// far-future fault timer): jump the cursor to the earliest event
		// and rescan. The rescan then hits it at offset zero.
		q.jumpToMin()
	}
}

func (q *calendarQueue) take(b int) event {
	h := q.heads[b]
	ev := q.buckets[b][h]
	q.buckets[b][h] = event{} // drop object references for the GC
	h++
	if h == len(q.buckets[b]) {
		q.buckets[b] = q.buckets[b][:0]
		h = 0
	}
	q.heads[b] = h
	q.n--
	if q.n < q.shrinkAt {
		q.resize(len(q.buckets) / 2)
	}
	return ev
}

// jumpToMin positions the cursor on the globally earliest pending event.
// O(buckets), but only reached when a full year scan found nothing — the
// queue is sparse relative to its width, so this amortizes away.
func (q *calendarQueue) jumpToMin() {
	var min *event
	minB := -1
	for b := range q.buckets {
		if h := q.heads[b]; h < len(q.buckets[b]) {
			if ev := &q.buckets[b][h]; min == nil || before(ev, min) {
				min, minB = ev, b
			}
		}
	}
	q.cur = minB
	q.curTop = (min.at/q.width + 1) * q.width
}

// resize rebuilds the calendar with a new bucket count and a width
// re-estimated from the current population, then repositions the cursor.
// Everything here is deterministic (bucket-order traversal, median of a
// stride sample), though it would be harmless if it were not: layout
// never influences pop order, only speed.
func (q *calendarQueue) resize(nb int) {
	old := q.buckets
	oldHeads := q.heads
	oldStart := q.curTop - q.width
	q.setWidth(q.estimateWidth())
	q.setSize(nb)
	for b, bk := range old {
		for i := oldHeads[b]; i < len(bk); i++ {
			q.insert(bk[i])
		}
	}
	// Re-anchor the cursor on the window containing the old window start.
	// NOT jumpToMin: the pending minimum can sit ahead of the engine clock,
	// and a later push between the clock and that minimum — perfectly legal
	// — would land behind a min-anchored cursor and pop out of order. The
	// old window start is ≤ the engine clock (pop keeps it that way), so
	// every pending event and every future push stays at or ahead of it.
	q.cur = q.bucketOf(oldStart)
	q.curTop = (oldStart/q.width + 1) * q.width
}

// estimateWidth returns a bucket width near 3× the median gap between
// pending event timestamps, from a stride sample (Brown's rule: a few
// events per bucket keeps both the insert sort and the pop scan O(1)).
func (q *calendarQueue) estimateWidth() Time {
	if q.n < 2 {
		return q.width
	}
	stride := q.n/calSample + 1
	sample := make([]Time, 0, calSample+1)
	idx := 0
	for b, bk := range q.buckets {
		for i := q.heads[b]; i < len(bk); i++ {
			if idx%stride == 0 {
				sample = append(sample, bk[i].at)
			}
			idx++
		}
	}
	if len(sample) < 2 {
		return q.width
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	gaps := make([]Time, 0, len(sample)-1)
	for i := 1; i < len(sample); i++ {
		if g := sample[i] - sample[i-1]; g > 0 {
			gaps = append(gaps, g)
		}
	}
	if len(gaps) == 0 {
		return q.width // all sampled events simultaneous: keep the width
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	w := 3 * gaps[len(gaps)/2]
	// Same-instant bursts (RPC hot paths) hide behind the positive-gap
	// median: thousands of simultaneous events contribute no gap, so the
	// median overestimates true spacing and buckets overfill, turning the
	// sorted insert into a linear shift. The population-average gap
	// (span/n) counts every event; take the narrower estimate. The median
	// still protects against the opposite failure, a lone far-future
	// outlier stretching the span.
	if span := sample[len(sample)-1] - sample[0]; span > 0 {
		if avg := 3 * span / Time(q.n-1); avg < w {
			w = avg
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}
