package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
)

const mib = 1 << 20

// ratio is a/b, or 0 when b is 0 (JSON has no NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs (mean of the middle two for even lengths); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank p-th percentile of sorted samples.
func quantile(sorted []int64, p int) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := (p*n + 99) / 100 // ceil(p·n/100)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []int{99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tail picks the highest candidate percentile of sorted samples that has
// at least minBeyond samples beyond it and returns it with its value; with
// too few samples for any candidate it reports the maximum as pct 100.
func tail(sorted []int64) (pct int, v int64) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		if n-(p*n+99)/100 >= minBeyond {
			return p, quantile(sorted, p)
		}
	}
	if n == 0 {
		return 100, 0
	}
	return 100, sorted[n-1]
}

// ledger holds a round's or a cycle's layer counters: additive entries sum
// across rounds, max entries keep the largest.
type ledger struct {
	sums, maxes map[string]float64
}

func (l *ledger) add(name string, v float64) {
	if l.sums == nil {
		l.sums = make(map[string]float64)
	}
	l.sums[name] += v
}

func (l *ledger) max(name string, v float64) {
	if l.maxes == nil {
		l.maxes = make(map[string]float64)
	}
	if cur, ok := l.maxes[name]; !ok || v > cur {
		l.maxes[name] = v
	}
}

func (l *ledger) merge(o ledger) {
	for k, v := range o.sums {
		l.add(k, v)
	}
	for k, v := range o.maxes {
		l.max(k, v)
	}
}

// get returns an entry whichever way it was recorded.
func (l *ledger) get(name string) float64 {
	if v, ok := l.maxes[name]; ok {
		return v
	}
	return l.sums[name]
}

// digest folds simulation outputs into one 64-bit value.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) word(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= 1099511628211
		v >>= 8
	}
}

func (d *digest) int(v int64) { d.word(uint64(v)) }

func (d *digest) ints(vs []int64) {
	for _, v := range vs {
		d.word(uint64(v))
	}
}

// gcDelta is the Go runtime's allocation and GC activity over an interval.
type gcDelta struct {
	allocBytes, allocs, cycles uint64
	gcCPU, totalCPU            float64
}

var gcSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGC() gcDelta {
	s := make([]metrics.Sample, len(gcSamples))
	for i, name := range gcSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return gcDelta{
		allocBytes: s[0].Value.Uint64(),
		allocs:     s[1].Value.Uint64(),
		cycles:     s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

func (g gcDelta) sub(o gcDelta) gcDelta {
	return gcDelta{
		allocBytes: g.allocBytes - o.allocBytes,
		allocs:     g.allocs - o.allocs,
		cycles:     g.cycles - o.cycles,
		gcCPU:      g.gcCPU - o.gcCPU,
		totalCPU:   g.totalCPU - o.totalCPU,
	}
}

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
