package main

import (
	"math/bits"
	"slices"
	"time"
)

// epoch anchors every timestamp the benchmark takes; nanos() is one
// monotonic clock read (runtime nanotime), cheap enough to bracket
// sampled operations.
var epoch = time.Now()

func nanos() int64 { return int64(time.Since(epoch)) }

// rng is splitmix64: allocation-free, seedable, and identical on every
// platform, so a seed fixes the generated inputs exactly.
type rng struct{ s uint64 }

func newRng(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// intn returns a uniform value in [0, n) by multiply-shift.
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// sampler is a preallocated latency sample buffer (nanoseconds). add
// never allocates; samples past the capacity are counted in dropped, so
// a mis-sized stride shows up instead of growing the heap mid-segment.
type sampler struct {
	ns      []uint32
	dropped int
}

func newSampler(capacity int) *sampler { return &sampler{ns: make([]uint32, 0, capacity)} }

func (s *sampler) add(ns int64) {
	if len(s.ns) == cap(s.ns) {
		s.dropped++
		return
	}
	if ns < 0 {
		ns = 0
	}
	if ns > 1<<32-2 { // 4.29 s; one below the maximum, so tickQuantile can search for v+1
		ns = 1<<32 - 2
	}
	s.ns = append(s.ns, uint32(ns))
}

func (s *sampler) reset() { s.ns, s.dropped = s.ns[:0], 0 }

// p50p99US sorts the samples in place and returns their median and 99th
// percentile in microseconds.
func p50p99US(ns []uint32) (p50, p99 float64) {
	slices.Sort(ns)
	return tickQuantile(ns, 0.50) / 1e3, tickQuantile(ns, 0.99) / 1e3
}

// tickQuantile is the q-quantile of sorted whole-nanosecond samples: the
// order statistic at rank q·n, interpolated inside its clock tick. The
// clock truncates, so the k samples that read v lie somewhere in
// [v, v+1) and are taken as evenly spread over it (the grouped-data
// quantile). Where samples rarely tie, as at the p99 of any workload,
// this is the plain order statistic to within 1 ns; on a 150 ns Get,
// where thousands of samples share a tick, it keeps the median from
// repeating to the digit and hiding drift below one tick.
func tickQuantile(sorted []uint32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	v := sorted[min(int(rank), n-1)]
	lo, _ := slices.BinarySearch(sorted, v)
	hi, _ := slices.BinarySearch(sorted, v+1) // v+1 cannot wrap: sampler.add clamps below the maximum
	return float64(v) + (rank-float64(lo))/float64(hi-lo)
}

// quantile returns the q-quantile of vs (linear interpolation) without
// disturbing the caller's order.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// goodQuartile is the quartile of vs on the better side: the median of
// the better half of the segments. Interference from the host's other
// tenants only ever slows a segment, and on the reference box it comes in
// stretches of seconds: map_inline_r90 flips between 4.6 and 3.4 Mops/s.
// The plain median of a 10 s run then reads whichever level held the
// majority, and jumps by 30 % from run to run; the better quartile stays
// on the undisturbed level as long as a quarter of the segments were
// undisturbed. It is not best-of: with 20 to 35 segments a run, five to
// nine of them reach or beat it.
func goodQuartile(vs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return quantile(vs, 0.75)
	}
	return quantile(vs, 0.25)
}

// iqrShare is the inter-quartile range of vs as a share of its median:
// the spread the comparison mode holds against a metric's bound.
func iqrShare(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	d := quantile(vs, 0.75) - quantile(vs, 0.25)
	if m < 0 {
		m = -m
	}
	return d / m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
