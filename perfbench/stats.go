package main

import (
	"math"
	"math/bits"
	"slices"
	"time"
)

// hist is a fixed-size latency histogram: 16 ns buckets below 4096 ns
// and 256 log-linear sub-buckets per power of two above, so a quantile
// is exact to 16 ns, or to 0.4% for slower operations. Recording never
// allocates, and one histogram is 30 KB whatever the run length; a run
// keeps at most a dozen of them.
type hist struct {
	counts []uint32
	n      int64
}

const (
	histLinShift = 4
	histSubBits  = 8
	histMinExp   = histLinShift + histSubBits // 2^12 ns: where 16 ns is 1/256 of the value
	histLinSlots = 1 << histSubBits
	histMaxExp   = 40 // values at or above 2^41 ns land in the last bucket
)

func newHist() *hist {
	return &hist{counts: make([]uint32, histLinSlots+(histMaxExp-histMinExp+1)<<histSubBits)}
}

func (h *hist) add(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	var idx int
	if ns < 1<<histMinExp {
		idx = int(ns >> histLinShift)
	} else {
		e := bits.Len64(uint64(ns)) - 1
		if e > histMaxExp {
			e, ns = histMaxExp, 1<<(histMaxExp+1)-1
		}
		sub := int(ns>>(e-histSubBits)) & (1<<histSubBits - 1)
		idx = histLinSlots + (e-histMinExp)<<histSubBits + sub
	}
	h.counts[idx]++
	h.n++
}

// reset empties the histogram for reuse.
func (h *hist) reset() {
	clear(h.counts)
	h.n = 0
}

// mid returns the midpoint of bucket idx in nanoseconds.
func (h *hist) mid(idx int) float64 {
	if idx < histLinSlots {
		return float64(idx<<histLinShift) + 1<<(histLinShift-1)
	}
	idx -= histLinSlots
	e := histMinExp + idx>>histSubBits
	sub := idx & (1<<histSubBits - 1)
	width := math.Ldexp(1, e-histSubBits)
	return math.Ldexp(1, e) + float64(sub)*width + width/2
}

// quantile returns the q-quantile in nanoseconds: the value of the
// ceil(q*n)-th smallest sample.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += int64(c)
		if seen >= rank {
			return h.mid(i)
		}
	}
	return h.mid(len(h.counts) - 1)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.n += o.n
}

// tail picks the highest of p90, p99, p99.9, ... that still has at
// least ten samples beyond it. ok is false below forty samples, where
// no percentile is a tail.
func (h *hist) tail() (p float64, ns float64, ok bool) {
	p = 0.9
	if h.n < 40 || float64(h.n)*(1-p) < 10 {
		return 0, 0, false
	}
	for next := 1 - (1-p)/10; float64(h.n)*(1-next) >= 10; next = 1 - (1-next)/10 {
		p = next
	}
	return p, h.quantile(p), true
}

// windows counts completed operations per fixed wall-clock window of
// the measured interval. Throughput is reported as the median window,
// so a burst of hypervisor steal moves a few windows, not the figure.
type windows struct {
	start  time.Time
	width  time.Duration
	counts []int32
}

const windowWidth = 200 * time.Millisecond

func newWindows(start time.Time, seconds int) *windows {
	n := int(time.Duration(seconds)*time.Second/windowWidth) + 1
	return &windows{start: start, width: windowWidth, counts: make([]int32, n)}
}

func (w *windows) add(t time.Time) {
	if i := int(t.Sub(w.start) / w.width); i >= 0 && i < len(w.counts) {
		w.counts[i]++
	}
}

func (w *windows) merge(o *windows) {
	for i, c := range o.counts {
		w.counts[i] += c
	}
}

// medianRate is the median over the windows that closed before end of
// operations per second.
func (w *windows) medianRate(end time.Time) float64 {
	full := int(end.Sub(w.start) / w.width)
	full = min(full, len(w.counts))
	if full == 0 {
		return 0
	}
	rates := make([]float64, full)
	for i := range rates {
		rates[i] = float64(w.counts[i]) / w.width.Seconds()
	}
	return median(rates)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartiles by the same rule as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// the spreads printed here are the ones a reader recomputes from the
// raw figures.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
