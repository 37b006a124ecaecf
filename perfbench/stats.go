package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks, or 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailPercentile picks the highest of the usual reporting percentiles
// that still has at least ten samples above it; ok is false when even
// the median has fewer (n < 20), in which case only the median and the
// sample count are meaningful.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{99.9, 99, 90, 50} {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// summary renders a timing sample as its median, its highest
// well-supported percentile, and its sample count.
func summary(xs []float64, scale float64, unit string) string {
	out := fmt.Sprintf("p50 %.4g %s", median(xs)*scale, unit)
	if p, ok := tailPercentile(len(xs)); ok && p > 50 {
		out += fmt.Sprintf(", p%g %.4g %s", p, percentile(xs, p)*scale, unit)
	}
	return out + fmt.Sprintf(" (n=%d)", len(xs))
}

// scale multiplies every value of xs by k.
func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// samples lists a small sample's values in the order taken.
func samples(xs []float64) string {
	if len(xs) > 12 {
		return ""
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// sorted returns the finite values of xs in ascending order (NaN marks
// an undefined sample and is dropped).
func sorted(xs []float64) []float64 {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// ratioDeltas turns cumulative counter readings taken at cycle
// boundaries into per-cycle ratios: out[i] = Δnum / Δden between
// reading i and i+1. A cycle whose denominator did not move has no
// defined ratio and reads NaN (median skips it).
func ratioDeltas(num, den []float64) []float64 {
	n := len(num)
	if len(den) < n {
		n = len(den)
	}
	if n < 2 {
		return nil
	}
	out := make([]float64, n-1)
	for i := 1; i < n; i++ {
		dd := den[i] - den[i-1]
		if dd == 0 {
			out[i-1] = math.NaN()
			continue
		}
		out[i-1] = (num[i] - num[i-1]) / dd
	}
	return out
}

// ratio returns num/den, or NaN (an undefined sample) when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// Span is one traced call (or run of calls) at a layer boundary. Times
// are nanoseconds since the tracer's epoch on the host monotonic clock.
//
// An aggregate span (Agg) stands for Calls sequential calls of one
// layer made from one caller between Start (first call) and End (last
// call); Busy is the time spent inside those calls, and only Busy — not
// End-Start — counts as covered time of its parent. For every other
// span Busy equals End-Start.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Cycle  int    `json:"cycle"`
	Lane   int    `json:"lane"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls"`
	Busy   int64  `json:"busy_ns"`
	Agg    bool   `json:"agg,omitempty"`
	Self   int64  `json:"self_ns"`
}

// Dur returns the span's wall duration.
func (s Span) Dur() int64 { return s.End - s.Start }

// selfTimes fills each span's Self: its duration (an aggregate's Busy)
// minus the part of its interval its children cover. Interval children cover the union of
// their intervals (parallel children overlap); aggregate children cover
// their Busy time. It fails when a child starts before or ends after its
// parent, or when the children cover more than the parent's duration —
// either means a span was attributed to the wrong parent.
func selfTimes(spans []Span) error {
	idx := make(map[int64]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	kids := make(map[int64][]int)
	for i, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := idx[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s): parent %d not recorded", s.ID, s.Name, s.Parent)
		}
		ps := spans[p]
		if s.Start < ps.Start || s.End > ps.End || s.End < s.Start {
			return fmt.Errorf("span %s [%d,%d] exceeds its parent %s [%d,%d]",
				s.Name, s.Start, s.End, ps.Name, ps.Start, ps.End)
		}
		kids[s.Parent] = append(kids[s.Parent], i)
	}
	for i := range spans {
		s := &spans[i]
		var covered int64
		var iv [][2]int64
		for _, k := range kids[s.ID] {
			c := spans[k]
			if c.Agg {
				covered += c.Busy
				continue
			}
			iv = append(iv, [2]int64{c.Start, c.End})
		}
		covered += unionLen(iv)
		own := s.Dur()
		if s.Agg {
			own = s.Busy
		}
		if covered > own {
			return fmt.Errorf("children of span %s cover %d ns of its %d ns", s.Name, covered, own)
		}
		s.Self = own - covered
	}
	return nil
}

// unionLen returns the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}
