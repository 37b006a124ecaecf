package main

import (
	"math"
	"strings"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	cases := []struct {
		xs     []float64
		median float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1}, 2.5},
		{[]float64{5, 1, 3}, 3},
		{[]float64{math.NaN(), 2, 4}, 3},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.median {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.median)
		}
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.5, 99.5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(0..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		ok   bool
		line string
	}{
		{5, 0, false, "p50 3 s (n=5)"},
		{19, 0, false, "(n=19)"},
		{20, 50, true, "(n=20)"},
		{100, 90, true, "p90"},
		{1000, 99, true, "p99 "},
		{10000, 99.9, true, "p99.9"},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v,%v, want %v,%v", c.n, p, ok, c.p, c.ok)
		}
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		if got := summary(xs, 1, "s"); !strings.Contains(got, c.line) {
			t.Errorf("summary of %d samples = %q, want it to contain %q", c.n, got, c.line)
		}
	}
}

func TestRatioDeltas(t *testing.T) {
	// Cumulative kept/calls readings at four cycle boundaries: the
	// per-cycle ratios come from the deltas, not the running totals.
	kept := []float64{0, 90, 90, 130}
	calls := []float64{0, 100, 100, 200}
	got := ratioDeltas(kept, calls)
	if len(got) != 3 || got[0] != 0.9 || !math.IsNaN(got[1]) || got[2] != 0.4 {
		t.Fatalf("ratioDeltas = %v, want [0.9 NaN 0.4]", got)
	}
	if m := median(got); m != 0.65 {
		t.Errorf("median of per-cycle ratios = %v, want 0.65 (the idle cycle has no ratio)", m)
	}
	if ratioDeltas([]float64{1}, []float64{1}) != nil {
		t.Error("one reading has no deltas")
	}
	if r := ratio(3, 4); r != 0.75 {
		t.Errorf("ratio(3,4) = %v", r)
	}
	if !math.IsNaN(ratio(1, 0)) {
		t.Error("ratio with zero denominator must be NaN")
	}
}

func span(id, parent int64, name string, start, end int64) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end, Calls: 1, Busy: end - start}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []Span{
		span(1, 0, "cycle", 0, 100),
		span(2, 1, "decide", 10, 60),
		// Two shards of the decide phase running in parallel: they overlap,
		// so they cover the union of their intervals (20..50), not the sum.
		span(3, 2, "shard0", 20, 40),
		span(4, 2, "shard1", 30, 50),
		// Runner calls interleaved with scheduler work: the aggregate's
		// first-to-last interval is 60..95, but only Busy counts.
		{ID: 5, Parent: 1, Name: "runner", Start: 60, End: 95, Calls: 7, Busy: 14, Agg: true},
	}
	if err := selfTimes(spans); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"cycle": 100 - 50 - 14, "decide": 50 - 30, "shard0": 20, "shard1": 20, "runner": 14}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("self(%s) = %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestSelfTimesRejectsChildOutsideParent(t *testing.T) {
	for _, spans := range [][]Span{
		{span(1, 0, "p", 10, 20), span(2, 1, "c", 5, 15)},
		{span(1, 0, "p", 10, 20), span(2, 1, "c", 15, 25)},
		{span(1, 0, "p", 10, 20), {ID: 2, Parent: 1, Name: "agg", Start: 10, End: 20, Busy: 11, Agg: true}},
		{span(2, 1, "orphan", 0, 1)},
	} {
		if err := selfTimes(spans); err == nil {
			t.Errorf("selfTimes(%+v) accepted an inconsistent trace", spans)
		}
	}
}

func TestUnionLen(t *testing.T) {
	if got := unionLen([][2]int64{{5, 10}, {0, 3}, {2, 4}, {10, 12}}); got != 4+7 {
		t.Errorf("unionLen = %d, want 11", got)
	}
	if unionLen(nil) != 0 {
		t.Error("empty union must be 0")
	}
}

func TestTracerPhasesAndCounters(t *testing.T) {
	tr := newTracer(1)
	o := tr.begin("decide")
	tr.call(0, "core.observe", 10, 11)
	tr.call(0, "core.observe", 12, 13)
	tr.call(0, "core.filter", 14, 15)
	tr.call(0, "core.observe", 16, 17)
	tr.agg("fleet.runner", 18, 19)
	tr.agg("fleet.runner", 20, 22)
	tr.end(o)
	byName := map[string][]Span{}
	for _, s := range tr.spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if obs := byName["core.observe"]; len(obs) != 2 || obs[0].Calls != 2 || obs[0].Start != 10 || obs[0].End != 13 {
		t.Errorf("observe phases = %+v, want a 2-call phase 10..13 then a new phase after the filter call", obs)
	}
	if r := byName["fleet.runner"]; len(r) != 1 || r[0].Calls != 2 || r[0].Busy != 3 || r[0].Start != 18 || r[0].End != 22 {
		t.Errorf("runner aggregate = %+v", r)
	}
	d := byName["decide"][0]
	for _, s := range tr.spans {
		if s.Name != "decide" && s.Parent != d.ID {
			t.Errorf("%s parent = %d, want the open decide span %d", s.Name, s.Parent, d.ID)
		}
	}
	if tr.cur.Load() != 0 {
		t.Error("closing the outermost span must clear the current parent")
	}
}
