package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"autocomp/internal/compaction"
	"autocomp/internal/core"
)

// tracer records spans around the calls the benchmark makes into each
// layer and around the calls the pipeline makes through the interfaces
// held in core.Config. Spans live in memory until the run ends.
//
// Interval spans (begin/end) are opened and closed on the goroutine
// driving the cycle and nest: each becomes the parent of whatever is
// recorded while it is open. Calls the pipeline makes once per
// candidate (filters, observer, traits) are run-length encoded per
// lane: consecutive calls of one layer on one lane form a single phase
// span from the first call's start to the last call's end. A lane is a
// decide shard — the sharded decide plane works each shard on one
// goroutine at a time — or lane 0 when decide is serial. Runner calls
// interleave with scheduler work, so they fold into one aggregate span
// per parent whose Busy is the time spent inside them.
type tracer struct {
	epoch  time.Time
	shards int
	lanes  []lane
	// cur is the innermost open interval span: written by the driving
	// goroutine only, read by the pipeline's worker goroutines.
	cur    atomic.Int64
	nextID atomic.Int64
	cycle  int

	generated atomic.Int64
	selected  atomic.Int64
	// decideAlloc holds the bytes each cycle's decide phase allocated,
	// keyed by cycle (written on the driving goroutine only).
	decideAlloc map[int]float64

	mu    sync.Mutex
	spans []Span
	aggs  map[aggKey]*Span
}

// lane is one decide shard's phase state and per-candidate counters.
// Only the goroutine currently working the shard touches it.
type lane struct {
	open                     bool
	ph                       Span
	filterCalls, filterKept  int64
	observeCalls, traitCalls int64
}

type aggKey struct {
	parent int64
	name   string
}

// openSpan is an interval span in progress.
type openSpan struct {
	id, parent int64
	name       string
	start      int64
}

func newTracer(shards int) *tracer {
	if shards < 1 {
		shards = 1
	}
	return &tracer{
		epoch:       time.Now(),
		shards:      shards,
		lanes:       make([]lane, shards),
		aggs:        make(map[aggKey]*Span),
		decideAlloc: make(map[int]float64),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens an interval span under the innermost open one.
func (t *tracer) begin(name string) *openSpan {
	o := &openSpan{id: t.nextID.Add(1), parent: t.cur.Load(), name: name, start: t.now()}
	t.cur.Store(o.id)
	return o
}

// end closes o: it seals the lane phases and aggregates recorded under
// it, records it, and restores its parent as the innermost span.
func (t *tracer) end(o *openSpan) {
	end := t.now()
	for i := range t.lanes {
		t.flushLane(i)
	}
	t.mu.Lock()
	for k, a := range t.aggs {
		if k.parent == o.id {
			t.spans = append(t.spans, *a)
			delete(t.aggs, k)
		}
	}
	t.spans = append(t.spans, Span{ID: o.id, Parent: o.parent, Name: o.name, Cycle: t.cycle,
		Lane: -1, Start: o.start, End: end, Calls: 1, Busy: end - o.start})
	t.mu.Unlock()
	t.cur.Store(o.parent)
}

// leaf records one call that has no traced children.
func (t *tracer) leaf(name string, ln int, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{ID: t.nextID.Add(1), Parent: t.cur.Load(), Name: name, Cycle: t.cycle,
		Lane: ln, Start: start, End: end, Calls: 1, Busy: end - start})
	t.mu.Unlock()
}

// call folds one per-candidate call into its lane's current phase, or
// starts a new phase when the lane last served another layer.
func (t *tracer) call(ln int, name string, start, end int64) {
	l := &t.lanes[ln]
	parent := t.cur.Load()
	if l.open && l.ph.Name == name && l.ph.Parent == parent {
		l.ph.End = end
		l.ph.Calls++
		return
	}
	t.flushLane(ln)
	l.open = true
	l.ph = Span{ID: t.nextID.Add(1), Parent: parent, Name: name, Cycle: t.cycle, Lane: ln,
		Start: start, End: end, Calls: 1}
}

func (t *tracer) flushLane(ln int) {
	l := &t.lanes[ln]
	if !l.open {
		return
	}
	l.open = false
	l.ph.Busy = l.ph.End - l.ph.Start
	t.mu.Lock()
	t.spans = append(t.spans, l.ph)
	t.mu.Unlock()
}

// agg folds one call into the aggregate span of its layer under the
// innermost open span.
func (t *tracer) agg(name string, start, end int64) {
	k := aggKey{parent: t.cur.Load(), name: name}
	t.mu.Lock()
	a, ok := t.aggs[k]
	if !ok {
		a = &Span{ID: t.nextID.Add(1), Parent: k.parent, Name: name, Cycle: t.cycle, Start: start, Agg: true}
		t.aggs[k] = a
	}
	a.End = end
	a.Calls++
	a.Busy += end - start
	t.mu.Unlock()
}

// laneOf maps a candidate to the decide shard that works it. It is
// core.ShardOf(FullName) — FNV-1a over "db.name" — hashed from the
// parts, so the tracer allocates nothing per call.
func (t *tracer) laneOf(c *core.Candidate) int {
	if t.shards <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for _, s := range [...]string{c.Table.Database(), ".", c.Table.Name()} {
		for i := 0; i < len(s); i++ {
			h ^= uint32(s[i])
			h *= 16777619
		}
	}
	return int(h % uint32(t.shards))
}

// laneCounters sums the per-candidate counters over all lanes.
func (t *tracer) laneCounters() (filterCalls, filterKept, observeCalls, traitCalls int64) {
	for i := range t.lanes {
		l := &t.lanes[i]
		filterCalls += l.filterCalls
		filterKept += l.filterKept
		observeCalls += l.observeCalls
		traitCalls += l.traitCalls
	}
	return
}

// instrument wraps every interface core.Config holds with a timing
// decorator. Decorators forward every call unchanged and keep the
// optional interfaces (ParallelRanker, ShardedGenerator,
// TableLocalGenerator, Validate) of what they wrap, so the pipeline
// takes the same code paths it takes untraced. A nil Decider is
// replaced by one that runs the serial pass, exactly what
// core.Service.Decide does without one.
func (t *tracer) instrument(cfg core.Config) core.Config {
	cfg.Connector = tConnector{Connector: cfg.Connector, t: t}
	cfg.Generator = t.wrapGenerator(cfg.Generator)
	cfg.PreFilters = t.wrapFilters(cfg.PreFilters)
	cfg.StatsFilters = t.wrapFilters(cfg.StatsFilters)
	cfg.TraitFilters = t.wrapFilters(cfg.TraitFilters)
	cfg.Observer = tObserver{inner: cfg.Observer, t: t}
	traits := make([]core.Trait, len(cfg.Traits))
	for i, tr := range cfg.Traits {
		traits[i] = tTrait{Trait: tr, t: t}
	}
	cfg.Traits = traits
	if pr, ok := cfg.Ranker.(core.ParallelRanker); ok {
		cfg.Ranker = tParallelRanker{tRanker: tRanker{Ranker: cfg.Ranker, t: t}, pr: pr}
	} else {
		cfg.Ranker = tRanker{Ranker: cfg.Ranker, t: t}
	}
	if cfg.Selector != nil {
		cfg.Selector = tSelector{inner: cfg.Selector, t: t}
	}
	if cfg.Runner != nil {
		cfg.Runner = tRunner{inner: cfg.Runner, t: t}
	}
	inner := cfg.Decider
	cfg.Decider = func(c *core.Config) (*core.Decision, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o := t.begin("core.decide")
		var d *core.Decision
		var err error
		if inner != nil {
			o2 := t.begin("decideshard.decide")
			d, err = inner(c)
			t.end(o2)
		} else {
			d, err = c.DecideSerial()
		}
		t.end(o)
		runtime.ReadMemStats(&after)
		t.decideAlloc[t.cycle] += float64(after.TotalAlloc - before.TotalAlloc)
		return d, err
	}
	return cfg
}

func (t *tracer) wrapFilters(fs []core.Filter) []core.Filter {
	if fs == nil {
		return nil
	}
	out := make([]core.Filter, len(fs))
	for i, f := range fs {
		out[i] = tFilter{Filter: f, t: t}
	}
	return out
}

func (t *tracer) wrapGenerator(g core.Generator) core.Generator {
	base := tGenerator{Generator: g, t: t}
	sg, sharded := g.(core.ShardedGenerator)
	tl, local := g.(core.TableLocalGenerator)
	switch {
	case sharded && local:
		return tLocalShardedGenerator{tShardedGenerator: tShardedGenerator{tGenerator: base, sg: sg}, tl: tl}
	case sharded:
		return tShardedGenerator{tGenerator: base, sg: sg}
	case local:
		return tLocalGenerator{tGenerator: base, tl: tl}
	}
	return base
}

type tConnector struct {
	core.Connector
	t *tracer
}

func (c tConnector) Tables() []core.Table {
	s := c.t.now()
	ts := c.Connector.Tables()
	c.t.leaf("core.connect", -1, s, c.t.now())
	return ts
}

type tGenerator struct {
	core.Generator
	t *tracer
}

func (g tGenerator) Candidates(tables []core.Table) []*core.Candidate {
	s := g.t.now()
	cs := g.Generator.Candidates(tables)
	g.t.leaf("core.generate", -1, s, g.t.now())
	g.t.generated.Add(int64(len(cs)))
	return cs
}

type tShardedGenerator struct {
	tGenerator
	sg core.ShardedGenerator
}

func (g tShardedGenerator) ShardCandidates(shard, shards int, tables []core.Table) []*core.Candidate {
	s := g.t.now()
	cs := g.sg.ShardCandidates(shard, shards, tables)
	g.t.leaf("core.generate", shard, s, g.t.now())
	g.t.generated.Add(int64(len(cs)))
	return cs
}

type tLocalGenerator struct {
	tGenerator
	tl core.TableLocalGenerator
}

func (g tLocalGenerator) TableLocal() bool { return g.tl.TableLocal() }

type tLocalShardedGenerator struct {
	tShardedGenerator
	tl core.TableLocalGenerator
}

func (g tLocalShardedGenerator) TableLocal() bool { return g.tl.TableLocal() }

type tFilter struct {
	core.Filter
	t *tracer
}

func (f tFilter) Keep(c *core.Candidate) bool {
	s := f.t.now()
	keep := f.Filter.Keep(c)
	e := f.t.now()
	ln := f.t.laneOf(c)
	f.t.call(ln, "core.filter", s, e)
	l := &f.t.lanes[ln]
	l.filterCalls++
	if keep {
		l.filterKept++
	}
	return keep
}

type tObserver struct {
	inner core.Observer
	t     *tracer
}

func (o tObserver) Observe(c *core.Candidate) (core.Stats, error) {
	s := o.t.now()
	st, err := o.inner.Observe(c)
	e := o.t.now()
	ln := o.t.laneOf(c)
	o.t.call(ln, "core.observe", s, e)
	o.t.lanes[ln].observeCalls++
	return st, err
}

type tTrait struct {
	core.Trait
	t *tracer
}

func (tr tTrait) Value(c *core.Candidate) float64 {
	s := tr.t.now()
	v := tr.Trait.Value(c)
	e := tr.t.now()
	ln := tr.t.laneOf(c)
	tr.t.call(ln, "core.orient", s, e)
	tr.t.lanes[ln].traitCalls++
	return v
}

type tRanker struct {
	core.Ranker
	t *tracer
}

func (r tRanker) Rank(cands []*core.Candidate) []*core.Candidate {
	s := r.t.now()
	out := r.Ranker.Rank(cands)
	r.t.leaf("core.rank", -1, s, r.t.now())
	return out
}

// Validate forwards the wrapped ranker's validation, which
// core.NewService runs when the ranker offers it.
func (r tRanker) Validate() error {
	if v, ok := r.Ranker.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

type tParallelRanker struct {
	tRanker
	pr core.ParallelRanker
}

func (r tParallelRanker) ShardStats(cands []*core.Candidate) any {
	s := r.t.now()
	out := r.pr.ShardStats(cands)
	r.t.leaf("core.rank", -1, s, r.t.now())
	return out
}

func (r tParallelRanker) MergeStats(parts []any) any {
	s := r.t.now()
	out := r.pr.MergeStats(parts)
	r.t.leaf("core.rank", -1, s, r.t.now())
	return out
}

func (r tParallelRanker) RankShard(cands []*core.Candidate, global any) []*core.Candidate {
	s := r.t.now()
	out := r.pr.RankShard(cands, global)
	r.t.leaf("core.rank", -1, s, r.t.now())
	return out
}

type tSelector struct {
	inner core.Selector
	t     *tracer
}

func (sel tSelector) Select(ranked []*core.Candidate) []*core.Candidate {
	s := sel.t.now()
	out := sel.inner.Select(ranked)
	sel.t.leaf("core.select", -1, s, sel.t.now())
	sel.t.selected.Add(int64(len(out)))
	return out
}

type tRunner struct {
	inner core.Runner
	t     *tracer
}

func (r tRunner) Run(c *core.Candidate) compaction.Result {
	s := r.t.now()
	res := r.inner.Run(c)
	r.t.agg("fleet.runner", s, r.t.now())
	return res
}
