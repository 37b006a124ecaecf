package changefeed

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autocomp/internal/core"
)

// feedPart is one decide shard's slice of the retained candidate pool.
// Parts are keyed by core.ShardOf on the table name, so the sharded
// decide plane's per-shard generation touches exactly one part and
// parts never contend with each other. The atomic mirrors let pool
// accounting aggregate across parts without taking their locks.
type feedPart struct {
	mu sync.Mutex
	// retained maps table full name → the candidates emitted at the
	// table's last (re)generation; clean tables re-enter the pool from
	// here with stats served by the cache.
	retained map[string][]*core.Candidate
	// cands and tbls mirror the retained candidate and table counts.
	cands atomic.Int64
	tbls  atomic.Int64
}

// syncLocked refreshes the part's atomic mirrors; the caller holds
// p.mu.
func (p *feedPart) syncLocked() {
	n := 0
	for _, cs := range p.retained {
		n += len(cs)
	}
	p.cands.Store(int64(n))
	p.tbls.Store(int64(len(p.retained)))
}

// Feed bundles one lake's incremental-observation state: the commit
// bus, the dirty-set tracker, the stats cache, and the retained
// candidate pool the incremental generator re-emits for clean tables.
// Build one with NewFeed (or NewFeedSharded to align the retained pool
// and lock stripes with a sharded decide plane), attach publishers to
// Feed.Bus, and wrap a service's connector/generator/observer with
// Connector, Generator, and Observer — the core pipeline then runs
// unmodified.
type Feed struct {
	// Bus receives commit events; the tracker and cache are subscribed.
	Bus *Bus
	// Tracker owns the dirty set.
	Tracker *Tracker
	// Cache holds version-keyed observations.
	Cache *StatsCache

	// ReconcileEvery runs a full enumeration every Nth cycle as a
	// safety net for missed events (a publisher detached, an event
	// dropped): every table is re-listed, re-generated, and — where the
	// cache was invalidated or the version moved — re-observed.
	// 0 disables reconciliation (cold-start full scan still happens).
	ReconcileEvery int

	// mu guards the cycle state and the shard layout (shards, parts
	// slice identity); the parts' contents have their own locks. Lock
	// order is always mu before a part's mu, never the reverse.
	mu     sync.Mutex
	shards int
	parts  []*feedPart
	cycle  int64
	// full marks the current cycle as a full enumeration.
	full bool
	// scanned is the table list served to the generator this cycle.
	scanned  []core.Table
	lastPool int
}

// NewFeed builds a single-shard feed: a fresh bus with the tracker
// (using policy; nil = every commit) and cache invalidation subscribed,
// and the given reconciliation interval.
func NewFeed(policy PolicyFunc, reconcileEvery int) *Feed {
	return NewFeedSharded(policy, reconcileEvery, 1)
}

// NewFeedSharded builds a feed partitioned for a sharded decide plane:
// the retained pool splits into shards parts and the tracker and cache
// stripe their locks to match, so decide shards generate and observe
// without cross-shard contention. Shard count is fixed per feed; policy
// hot-reload builds a fresh feed, which is why decide-shard changes
// only ever take effect at a cycle boundary.
func NewFeedSharded(policy PolicyFunc, reconcileEvery, shards int) *Feed {
	if shards < 1 {
		shards = 1
	}
	f := &Feed{
		Bus:            NewBus(),
		Tracker:        NewTrackerSharded(policy, shards),
		Cache:          NewStatsCacheSharded(shards),
		ReconcileEvery: reconcileEvery,
		shards:         shards,
		parts:          newParts(shards),
	}
	f.Bus.Subscribe(f.Tracker.HandleEvent)
	f.Bus.Subscribe(func(e Event) {
		if e.Dropped {
			f.Cache.Drop(e.Table)
			f.mu.Lock()
			p := f.parts[core.ShardOf(e.Table, f.shards)]
			p.mu.Lock()
			delete(p.retained, e.Table)
			p.syncLocked()
			p.mu.Unlock()
			f.mu.Unlock()
			return
		}
		f.Cache.InvalidateTable(e.Table)
	})
	return f
}

func newParts(shards int) []*feedPart {
	parts := make([]*feedPart, shards)
	for i := range parts {
		parts[i] = &feedPart{retained: make(map[string][]*core.Candidate)}
	}
	return parts
}

// Shards returns the feed's retained-pool partition count.
func (f *Feed) Shards() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shards
}

// ensureShards re-partitions the retained pool when a decide plane with
// a different shard count attaches mid-life — a robustness path (the
// policy compiler always builds feed and engine with matching counts);
// it rehashes every retained entry once, at a cycle boundary.
func (f *Feed) ensureShards(shards int) {
	if shards < 1 {
		shards = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if shards == f.shards {
		return
	}
	parts := newParts(shards)
	for _, old := range f.parts {
		old.mu.Lock()
		for name, cs := range old.retained {
			parts[core.ShardOf(name, shards)].retained[name] = cs
		}
		old.mu.Unlock()
	}
	for _, p := range parts {
		p.syncLocked()
	}
	f.shards, f.parts = shards, parts
}

// Connector wraps full so Tables() serves only the dirty set between
// reconciling full scans. Use together with Generator on the same feed:
// the pair shares per-cycle state and must be called in lockstep, which
// core.Service.Decide does.
func (f *Feed) Connector(full core.Connector) *IncrementalConnector {
	return &IncrementalConnector{feed: f, Full: full}
}

// Generator wraps inner so Candidates() regenerates only the tables the
// connector served this cycle and re-emits retained candidates for the
// rest. The wrapper is also a core.ShardedGenerator: a sharded decide
// plane calls ShardCandidates per shard and each call works one
// retained-pool part.
func (f *Feed) Generator(inner core.Generator) *IncrementalGenerator {
	return &IncrementalGenerator{feed: f, Inner: inner}
}

// Observer wraps inner in a CachingObserver over the feed's cache.
// refresh must mirror the clock- and quota-dependent fields inner sets
// (see CachingObserver.Refresh).
func (f *Feed) Observer(inner core.Observer, refresh func(*core.Candidate, *core.Stats)) CachingObserver {
	return CachingObserver{Inner: inner, Cache: f.Cache, Refresh: refresh}
}

// RedirtyConflicts is an OnReport hook that re-dirties every table whose
// job ended in a terminal conflict. A conflict leaves the table
// unmaintained without a state change, so no commit event re-dirties
// it; successful maintenance publishes its own event. Feedback runs on
// every driver (the serial act phase and the scheduled execution plane
// both fold their results into a report), so this is the single
// conflict-redirty mechanism.
func (f *Feed) RedirtyConflicts(rep *core.Report) {
	for _, cr := range rep.Results {
		if cr.Result.Conflict {
			f.Tracker.Redirty(cr.Candidate.Table.FullName())
		}
	}
}

// beginCycle starts an observation cycle: a full enumeration at cold
// start and every ReconcileEvery-th cycle, the dirty set otherwise.
func (f *Feed) beginCycle(full core.Connector) []core.Table {
	f.mu.Lock()
	f.cycle++
	coldStart := f.cycle == 1
	doFull := coldStart ||
		(f.ReconcileEvery > 0 && f.cycle%int64(f.ReconcileEvery) == 0)
	f.full = doFull
	f.mu.Unlock()

	var ts []core.Table
	if doFull {
		ts = full.Tables()
		// The full scan observes everything: register refs, reset
		// pending accumulation, consume outstanding dirty flags, and
		// forget tables the authoritative enumeration no longer lists —
		// in the tracker and in the cache.
		f.Tracker.NoteFullScan(ts)
		keep := make(map[string]struct{}, len(ts))
		for _, t := range ts {
			keep[t.FullName()] = struct{}{}
		}
		f.Cache.RetainOnly(keep)
	} else {
		ts = f.Tracker.TakeDirty()
	}
	f.mu.Lock()
	f.scanned = ts
	f.mu.Unlock()
	mode := "dirty"
	if doFull {
		mode = "full"
	}
	mScans.With(mode).Inc()
	mScannedTables.Set(float64(len(ts)))
	return ts
}

// notePool refreshes the emitted-pool accounting from the parts'
// mirrors. During a sharded cycle it runs once per finished shard; the
// last shard leaves the exact totals.
func (f *Feed) notePool() {
	f.mu.Lock()
	defer f.mu.Unlock()
	var cands, tbls int64
	for _, p := range f.parts {
		cands += p.cands.Load()
		tbls += p.tbls.Load()
	}
	f.lastPool = int(cands)
	mPoolSize.Set(float64(cands))
	mRetainedTables.Set(float64(tbls))
}

// isFull reports whether the current cycle is a full enumeration.
func (f *Feed) isFull() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.full
}

// part returns the shard's retained-pool partition.
func (f *Feed) part(shard int) *feedPart {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.parts[shard]
}

// ScanInfo describes the feed's most recent observation cycle.
type ScanInfo struct {
	// Cycle is the 1-based cycle counter.
	Cycle int64
	// Full reports whether the cycle was a full enumeration.
	Full bool
	// Scanned is how many tables were served to the generator.
	Scanned int
	// Pool is the candidate-pool size the generator emitted.
	Pool int
}

// LastScan returns a snapshot of the most recent cycle.
func (f *Feed) LastScan() ScanInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	return ScanInfo{Cycle: f.cycle, Full: f.full, Scanned: len(f.scanned), Pool: f.lastPool}
}

// ScannedNames returns the full names of the tables served in the most
// recent cycle, sorted (for logging and the runnable example).
func (f *Feed) ScannedNames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.scanned))
	for i, t := range f.scanned {
		out[i] = t.FullName()
	}
	sort.Strings(out)
	return out
}

// IncrementalConnector serves the dirty set instead of the whole lake.
// Quota and clock queries pass through to the full connector.
type IncrementalConnector struct {
	feed *Feed
	// Full is the wrapped whole-lake connector, consulted for full
	// enumerations (cold start, reconciliation) and passthrough queries.
	Full core.Connector
}

// Tables implements core.Connector: the dirty tables mid-stream, the
// full enumeration at cold start and on reconcile cycles.
func (c *IncrementalConnector) Tables() []core.Table {
	return c.feed.beginCycle(c.Full)
}

// QuotaUtilization implements core.Connector.
func (c *IncrementalConnector) QuotaUtilization(db string) float64 {
	return c.Full.QuotaUtilization(db)
}

// Now implements core.Connector.
func (c *IncrementalConnector) Now() time.Duration { return c.Full.Now() }

// IncrementalGenerator regenerates candidates only for the tables the
// connector served this cycle, re-emitting every other table's retained
// candidates unchanged. With a state-deterministic inner generator this
// keeps the emitted pool set-equal to a full scan's (see the package
// doc for the exact parity conditions). It implements
// core.ShardedGenerator over the feed's retained-pool parts.
type IncrementalGenerator struct {
	feed *Feed
	// Inner is the wrapped whole-lake generator.
	Inner core.Generator
}

// Name implements core.Generator.
func (g *IncrementalGenerator) Name() string { return "incremental(" + g.Inner.Name() + ")" }

// Candidates implements core.Generator. tables must be the list the
// paired IncrementalConnector returned this cycle.
func (g *IncrementalGenerator) Candidates(tables []core.Table) []*core.Candidate {
	fresh := g.Inner.Candidates(tables)
	f := g.feed
	full := f.isFull()
	f.mu.Lock()
	parts, shards := f.parts, f.shards
	f.mu.Unlock()

	var out []*core.Candidate
	if full {
		// Full rebuild: the retained pool becomes exactly this scan's
		// output; entries of dropped tables vanish with the old maps.
		for _, p := range parts {
			p.mu.Lock()
			p.retained = make(map[string][]*core.Candidate)
			p.mu.Unlock()
		}
		for _, c := range fresh {
			name := c.Table.FullName()
			p := parts[core.ShardOf(name, shards)]
			p.mu.Lock()
			p.retained[name] = append(p.retained[name], c)
			p.mu.Unlock()
		}
		for _, p := range parts {
			p.mu.Lock()
			p.syncLocked()
			p.mu.Unlock()
		}
		out = fresh
	} else {
		// Replace the regenerated tables' entries (a table whose state
		// no longer yields candidates drops out), keep the rest.
		for _, t := range tables {
			name := t.FullName()
			p := parts[core.ShardOf(name, shards)]
			p.mu.Lock()
			delete(p.retained, name)
			p.mu.Unlock()
		}
		for _, c := range fresh {
			name := c.Table.FullName()
			p := parts[core.ShardOf(name, shards)]
			p.mu.Lock()
			p.retained[name] = append(p.retained[name], c)
			p.mu.Unlock()
		}
		for _, p := range parts {
			p.mu.Lock()
			for _, cs := range p.retained {
				out = append(out, cs...)
			}
			p.syncLocked()
			p.mu.Unlock()
		}
		// Deterministic pool order; ranking is order-independent (score
		// plus ID tie-break), so this only stabilizes logs and tests.
		sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	}
	f.notePool()
	return out
}

// ShardCandidates implements core.ShardedGenerator: one decide shard's
// slice of the incremental pool. tables must be the shard's partition
// (by core.ShardOf) of the list the paired connector returned this
// cycle; the call regenerates exactly those tables within the shard's
// retained part and re-emits the part's remaining (clean) tables'
// candidates. Concatenated over all shards this emits the same pool as
// one Candidates call — the core.ShardedGenerator contract — because
// the parts partition the same retained state Candidates operates on.
func (g *IncrementalGenerator) ShardCandidates(shard, shards int, tables []core.Table) []*core.Candidate {
	f := g.feed
	f.ensureShards(shards)
	full := f.isFull()
	fresh := g.Inner.Candidates(tables)

	p := f.part(shard)
	p.mu.Lock()
	var out []*core.Candidate
	if full {
		p.retained = make(map[string][]*core.Candidate, len(tables))
		for _, c := range fresh {
			name := c.Table.FullName()
			p.retained[name] = append(p.retained[name], c)
		}
		out = fresh
	} else {
		for _, t := range tables {
			delete(p.retained, t.FullName())
		}
		for _, c := range fresh {
			name := c.Table.FullName()
			p.retained[name] = append(p.retained[name], c)
		}
		out = make([]*core.Candidate, 0, len(fresh))
		for _, cs := range p.retained {
			out = append(out, cs...)
		}
		// Per-shard deterministic order, mirroring the serial path's
		// ID sort (ranking itself is order-independent).
		sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	}
	p.syncLocked()
	p.mu.Unlock()
	f.notePool()
	return out
}

// RetainedCount returns how many candidates the feed currently retains.
func (f *Feed) RetainedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, p := range f.parts {
		n += p.cands.Load()
	}
	return int(n)
}

// RetainedTables returns the sorted full names of the tables whose
// candidates the feed currently retains — the invariant surface scenario
// harnesses audit (a retained candidate must never reference a table
// that left the lake).
func (f *Feed) RetainedTables() []string {
	f.mu.Lock()
	parts := f.parts
	f.mu.Unlock()
	var out []string
	for _, p := range parts {
		p.mu.Lock()
		for name := range p.retained {
			out = append(out, name)
		}
		p.mu.Unlock()
	}
	sort.Strings(out)
	return out
}
