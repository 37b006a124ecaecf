package core

import (
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ShardOf returns the shard a table hashes onto: a stable fnv32a hash of
// the full table name modulo the shard count. It is the one shard
// mapping in the system — the scheduler's GBHr budget shards, the decide
// pass's candidate shards, and the changefeed's cache/tracker stripes
// all use it, so a table's budget shard and decide shard always align.
func ShardOf(fullName string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(fullName))
	return int(h.Sum32() % uint32(shards))
}

// Decider replaces the serial decide pass of Service.Decide. The hook
// receives the service's (defaulted, validated) configuration and
// returns the cycle's decision; Service.Decide still owns the decision
// telemetry around the call. The policy compiler attaches a call of
// DecideSharded here for decide_shards > 1; nil runs DecideSerial.
type Decider func(*Config) (*Decision, error)

// TableLocalGenerator marks a Generator whose output for a table list is
// the concatenation of its per-table outputs: Candidates(ts) equals
// appending Candidates({t}) over ts in order, and no candidate
// references a table outside its input. Table-local generators can be
// fanned out across decide shards by partitioning the table list; the
// built-in scope generators and the policy plane's maintenance generator
// all qualify (so the shipped unified chain generates per shard), while
// time-windowed or cross-table generators must not claim it.
type TableLocalGenerator interface {
	Generator
	// TableLocal reports whether the generator currently satisfies the
	// contract (composite generators answer for their members).
	TableLocal() bool
}

// generatorIsTableLocal reports whether g declares the table-local
// contract, enabling per-shard candidate generation.
func generatorIsTableLocal(g Generator) bool {
	tl, ok := g.(TableLocalGenerator)
	return ok && tl.TableLocal()
}

// ShardedGenerator is a Generator that partitions its own candidate pool
// by decide shard — stateful generators (the changefeed's retained pool)
// implement it so each shard touches only its own partition. The
// contract: with tables partitioned by ShardOf(FullName, shards),
// concatenating ShardCandidates(s, shards, partition[s]) over all s must
// emit the same candidate set as one Candidates(tables) call, and every
// emitted candidate's table must hash onto the shard that emitted it.
type ShardedGenerator interface {
	Generator
	ShardCandidates(shard, shards int, tables []Table) []*Candidate
}

// TableLocal implements TableLocalGenerator.
func (TableScopeGenerator) TableLocal() bool { return true }

// TableLocal implements TableLocalGenerator.
func (PartitionScopeGenerator) TableLocal() bool { return true }

// TableLocal implements TableLocalGenerator.
func (HybridScopeGenerator) TableLocal() bool { return true }

// TableLocal implements TableLocalGenerator: each candidate covers one
// input table; the freshness window is resolved from the clock, not from
// other tables.
func (SnapshotScopeGenerator) TableLocal() bool { return true }

// TableLocal implements TableLocalGenerator: a concatenation of
// table-local generators is table-local. Partitioning tables and
// concatenating per-shard outputs permutes the pool across shards but
// preserves the emitted set, which is all ranking needs (score plus ID
// tie-break is order-independent).
func (m MultiGenerator) TableLocal() bool {
	for _, g := range m {
		if !generatorIsTableLocal(g) {
			return false
		}
	}
	return true
}

// CycleStats is the timing breakdown of one sharded decide cycle — the
// basis for the shard experiment's critical-path projection (on a host
// with fewer cores than shards, wall time cannot show the parallel win;
// max-shard time plus merge time is what wall time becomes with enough
// cores). Timings are stamped with the config's Clock.
type CycleStats struct {
	// Shards is the cycle's shard count (0 for a one-shard pass, which
	// records no stats).
	Shards int
	// ShardPipeline is each shard's generate→trait-filter duration;
	// ShardRank each shard's rank-phase duration (zero when the ranker
	// fell back to serial).
	ShardPipeline []time.Duration
	ShardRank     []time.Duration
	// Merge is the k-way merge duration.
	Merge time.Duration
	// ShardCandidates is each shard's generated-candidate count.
	ShardCandidates []int
	// GenerateFallback and RankFallback report serial-path degradations
	// (see DecideSharded).
	GenerateFallback, RankFallback bool
}

// CriticalPath is the cycle's ideal-parallel decide time: the slowest
// shard's pipeline+rank chain plus the serial merge.
func (cs CycleStats) CriticalPath() time.Duration {
	var max time.Duration
	for s := range cs.ShardPipeline {
		d := cs.ShardPipeline[s]
		if s < len(cs.ShardRank) {
			d += cs.ShardRank[s]
		}
		if d > max {
			max = d
		}
	}
	return max + cs.Merge
}

// funnel is one shard's pass through the refinement points.
type funnel struct {
	generated, afterPre, afterStats, afterTrait int
	kept                                        []*Candidate
	stats                                       any
	err                                         error
}

// DecideSharded is the decide pass (§4.3) with the fleet partitioned
// into shards by ShardOf. Per shard, on at most workers goroutines
// (<= 0 means GOMAXPROCS; never more than shards), it generates,
// pre-filters, observes, stats-filters, orients and trait-filters; a
// ParallelRanker then ranks each shard against exactly merged global
// stats and MergeRanked reassembles the global ranking before select
// and plan run once.
//
// At one shard this is the serial pass: one Generator.Candidates call
// over all tables, no partition, no goroutine, no merge, and neither
// CycleStats nor the autocomp_decideshard_* families are recorded.
//
// Byte-identical parity: for every configuration whose ranker
// implements ParallelRanker, the decision is the same at any shard and
// worker count — same funnel counts, ranked order, scores, selection
// and plan. Three properties deliver this:
//
//  1. Candidate partitioning is by table, and every stage up to ranking
//     is per-candidate, so shard-local filtering, observation and
//     orientation compute exactly the serial values.
//  2. The only cross-candidate coupling — MOOP min-max normalization —
//     factors into per-shard trait extrema merged exactly (min/max has
//     no accumulation error), after which each shard scores its
//     candidates with bit-identical arithmetic.
//  3. Ranking order is a total order (score desc, candidate ID asc) for
//     unique IDs, so independently sorted shards merge into the exact
//     serial ordering regardless of shard completion order.
//
// Configurations outside the contract — a generator that is neither
// ShardedGenerator nor table-local, or a ranker that is not a
// ParallelRanker — degrade that stage to one serial call (counted in
// autocomp_decideshard_serial_fallbacks_total), so correctness never
// depends on a component opting in.
//
// Within a sharded cycle the Observer, Generator (per-shard calls),
// Filters and Traits run concurrently on disjoint candidate sets and
// must be safe for that; the changefeed's cache and tracker are
// lock-striped for exactly this fan-out.
func (cfg *Config) DecideSharded(shards, workers int) (*Decision, CycleStats, error) {
	shards = max(shards, 1)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, shards)
	sharded := shards > 1
	var cs CycleStats
	if sharded {
		mDecides.Inc()
		mShardsGauge.Set(float64(shards))
		mWorkersGauge.Set(float64(workers))
		cs = CycleStats{
			Shards:          shards,
			ShardPipeline:   make([]time.Duration, shards),
			ShardRank:       make([]time.Duration, shards),
			ShardCandidates: make([]int, shards),
		}
	}

	d := &Decision{At: cfg.Connector.Now()}
	generate := cfg.shardSource(cfg.Connector.Tables(), shards, &cs)

	// Phase A, per shard: generate → pre-filter → observe →
	// stats-filter → orient → trait-filter → ranking summary.
	pr, parallelRank := cfg.Ranker.(ParallelRanker)
	parallelRank = parallelRank && sharded
	outs := make([]funnel, shards)
	runShards(shards, workers, func(s int) {
		var started time.Duration
		if sharded {
			started = cfg.clockNow()
		}
		out := &outs[s]
		cands := generate(s)
		out.generated = len(cands)

		cands = applyFilters(cands, cfg.PreFilters)
		out.afterPre = len(cands)
		for _, c := range cands {
			if err := cfg.observeCandidate(c); err != nil {
				out.err = err
				return
			}
		}
		cands = applyFilters(cands, cfg.StatsFilters)
		out.afterStats = len(cands)

		orient(cands, cfg.Traits)
		cands = applyFilters(cands, cfg.TraitFilters)
		out.afterTrait = len(cands)
		out.kept = cands
		if parallelRank {
			out.stats = pr.ShardStats(cands)
		}
		if sharded {
			cs.ShardPipeline[s] = cfg.clockNow() - started
			cs.ShardCandidates[s] = out.generated
			mShardSeconds.With("pipeline").Observe(cs.ShardPipeline[s].Seconds())
			mShardCandidates.Observe(float64(out.generated))
		}
	})
	for s := range outs {
		if err := outs[s].err; err != nil {
			return nil, CycleStats{}, err
		}
		d.Generated += outs[s].generated
		d.AfterPreFilters += outs[s].afterPre
		d.AfterStatsFilter += outs[s].afterStats
		d.AfterTraitFilter += outs[s].afterTrait
	}

	// Phase B: rank per shard against exactly merged global stats, then
	// the deterministic k-way merge; or one Rank over the whole pool.
	if parallelRank {
		stats := make([]any, shards)
		for s := range outs {
			stats[s] = outs[s].stats
		}
		global := pr.MergeStats(stats)
		ranked := make([][]*Candidate, shards)
		runShards(shards, workers, func(s int) {
			started := cfg.clockNow()
			ranked[s] = pr.RankShard(outs[s].kept, global)
			cs.ShardRank[s] = cfg.clockNow() - started
			mShardSeconds.With("rank").Observe(cs.ShardRank[s].Seconds())
		})
		started := cfg.clockNow()
		d.Ranked = MergeRanked(ranked)
		cs.Merge = cfg.clockNow() - started
		mMergeSeconds.Observe(cs.Merge.Seconds())
	} else {
		all := outs[0].kept
		if sharded {
			cs.RankFallback = true
			mFallbacks.With("rank").Inc()
			all = make([]*Candidate, 0, d.AfterTraitFilter)
			for s := range outs {
				all = append(all, outs[s].kept...)
			}
		}
		d.Ranked = cfg.Ranker.Rank(all)
	}

	d.Selected = cfg.Selector.Select(d.Ranked)
	d.Plan = cfg.Scheduler.Plan(d.Selected)
	return d, cs, nil
}

// shardSource resolves this cycle's per-shard candidate source, in
// preference order: at one shard, one Candidates call over all tables;
// a ShardedGenerator partitions its own pool (the changefeed's retained
// partitions); a table-local generator runs on a table partition;
// anything else generates serially once and the pool is
// hash-partitioned — set-preserving in every case, which is all ranking
// order depends on.
func (cfg *Config) shardSource(tables []Table, shards int, cs *CycleStats) func(int) []*Candidate {
	if shards == 1 {
		return func(int) []*Candidate { return cfg.Generator.Candidates(tables) }
	}
	if g, ok := cfg.Generator.(ShardedGenerator); ok {
		tp := partitionTables(tables, shards)
		return func(s int) []*Candidate { return g.ShardCandidates(s, shards, tp[s]) }
	}
	if generatorIsTableLocal(cfg.Generator) {
		tp := partitionTables(tables, shards)
		return func(s int) []*Candidate { return cfg.Generator.Candidates(tp[s]) }
	}
	cs.GenerateFallback = true
	mFallbacks.With("generate").Inc()
	parts := make([][]*Candidate, shards)
	for _, c := range cfg.Generator.Candidates(tables) {
		s := ShardOf(c.Table.FullName(), shards)
		parts[s] = append(parts[s], c)
	}
	return func(s int) []*Candidate { return parts[s] }
}

// partitionTables splits tables by ShardOf, preserving relative order
// within each shard.
func partitionTables(tables []Table, shards int) [][]Table {
	parts := make([][]Table, shards)
	for _, t := range tables {
		s := ShardOf(t.FullName(), shards)
		parts[s] = append(parts[s], t)
	}
	return parts
}

// runShards runs fn(0..shards-1) on at most workers goroutines and
// waits; one worker runs them in order on the calling goroutine. Shard
// indices are pulled from an atomic counter, so each shard runs on
// exactly one goroutine and slow shards never idle a worker that could
// take the next one.
func runShards(shards, workers int, fn func(int)) {
	if workers <= 1 {
		for s := 0; s < shards; s++ {
			fn(s)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1))
				if s >= shards {
					return
				}
				fn(s)
			}
		}()
	}
	wg.Wait()
}
