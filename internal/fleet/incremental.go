package fleet

import (
	"autocomp/internal/changefeed"
	"autocomp/internal/core"
)

// IncrOptions parameterizes the incremental observation plane over a
// fleet.
type IncrOptions struct {
	// Trigger is the per-table trigger policy (zero value = every
	// commit, which preserves full-scan decision parity).
	Trigger changefeed.TriggerPolicy
	// Triggers, when set, resolves the trigger policy per table (e.g.
	// the policy plane's layered source) and takes precedence over
	// Trigger.
	Triggers changefeed.PolicyFunc
	// ReconcileEvery runs a reconciling full scan every Nth cycle to
	// catch missed events (0 = cold-start full scan only).
	ReconcileEvery int
	// DecideShards partitions the feed's retained pool and lock stripes
	// to match a sharded decide plane's shard count (values <= 1 build a
	// single-partition feed). The wired generator then serves each decide
	// shard from its own partition with no cross-shard contention.
	DecideShards int
}

// IncrementalConfig wires a fresh changefeed into cfg: the connector
// serves the dirty set, the generator retains clean tables' candidates,
// and the observer answers from the version-keyed cache. It attaches
// the feed's bus to the fleet; any core.Config compiled against this
// fleet (data-only, unified, custom weights) can be incrementalized this
// way.
func (f *Fleet) IncrementalConfig(cfg core.Config, opts IncrOptions) (core.Config, *changefeed.Feed) {
	triggers := opts.Triggers
	if triggers == nil {
		triggers = changefeed.StaticTriggers(opts.Trigger)
	}
	feed := changefeed.NewFeedSharded(triggers, opts.ReconcileEvery, opts.DecideShards)
	f.AttachChangefeed(feed.Bus)
	cfg.Connector = feed.Connector(cfg.Connector)
	cfg.Generator = feed.Generator(cfg.Generator)
	cfg.Observer = feed.Observer(cfg.Observer, f.statsRefresher())
	cfg.OnReport = append(cfg.OnReport, feed.RedirtyConflicts)
	return cfg, feed
}

// statsRefresher mirrors the clock- and quota-dependent fields the
// fleet's observers set, so a cache hit is byte-identical to a fresh
// observation: fleet.Observer derives TableAge/SinceLastWrite from the
// clock and QuotaUtilization from the tenant's (shared, mutable) quota;
// maintenance.Observer sets the ages but never the quota.
func (f *Fleet) statsRefresher() func(*core.Candidate, *core.Stats) {
	return func(c *core.Candidate, s *core.Stats) {
		now := f.clock.Now()
		s.TableAge = now - c.Table.Created()
		s.SinceLastWrite = now - c.Table.LastWrite()
		if c.Action == core.ActionDataCompaction {
			s.QuotaUtilization = f.QuotaUtilization(c.Table.Database())
		}
	}
}
