package policy

import (
	"autocomp/internal/catalog"
	"autocomp/internal/changefeed"
	"autocomp/internal/compaction"
	"autocomp/internal/core"
)

// CatalogService compiles spec against an OpenHouse-style control plane
// and builds its decision service. It is the catalog's only pipeline
// constructor, the counterpart of fleet.ServiceFromSpec.
//
// The catalog binds the substrate: its connector, a stats observer at
// env.TargetFileSize reading the catalog's quotas, its stored
// per-database and per-table policies as the top override layers, and
// exec as the data-compaction runner (nil builds a decide-only
// pipeline). A trigger section wires a changefeed attached to the
// catalog's commits, partitioned to the spec's decide shards, and
// returns it; the feed is nil otherwise. Of the execution section only
// the decide shards apply: callers act through the service or drive
// the plan themselves. onReport hooks receive every cycle's report.
func CatalogService(spec *Spec, env Env, cp *catalog.ControlPlane, exec *compaction.Executor, onReport ...func(*core.Report)) (*Compiled, *core.Service, *changefeed.Feed, error) {
	b := Bindings{
		Connector: core.CatalogConnector{CP: cp},
		Observer: core.StatsObserver{
			TargetFileSize: env.TargetFileSize,
			Quota:          cp.QuotaUtilization,
			Now:            env.Now,
		},
		Catalog: cp,
	}
	if exec != nil {
		b.Runner = core.ExecutorRunner{Exec: exec}
	}
	comp, err := Compile(spec, env, b)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := comp.Core
	cfg.OnReport = append(cfg.OnReport, onReport...)
	var feed *changefeed.Feed
	if comp.Incremental {
		feed = changefeed.NewFeedSharded(comp.Triggers, comp.ReconcileEvery, comp.DecideShards)
		changefeed.AttachCatalog(feed.Bus, cp)
		cfg.Connector = feed.Connector(cfg.Connector)
		cfg.Generator = feed.Generator(cfg.Generator)
		cfg.Observer = feed.Observer(cfg.Observer, changefeed.StatsObserverRefresher(env.Now, cp.QuotaUtilization))
		cfg.OnReport = append(cfg.OnReport, feed.RedirtyConflicts)
	}
	svc, err := core.NewService(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return comp, svc, feed, nil
}
