package fleet

import (
	"time"

	"autocomp/internal/changefeed"
	"autocomp/internal/core"
	"autocomp/internal/policy"
	"autocomp/internal/scheduler"
	"autocomp/internal/telemetry"
)

// PolicyEnv returns the policy-compilation environment of this fleet:
// its clock and the compaction model's pricing constants, so specs can
// omit model parameters and inherit them.
func (f *Fleet) PolicyEnv(model CompactionModel) policy.Env {
	return policy.Env{
		Now:                 f.clock.Now,
		TargetFileSize:      model.TargetFileSize,
		ExecutorMemoryGB:    model.ExecutorMemoryGB,
		RewriteBytesPerHour: model.RewriteBytesPerHour,
	}
}

// PolicyBindings returns the substrate bindings a compiled spec runs
// against on this fleet: the aggregate-model connector, observer, and
// runner.
func (f *Fleet) PolicyBindings(model CompactionModel) policy.Bindings {
	return policy.Bindings{
		Connector: Connector{Fleet: f},
		Observer:  Observer{Fleet: f},
		Runner:    Runner{Fleet: f, Model: model},
	}
}

// SpecRunOptions carries the simulation-side knobs that are not policy
// (they describe the modeled world, not the pipeline).
type SpecRunOptions struct {
	// WriterCommitsPerHour is the fleet-wide rate of live writer commits
	// racing the compactor during execution windows (0 = quiet lake).
	WriterCommitsPerHour float64
	// WrapRunner, when set, wraps the substrate's data-compaction runner
	// before the spec compiles against it — fault injectors and
	// instrumentation hook in here. When the spec enables unified
	// maintenance, the wrapper sees only the data-compaction candidates
	// (the maintenance runner wraps the result for metadata actions).
	WrapRunner func(core.Runner) core.Runner
	// Tenant labels every CycleEvent the service emits — the tenant
	// identity in a multi-tenant daemon (empty for single-lake use).
	Tenant string
	// Tracer receives the service's CycleEvents; nil means the
	// process-wide telemetry.DefaultTracer(). Multi-tenant hosts give
	// each tenant (and each scenario run) its own tracer so decision
	// streams never interleave.
	Tracer *telemetry.Tracer
}

// SpecService is a pipeline built from a declarative policy spec: the
// decision service plus whichever planes the spec enabled — the
// incremental observation feed (trigger section) and the concurrent
// execution plane (execution section).
type SpecService struct {
	// Compiled is the resolved spec.
	Compiled *policy.Compiled
	// Svc is the decision pipeline.
	Svc *core.Service
	// Feed is the incremental observation plane (nil without a trigger
	// section).
	Feed *changefeed.Feed
	// Sched is the concurrent execution plane (nil without an execution
	// section; cycles then act serially).
	Sched *ScheduledService

	fleet *Fleet
	// tenant and tracer route the service's CycleEvents (SpecRunOptions).
	tenant string
	tracer *telemetry.Tracer
	// prevCache holds the stats-cache counters at the end of the last
	// cycle, so trace events carry per-cycle deltas.
	prevCache changefeed.CacheCounters
}

// ServiceFromSpec compiles a policy spec against this fleet and wires
// every plane the spec enables. It is the fleet's only pipeline
// constructor; callers that wrap a compiled component (a counting
// observer, a sharded Decider) compile with PolicyEnv and PolicyBindings
// and build the core.Service themselves.
func (f *Fleet) ServiceFromSpec(spec *policy.Spec, model CompactionModel, opts SpecRunOptions) (*SpecService, error) {
	bindings := f.PolicyBindings(model)
	if opts.WrapRunner != nil {
		bindings.Runner = opts.WrapRunner(bindings.Runner)
	}
	comp, err := policy.Compile(spec, f.PolicyEnv(model), bindings)
	if err != nil {
		return nil, err
	}
	out := &SpecService{Compiled: comp, fleet: f, tenant: opts.Tenant, tracer: opts.Tracer}
	if out.tracer == nil {
		out.tracer = telemetry.DefaultTracer()
	}
	cfg := comp.Core
	if comp.Incremental {
		cfg, out.Feed = f.IncrementalConfig(cfg, IncrOptions{
			Trigger:        comp.Trigger,
			Triggers:       comp.Triggers,
			ReconcileEvery: comp.ReconcileEvery,
			DecideShards:   comp.DecideShards,
		})
	} else {
		// The spec owns the fleet's changefeed attachment: compiling a
		// non-incremental spec detaches any previously attached feed, so
		// a hot reload away from incremental mode does not leave a stale
		// bus consuming (and accounting) every future commit event.
		f.AttachChangefeed(nil)
	}
	svc, err := core.NewService(cfg)
	if err != nil {
		return nil, err
	}
	out.Svc = svc
	if comp.HasExecution {
		out.Sched = f.ScheduleService(svc, model, SchedOptions{
			Workers:              comp.Sched.Workers,
			Shards:               comp.Sched.Shards,
			ShardBudgetGBHr:      comp.Sched.ShardBudgetGBHr,
			StalenessBound:       comp.Sched.StalenessBound,
			MaxAttempts:          comp.Sched.MaxAttempts,
			RetryBase:            comp.Sched.RetryBase,
			RetryMax:             comp.Sched.RetryMax,
			AgingRatePerHour:     comp.Sched.AgingRatePerHour,
			WriterCommitsPerHour: opts.WriterCommitsPerHour,
		})
	}
	return out, nil
}

// RunCycle performs one OODA cycle on whichever execution plane the
// spec configured: the worker pool when present (with scheduler stats),
// the serial act phase otherwise (zero stats). Every completed cycle
// emits one telemetry.CycleEvent on the default tracer — the decision
// trace autocompd logs, streams as JSONL, and serves on /statusz.
func (s *SpecService) RunCycle() (*core.Report, scheduler.Stats, error) {
	// The cycle cost is measured on the fleet's clock — virtual time, so
	// the emitted trace (WallMS included) is a deterministic function of
	// the seed rather than a leak of host wall time.
	started := s.fleet.clock.Now()
	var rep *core.Report
	var stats scheduler.Stats
	var err error
	if s.Sched != nil {
		rep, stats, err = s.Sched.RunCycle()
	} else {
		rep, err = s.Svc.RunOnce()
	}
	if err != nil {
		return rep, stats, err
	}
	s.emitCycleEvent(rep, stats, s.fleet.clock.Now()-started)
	return rep, stats, nil
}

// emitCycleEvent assembles the cycle's decision-trace event from the
// report, the execution stats, the observation feed, and the substrate.
// Emission is passive: it reads state the cycle already produced and
// never mutates anything the pipeline consumes.
func (s *SpecService) emitCycleEvent(rep *core.Report, stats scheduler.Stats, wall time.Duration) {
	d := rep.Decision
	ev := telemetry.CycleEvent{
		Day:    s.fleet.Day(),
		Tenant: s.tenant,
		Policy: specName(s.Compiled.Spec),
		Funnel: telemetry.FunnelTrace{
			Generated:  d.Generated,
			AfterPre:   d.AfterPreFilters,
			AfterStats: d.AfterStatsFilter,
			AfterTrait: d.AfterTraitFilter,
			Ranked:     len(d.Ranked),
			Selected:   len(d.Selected),
		},
		FilesReduced:    rep.FilesReduced,
		MetadataReduced: rep.MetadataReduced,
		BytesRewritten:  rep.BytesRewritten,
		GBHrSpent:       rep.ActualGBHr,
		WallMS:          float64(wall) / float64(time.Millisecond),
	}
	if s.Feed != nil {
		scan := s.Feed.LastScan()
		cc := s.Feed.Cache.Counters()
		ev.Scan = telemetry.ScanTrace{
			Mode:        map[bool]string{true: "full", false: "dirty"}[scan.Full],
			Scanned:     scan.Scanned,
			Pool:        scan.Pool,
			CacheHits:   cc.Hits - s.prevCache.Hits,
			CacheMisses: cc.Misses - s.prevCache.Misses,
			DirtyNow:    s.Feed.Tracker.DirtyCount(),
		}
		s.prevCache = cc
	} else {
		ev.Scan = telemetry.ScanTrace{
			Mode:    "scan",
			Scanned: s.fleet.TableCount(),
			Pool:    d.Generated,
		}
	}
	if s.Sched != nil {
		ev.Exec = telemetry.ExecTrace{
			Done:           stats.Done,
			Skipped:        stats.Skipped,
			Conflicted:     stats.Conflicted,
			Deferred:       stats.Deferred,
			Failed:         stats.Failed,
			Conflicts:      stats.Conflicts,
			Retries:        stats.Retries,
			Workers:        stats.Workers,
			Shards:         stats.Shards,
			MakespanMS:     stats.Makespan.Milliseconds(),
			UtilizationPct: 100 * stats.Utilization(),
			MaxQueueDepth:  stats.MaxQueueDepth,
		}
	} else {
		done := len(rep.Results) - rep.Skipped - rep.Errors - rep.Conflicts
		ev.Exec = telemetry.ExecTrace{
			Done:       done,
			Skipped:    rep.Skipped,
			Conflicted: rep.Conflicts,
			Failed:     rep.Errors,
			Conflicts:  rep.Conflicts,
		}
	}
	counts := rep.ActionCounts()
	for _, a := range core.ActionTypes() {
		if counts[a] > 0 {
			ev.Outcomes = append(ev.Outcomes, telemetry.OutcomeTrace{Action: a.String(), Done: counts[a]})
		}
	}
	ev.Fleet = telemetry.FleetTrace{
		Tables:      s.fleet.TableCount(),
		Files:       s.fleet.TotalFiles(),
		MetaObjects: s.fleet.TotalMetadataObjects(),
		TinyFrac:    s.fleet.TinyFileFraction(),
	}
	s.tracer.Emit(ev)
}

// Tracer returns the tracer this service emits CycleEvents to.
func (s *SpecService) Tracer() *telemetry.Tracer { return s.tracer }

// specName names a compiled spec for trace events.
func specName(sp *policy.Spec) string {
	if sp == nil || sp.Name == "" {
		return "(unnamed)"
	}
	return sp.Name
}
