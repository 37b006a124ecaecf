package bench

import (
	"fmt"
	"time"

	"autocomp/internal/compaction"
	"autocomp/internal/core"
	"autocomp/internal/engine"
	"autocomp/internal/lst"
	"autocomp/internal/metrics"
	"autocomp/internal/policy"
	"autocomp/internal/workload"
)

// StrategyKind selects the candidate-selection strategy of §6: no
// compaction, table-scope MOOP, or the hybrid (partition/table) MOOP.
type StrategyKind int

// Strategies.
const (
	NoCompaction StrategyKind = iota
	MOOPTable
	MOOPHybrid
)

func (k StrategyKind) String() string {
	switch k {
	case NoCompaction:
		return "no-compaction"
	case MOOPTable:
		return "moop-table"
	case MOOPHybrid:
		return "moop-hybrid"
	default:
		return "unknown"
	}
}

// Strategy configures AutoComp for a CAB run (§6: k=10 table scope, k=50
// and k=500 hybrid; weights 0.7 file-count-reduction / 0.3 compute cost;
// hourly trigger; 512 MB target).
type Strategy struct {
	Kind StrategyKind
	TopK int
	// BenefitWeight and CostWeight are the MOOP weights (default
	// 0.7/0.3).
	BenefitWeight float64
	CostWeight    float64
	// Every is the trigger period (default 1 hour).
	Every time.Duration
}

// Label names the strategy like the paper's figures ("MOOP (Table,
// Top-10)").
func (s Strategy) Label() string {
	switch s.Kind {
	case MOOPTable:
		return fmt.Sprintf("MOOP (Table, Top-%d)", s.TopK)
	case MOOPHybrid:
		return fmt.Sprintf("MOOP (Hybrid, Top-%d)", s.TopK)
	default:
		return "No Compaction"
	}
}

// Spec returns the strategy's policy spec: ΔF and GBHr objectives at the
// strategy's weights, at least 2 small files per candidate, top-k
// selection, and tables compacted in parallel with a table's partitions
// in sequence. The hybrid strategy generates partition-scope work units
// on partitioned tables and defers partitions written in the last 20
// minutes: fine-grained units make the §3.3 recent-write filter usable,
// whereas table-scope candidates on live tables are always "recently
// written".
func (s Strategy) Spec() *policy.Spec {
	sp := policy.DefaultDataSpec(false)
	sp.Name = s.Kind.String()
	sp.Objectives[0].Weight, sp.Objectives[1].Weight = s.BenefitWeight, s.CostWeight
	if s.Kind == MOOPHybrid {
		sp.Generators = []policy.Component{policy.C("hybrid-scope")}
		sp.StatsFilters = append(sp.StatsFilters,
			policy.Component{Name: "candidate-quiet", Params: map[string]any{"min": "20m"}})
	}
	if s.TopK > 0 {
		sp.Selector = policy.TopKSelector(s.TopK)
	}
	sp.Scheduler = &policy.Component{Name: "tables-parallel"}
	return sp
}

// CABRunConfig configures one CAB experiment run.
type CABRunConfig struct {
	Workload workload.CABConfig
	Strategy Strategy
	// SampleEvery is the file-count sampling period (default 10 min).
	SampleEvery time.Duration
	Seed        int64
	// DebugConflicts prints each conflicting compaction op (dev aid).
	DebugConflicts bool
}

// HourStat aggregates one experiment hour.
type HourStat struct {
	Hour int
	// Read-only and read-write query latencies (seconds).
	ROLatencies []float64
	RWLatencies []float64
	// WriteQueries issued in the hour.
	WriteQueries int
	// ClientConflicts counts queries that hit ≥1 commit conflict.
	ClientConflicts int
	// ClusterConflicts counts failed compaction commits.
	ClusterConflicts int
}

// CABResult is the outcome of a CAB run; Figures 6–8 and Table 1 are
// projections of it.
type CABResult struct {
	Strategy Strategy

	// FileCounts samples total live data files over time (Figure 6),
	// relative to workload start.
	FileCounts *metrics.TimeSeries
	// Hours aggregates per-hour client metrics (Figure 8, Table 1).
	Hours []HourStat
	// CompactionGBHrs holds per-operation GBHrApp values (Figure 7).
	CompactionGBHrs []float64
	// CompactionRuns counts trigger firings.
	CompactionRuns int
	// FilesReducedTotal across all compactions.
	FilesReducedTotal int
	// EndToEnd is the workload makespan (last query end − start); the
	// no-compaction baseline overruns the 5-hour window (§6.2).
	EndToEnd time.Duration
	// Queries and Failures count executed queries.
	Queries  int
	Failures int
}

// cabRun holds live state while a CAB experiment executes.
type cabRun struct {
	cfg    CABRunConfig
	env    *Env
	tables map[string]map[string]*lst.Table
	t0     time.Duration
	res    *CABResult
	svc    *core.Service
	runner core.ExecutorRunner
}

// RunCAB executes a full CAB experiment: load, 5 hours of 20-database
// query streams, and (optionally) hourly AutoComp on the dedicated
// compaction cluster.
func RunCAB(cfg CABRunConfig) (*CABResult, error) {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 10 * time.Minute
	}
	if cfg.Strategy.Every <= 0 {
		cfg.Strategy.Every = time.Hour
	}
	if cfg.Strategy.BenefitWeight == 0 && cfg.Strategy.CostWeight == 0 {
		cfg.Strategy.BenefitWeight, cfg.Strategy.CostWeight = 0.7, 0.3
	}
	env := NewEnv(EnvConfig{Seed: cfg.Seed, StrictRewriteConflicts: true})
	r := &cabRun{
		cfg:    cfg,
		env:    env,
		tables: map[string]map[string]*lst.Table{},
		res: &CABResult{
			Strategy:   cfg.Strategy,
			FileCounts: metrics.NewTimeSeries("file-count"),
		},
		runner: core.ExecutorRunner{Exec: env.Exec},
	}

	gen := workload.NewCAB(cfg.Workload)
	plan := gen.Plan()
	if err := r.load(plan); err != nil {
		return nil, err
	}
	if cfg.Strategy.Kind != NoCompaction {
		// Decide-only: runCompaction drives the plan rounds itself.
		_, svc, _, err := policy.CatalogService(cfg.Strategy.Spec(), env.PolicyEnv(), env.CP, nil)
		if err != nil {
			return nil, err
		}
		r.svc = svc
	}
	r.schedule(gen, plan)
	env.Events.RunAll()
	r.finish()
	return r.res, nil
}

// load creates the databases and tables and performs the initial
// (untuned) bulk load; the clock ends at the load's completion, which
// becomes the workload's t0.
func (r *cabRun) load(plan *workload.Plan) error {
	env := r.env
	var loadEnd time.Duration
	for _, dbp := range plan.Databases {
		if _, err := env.CP.CreateDatabase(dbp.Name, "cab", 0); err != nil {
			return err
		}
		r.tables[dbp.Name] = map[string]*lst.Table{}
		months := workload.MonthPartitions(dbp.Months)
		for _, td := range dbp.Tables {
			tbl, err := env.CP.CreateTable(dbp.Name, lst.TableConfig{
				Name:                   td.Name,
				Schema:                 td.Schema,
				Spec:                   td.Spec,
				Mode:                   td.Mode,
				StrictRewriteConflicts: env.Strict,
			})
			if err != nil {
				return err
			}
			r.tables[dbp.Name][td.Name] = tbl
			bytes := workload.SizeOfShare(dbp.RawBytes, td.ShareOfData)
			if td.Spec.IsPartitioned() {
				// Backfills load partitioned tables one partition per
				// job (a month of history each), so large partitioned
				// tables accumulate untuned writer outputs per
				// partition — the dominant fragmentation source (§2).
				perPart := dbp.LoadParallelism / 3
				if perPart < 16 {
					perPart = 16
				}
				for _, part := range months {
					res := env.Engine.Exec(engine.Query{
						App:              "load/" + dbp.Name + "/" + td.Name + "/" + part,
						Table:            tbl,
						Kind:             engine.Insert,
						Bytes:            bytes / int64(len(months)),
						Parallelism:      perPart,
						TargetPartitions: []string{part},
					})
					if res.Failed() {
						return fmt.Errorf("bench: load %s.%s/%s: %w", dbp.Name, td.Name, part, res.Err)
					}
					if end := res.End(); end > loadEnd {
						loadEnd = end
					}
				}
				continue
			}
			res := env.Engine.Exec(engine.Query{
				App:         "load/" + dbp.Name + "/" + td.Name,
				Table:       tbl,
				Kind:        engine.Insert,
				Bytes:       bytes,
				Parallelism: dbp.LoadParallelism,
			})
			if res.Failed() {
				return fmt.Errorf("bench: load %s.%s: %w", dbp.Name, td.Name, res.Err)
			}
			if end := res.End(); end > loadEnd {
				loadEnd = end
			}
		}
	}
	env.Clock.Set(loadEnd)
	r.t0 = loadEnd
	return nil
}

// schedule installs sampling, queries, and compaction triggers.
func (r *cabRun) schedule(gen *workload.Generator, plan *workload.Plan) {
	env, t0 := r.env, r.t0
	dur := plan.Duration

	// File-count sampling (Figure 6), including t0.
	r.sampleFileCount()
	for t := r.cfg.SampleEvery; t <= dur; t += r.cfg.SampleEvery {
		env.Events.ScheduleAt(t0+t, r.sampleFileCount)
	}

	// Query streams.
	for _, dbp := range plan.Databases {
		for _, ev := range gen.Events(dbp) {
			ev := ev
			env.Events.ScheduleAt(t0+ev.At, func() { r.execQuery(ev) })
		}
	}

	// Compaction trigger: hourly on the compaction cluster; four
	// executions in a 5-hour run (§6).
	if r.svc != nil {
		for t := r.cfg.Strategy.Every; t < dur; t += r.cfg.Strategy.Every {
			env.Events.ScheduleAt(t0+t, r.runCompaction)
		}
	}
}

// hourOf buckets a time (relative to t0) into an experiment hour.
func (r *cabRun) hourOf(t time.Duration) int {
	h := int((t - r.t0) / time.Hour)
	if h < 0 {
		h = 0
	}
	for len(r.res.Hours) <= h {
		r.res.Hours = append(r.res.Hours, HourStat{Hour: len(r.res.Hours) + 1})
	}
	return h
}

// sampleFileCount records total live data files across all tables.
func (r *cabRun) sampleFileCount() {
	total := 0
	for _, ts := range r.tables {
		for _, t := range ts {
			total += t.FileCount()
		}
	}
	r.res.FileCounts.Add(r.env.Clock.Now()-r.t0, float64(total))
}

// execQuery runs one workload event.
func (r *cabRun) execQuery(ev workload.Event) {
	env := r.env
	tbl := r.tables[ev.Database][ev.Template.Table]
	if tbl == nil {
		return
	}
	q := engine.Query{
		App:            ev.Stream + "/" + ev.Template.Name,
		Table:          tbl,
		Kind:           ev.Template.Kind,
		ScanFraction:   ev.Template.ScanFraction,
		Bytes:          ev.Template.WriteBytes,
		ModifyFraction: ev.Template.ModifyFraction,
		Parallelism:    ev.Template.Parallelism,
	}
	if n := ev.Template.RecentPartitions; n > 0 && tbl.Spec().IsPartitioned() {
		parts := tbl.Partitions()
		if len(parts) > n {
			parts = parts[len(parts)-n:]
		}
		if q.Kind == engine.Read {
			q.ScanPartitions = parts
		} else {
			q.TargetPartitions = parts
		}
	}
	r.res.Queries++
	if q.Kind == engine.Read {
		res := env.Engine.Exec(q)
		h := r.hourOf(res.Start)
		r.res.Hours[h].ROLatencies = append(r.res.Hours[h].ROLatencies,
			(res.QueueDelay + res.ExecTime).Seconds())
		r.noteResult(res)
		return
	}
	h := r.hourOf(env.Clock.Now())
	r.res.Hours[h].WriteQueries++
	pw := env.Engine.StartWrite(q)
	at := pw.CommitAt()
	if at < env.Clock.Now() {
		at = env.Clock.Now()
	}
	env.Events.ScheduleAt(at, func() {
		res := pw.Finish()
		hh := r.hourOf(res.Start)
		r.res.Hours[hh].RWLatencies = append(r.res.Hours[hh].RWLatencies,
			(res.QueueDelay + res.ExecTime).Seconds())
		if res.Retries > 0 {
			r.res.Hours[hh].ClientConflicts++
		}
		r.noteResult(res)
	})
}

func (r *cabRun) noteResult(res engine.Result) {
	if res.Failed() {
		r.res.Failures++
	}
	if end := res.End() - r.t0; end > r.res.EndToEnd {
		r.res.EndToEnd = end
	}
}

// runCompaction performs one AutoComp cycle: Decide synchronously, then
// execute the plan rounds as two-phase ops interleaved with the workload
// (round i+1 starts once round i's commits finish).
func (r *cabRun) runCompaction() {
	d, err := r.svc.Decide()
	if err != nil {
		return
	}
	r.res.CompactionRuns++
	rep := &core.Report{Decision: d}
	env := r.env

	var runRound func(i int)
	runRound = func(i int) {
		if i >= len(d.Plan) {
			r.svc.Feedback(rep)
			return
		}
		now := env.Clock.Now()
		maxEnd := now
		for _, cand := range d.Plan[i] {
			cand := cand
			op, err := r.runner.StartCandidate(cand)
			if err != nil {
				continue
			}
			end := op.CommitAt()
			if end < now {
				end = now
			}
			if end > maxEnd {
				maxEnd = end
			}
			env.Events.ScheduleAt(end, func() {
				res := op.Finish()
				rep.AddResult(cand, res)
				r.recordCompaction(res)
			})
		}
		env.Events.ScheduleAt(maxEnd, func() { runRound(i + 1) })
	}
	runRound(0)
}

func (r *cabRun) recordCompaction(res compaction.Result) {
	if res.Skipped {
		return
	}
	r.res.CompactionGBHrs = append(r.res.CompactionGBHrs, res.GBHr)
	if res.Conflict {
		h := r.hourOf(r.env.Clock.Now())
		r.res.Hours[h].ClusterConflicts += res.ConflictCount
		if r.cfg.DebugConflicts {
			fmt.Printf("conflict hour=%d table=%s partition=%q dur=%v err=%v\n",
				h+1, res.Table, res.Partition, res.Duration, res.Err)
		}
		return
	}
	if res.Err == nil {
		r.res.FilesReducedTotal += res.Reduction()
	}
}

// finish takes a final file-count sample.
func (r *cabRun) finish() {
	r.sampleFileCount()
}
