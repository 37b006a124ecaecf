package fleet

import (
	"reflect"
	"testing"

	"autocomp/internal/core"
	"autocomp/internal/policy"
	"autocomp/internal/scheduler"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

func schedFleet(seed int64) *Fleet {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.InitialTables = 300
	f := New(cfg, sim.NewClock())
	for d := 0; d < 3; d++ {
		f.AdvanceDay()
	}
	return f
}

func runSchedCycle(t *testing.T, seed int64, opts SchedOptions) (*core.Report, scheduler.Stats) {
	t.Helper()
	f := schedFleet(seed)
	spec := policy.DefaultSpec()
	spec.Execution = &policy.ExecutionSpec{Workers: opts.Workers, Shards: opts.Shards, ShardBudgetGBHr: opts.ShardBudgetGBHr}
	ss := specService(t, f, spec, policy.TopKSelector(40), SpecRunOptions{WriterCommitsPerHour: opts.WriterCommitsPerHour})
	rep, stats, err := ss.Sched.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	return rep, stats
}

func TestScheduledCycleExecutesPlan(t *testing.T) {
	rep, stats := runSchedCycle(t, 1, SchedOptions{Workers: 4, Shards: 2})
	if stats.Submitted == 0 || stats.Done == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(rep.Results) != stats.Submitted {
		t.Fatalf("report results = %d, submitted = %d", len(rep.Results), stats.Submitted)
	}
	if rep.FilesReduced <= 0 {
		t.Fatalf("files reduced = %d", rep.FilesReduced)
	}
	if stats.MaxWorkersBusy > 4 {
		t.Fatalf("workers busy = %d > 4", stats.MaxWorkersBusy)
	}
}

func TestScheduledMakespanShrinksWithWorkers(t *testing.T) {
	// Same seed ⇒ identical fleet and identical ranked plan; only the
	// worker count differs. The seed is chosen so the top-40 plan is not
	// dominated by one makespan-setting giant job.
	_, s1 := runSchedCycle(t, 7, SchedOptions{Workers: 1, Shards: 1})
	_, s8 := runSchedCycle(t, 7, SchedOptions{Workers: 8, Shards: 1})
	if s1.Submitted != s8.Submitted {
		t.Fatalf("plans differ: %d vs %d jobs", s1.Submitted, s8.Submitted)
	}
	if s8.Makespan >= s1.Makespan {
		t.Fatalf("8-worker makespan %v not below 1-worker %v", s8.Makespan, s1.Makespan)
	}
	if ratio := float64(s1.Makespan) / float64(s8.Makespan); ratio < 2 {
		t.Fatalf("speedup only %.2fx", ratio)
	}
}

func TestScheduledCycleDeterministic(t *testing.T) {
	opts := SchedOptions{Workers: 8, Shards: 4, WriterCommitsPerHour: 60}
	rep1, s1 := runSchedCycle(t, 7, opts)
	rep2, s2 := runSchedCycle(t, 7, opts)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats differ:\n%+v\n%+v", s1, s2)
	}
	if rep1.FilesReduced != rep2.FilesReduced || rep1.ActualGBHr != rep2.ActualGBHr ||
		rep1.Conflicts != rep2.Conflicts || len(rep1.Results) != len(rep2.Results) {
		t.Fatalf("reports differ: %+v vs %+v", rep1, rep2)
	}
	for i := range rep1.Results {
		a, b := rep1.Results[i], rep2.Results[i]
		if a.Candidate.ID() != b.Candidate.ID() || a.Result != b.Result {
			t.Fatalf("result %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestScheduledWritersCauseConflictRetries(t *testing.T) {
	_, quiet := runSchedCycle(t, 3, SchedOptions{Workers: 8, Shards: 4})
	if quiet.Conflicts != 0 {
		t.Fatalf("quiet lake saw %d conflicts", quiet.Conflicts)
	}
	_, busy := runSchedCycle(t, 3, SchedOptions{Workers: 8, Shards: 4, WriterCommitsPerHour: 240})
	if busy.Conflicts == 0 {
		t.Fatal("racing writers produced no commit conflicts")
	}
	// Retries recover most conflicts: some jobs still finish.
	if busy.Done == 0 {
		t.Fatalf("no jobs completed under writer pressure: %+v", busy)
	}
}

func TestScheduledShardBackpressure(t *testing.T) {
	_, stats := runSchedCycle(t, 1, SchedOptions{Workers: 8, Shards: 2, ShardBudgetGBHr: 50})
	if stats.Deferred == 0 {
		t.Fatalf("tight shard budget deferred nothing: %+v", stats)
	}
	for shard, spent := range stats.SpentGBHr {
		// A shard may overshoot by at most one in-flight job; it must
		// never admit new work once exhausted. With ≤8 workers the
		// overshoot is bounded by workers × max job cost; just check
		// spend is recorded per shard.
		if spent < 0 {
			t.Fatalf("shard %d spend negative: %v", shard, spent)
		}
	}
}

func TestScheduledDispatchesMetadataActions(t *testing.T) {
	rep, _ := runSchedCycle(t, 2, SchedOptions{Workers: 8, Shards: 2})
	counts := rep.ActionCounts()
	metadata := counts[core.ActionSnapshotExpiry] + counts[core.ActionMetadataCheckpoint] +
		counts[core.ActionManifestRewrite]
	if counts[core.ActionDataCompaction] == 0 || metadata == 0 {
		t.Fatalf("action mix = %v; want data and metadata actions through the scheduler", counts)
	}
}

func TestScheduledCycleNeedsRunner(t *testing.T) {
	f := schedFleet(1)
	decideOnly, err := core.NewService(core.Config{
		Connector: Connector{Fleet: f},
		Generator: core.TableScopeGenerator{},
		Observer:  Observer{Fleet: f},
		Traits:    []core.Trait{core.FileCountReduction{}},
		Ranker:    core.ThresholdPolicy{Trait: core.FileCountReduction{}, Threshold: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := f.ScheduleService(decideOnly, DefaultModel(512*storage.MB), SchedOptions{Workers: 8, Shards: 4})
	if _, _, err := sched.RunCycle(); err == nil {
		t.Fatal("RunCycle on a decide-only service did not error")
	}
}

func TestTableProps(t *testing.T) {
	f := schedFleet(1)
	tb := f.Tables()[0]
	if got := tb.Prop("partitioned"); got != "true" && got != "false" {
		t.Fatalf("partitioned prop = %q", got)
	}
	if tb.Prop("partitions") == "" || tb.Prop("scan_share") == "" {
		t.Fatal("derived props empty")
	}
	if tb.Prop("nope") != "" {
		t.Fatal("unknown prop not empty")
	}
	tb.SetProp("intermediate", "true")
	if tb.Prop("intermediate") != "true" {
		t.Fatal("SetProp did not stick")
	}
	// The §4.1 NotIntermediate filter is now live against fleet tables.
	keep := core.NotIntermediate{}
	if keep.Keep(&core.Candidate{Table: tb}) {
		t.Fatal("NotIntermediate kept a tagged intermediate table")
	}
	if !keep.Keep(&core.Candidate{Table: f.Tables()[1]}) {
		t.Fatal("NotIntermediate dropped an untagged table")
	}
}

func TestWriterCommitAdvancesVersion(t *testing.T) {
	f := schedFleet(1)
	tb := f.Tables()[0]
	v0, files0 := tb.Version(), tb.FileCount()
	tb.WriterCommit(10)
	if tb.Version() != v0+1 {
		t.Fatalf("version %d -> %d, want +1", v0, tb.Version())
	}
	if tb.FileCount() != files0+10 {
		t.Fatalf("file count %d -> %d, want +10", files0, tb.FileCount())
	}
	tb.WriterCommit(-5)
	if tb.FileCount() != files0+10 {
		t.Fatal("negative writer commit added files")
	}
}
