package scheduler

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"autocomp/internal/compaction"
	"autocomp/internal/core"
	"autocomp/internal/lst"
	"autocomp/internal/sim"
)

// memTable is a minimal core.Table whose snapshot version a test writer
// can advance.
type memTable struct {
	name    string
	version atomic.Int64
}

func (t *memTable) Database() string                       { return "db" }
func (t *memTable) Name() string                           { return t.name }
func (t *memTable) FullName() string                       { return "db." + t.name }
func (t *memTable) Spec() lst.PartitionSpec                { return lst.PartitionSpec{} }
func (t *memTable) Mode() lst.WriteMode                    { return lst.CopyOnWrite }
func (t *memTable) Prop(string) string                     { return "" }
func (t *memTable) Created() time.Duration                 { return 0 }
func (t *memTable) LastWrite() time.Duration               { return 0 }
func (t *memTable) WriteCount() int64                      { return 0 }
func (t *memTable) FileCount() int                         { return 100 }
func (t *memTable) TotalBytes() int64                      { return 1 << 30 }
func (t *memTable) Partitions() []string                   { return nil }
func (t *memTable) LiveFiles() []lst.DataFile              { return nil }
func (t *memTable) FilesInPartition(string) []lst.DataFile { return nil }
func (t *memTable) Version() int64                         { return t.version.Load() }

// cand builds a candidate whose compute_cost_gbhr trait yields the given
// service time under EstimatedServiceTime(64).
func cand(t *memTable, serviceHours float64) *core.Candidate {
	return &core.Candidate{
		Table:  t,
		Traits: map[string]float64{core.ComputeCost{}.Name(): serviceHours * 64},
	}
}

// okRunner succeeds instantly with the given GBHr per job.
func okRunner(gbhr float64) core.Runner {
	return core.RunnerFunc(func(c *core.Candidate) compaction.Result {
		return compaction.Result{
			Table:        c.Table.FullName(),
			FilesRemoved: 10,
			FilesAdded:   1,
			GBHr:         gbhr,
		}
	})
}

func newSimPool(cfg Config, r core.Runner) (*Pool, *sim.EventQueue) {
	clock := sim.NewClock()
	q := sim.NewEventQueue(clock)
	return New(cfg, r, clock), q
}

// assertNoTableOverlap checks the acceptance invariant: no two jobs of
// the same table have overlapping [Started, Finished) execution windows.
func assertNoTableOverlap(t *testing.T, jobs []*Job) {
	t.Helper()
	byTable := map[string][]*Job{}
	for _, j := range jobs {
		if j.Attempts == 0 {
			continue
		}
		name := j.Candidate.Table.FullName()
		byTable[name] = append(byTable[name], j)
	}
	for name, js := range byTable {
		for i := 0; i < len(js); i++ {
			for k := i + 1; k < len(js); k++ {
				a, b := js[i], js[k]
				if a.Started < b.Finished && b.Started < a.Finished {
					t.Fatalf("table %s executed concurrently: [%v,%v) and [%v,%v)",
						name, a.Started, a.Finished, b.Started, b.Finished)
				}
			}
		}
	}
}

func TestSimDrainsAllJobs(t *testing.T) {
	p, q := newSimPool(Config{Workers: 3, Shards: 2, Seed: 1}, okRunner(5))
	var cands []*core.Candidate
	for i := 0; i < 12; i++ {
		cands = append(cands, cand(&memTable{name: fmt.Sprintf("t%02d", i)}, 0.5))
	}
	p.Submit(cands)
	st := RunSim(p, q)
	if st.Submitted != 12 || st.Done != 12 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Makespan <= 0 {
		t.Fatalf("makespan = %v", st.Makespan)
	}
	if st.MaxWorkersBusy != 3 {
		t.Fatalf("peak busy workers = %d, want 3", st.MaxWorkersBusy)
	}
	if st.Utilization() <= 0 || st.Utilization() > 1.0001 {
		t.Fatalf("utilization = %v", st.Utilization())
	}
	assertNoTableOverlap(t, p.Jobs())
}

func TestMakespanDecreasesWithWorkers(t *testing.T) {
	makespan := func(workers int) time.Duration {
		p, q := newSimPool(Config{Workers: workers, Seed: 1}, okRunner(5))
		var cands []*core.Candidate
		for i := 0; i < 32; i++ {
			cands = append(cands, cand(&memTable{name: fmt.Sprintf("t%02d", i)}, 1))
		}
		p.Submit(cands)
		return RunSim(p, q).Makespan
	}
	m1, m8 := makespan(1), makespan(8)
	if m8 >= m1 {
		t.Fatalf("8 workers (%v) not faster than 1 (%v)", m8, m1)
	}
	// 32 equal 1h jobs: serial ≈ 32h, 8-way ≈ 4h.
	if ratio := float64(m1) / float64(m8); ratio < 6 {
		t.Fatalf("speedup %0.1fx, want ≥6x for 32 uniform jobs on 8 workers", ratio)
	}
}

func TestSameTableJobsNeverOverlap(t *testing.T) {
	// 4 jobs per table on 3 tables with 8 workers: leases must force
	// per-table serial execution even with idle workers available.
	p, q := newSimPool(Config{Workers: 8, Seed: 1}, okRunner(1))
	tables := []*memTable{{name: "a"}, {name: "b"}, {name: "c"}}
	var cands []*core.Candidate
	for i := 0; i < 4; i++ {
		for _, tb := range tables {
			cands = append(cands, cand(tb, 1))
		}
	}
	p.Submit(cands)
	st := RunSim(p, q)
	if st.Done != 12 {
		t.Fatalf("done = %d", st.Done)
	}
	if st.MaxWorkersBusy > 3 {
		t.Fatalf("more jobs in flight (%d) than distinct tables (3)", st.MaxWorkersBusy)
	}
	assertNoTableOverlap(t, p.Jobs())
}

func TestConflictRetriesThenSucceeds(t *testing.T) {
	tb := &memTable{name: "hot"}
	p, q := newSimPool(Config{Workers: 1, Seed: 1}, okRunner(1))
	p.Submit([]*core.Candidate{cand(tb, 1)})
	// A writer commits mid-execution (service time is 1h): the first
	// commit attempt must conflict, the retry must succeed.
	q.ScheduleAt(30*time.Minute, func() { tb.version.Add(1) })
	st := RunSim(p, q)
	if st.Conflicts != 1 || st.Retries != 1 || st.Done != 1 || st.Conflicted != 0 {
		t.Fatalf("stats = %+v", st)
	}
	j := p.Jobs()[0]
	if j.Attempts != 2 || j.Status != StatusDone {
		t.Fatalf("job = %+v", j)
	}
	// The aborted first attempt burned its estimated 64 GBHr (1h × 64GB)
	// on top of the successful run's 1 GBHr.
	if got := st.TotalSpentGBHr(); got != 65 {
		t.Fatalf("spent = %v, want 65 (64 wasted + 1 committed)", got)
	}
	if j.Result.GBHr != 65 {
		t.Fatalf("result GBHr = %v, want wasted attempts included", j.Result.GBHr)
	}
}

func TestConflictExhaustsAttempts(t *testing.T) {
	tb := &memTable{name: "hot"}
	p, q := newSimPool(Config{Workers: 1, MaxAttempts: 3, Seed: 1}, okRunner(1))
	p.Submit([]*core.Candidate{cand(tb, 1)})
	// A writer that commits every 10 minutes defeats every attempt.
	tick := func() {}
	tick = func() {
		tb.version.Add(1)
		if !p.Idle() {
			q.ScheduleAfter(10*time.Minute, tick)
		}
	}
	q.ScheduleAfter(10*time.Minute, tick)
	st := RunSim(p, q)
	if st.Conflicted != 1 || st.Done != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Conflicts != 3 || st.Retries != 2 {
		t.Fatalf("conflicts=%d retries=%d, want 3/2", st.Conflicts, st.Retries)
	}
	j := p.Jobs()[0]
	if j.Status != StatusConflicted || !j.Result.Conflict || j.Result.ConflictCount != 3 {
		t.Fatalf("job = %+v result = %+v", j, j.Result)
	}
	// All three aborted attempts cost their estimated 64 GBHr each.
	if j.Result.GBHr != 192 || st.TotalSpentGBHr() != 192 {
		t.Fatalf("GBHr = %v spent = %v, want 192/192", j.Result.GBHr, st.TotalSpentGBHr())
	}
}

func TestStalenessBoundTolerance(t *testing.T) {
	tb := &memTable{name: "warm"}
	p, q := newSimPool(Config{Workers: 1, StalenessBound: 2, Seed: 1}, okRunner(1))
	p.Submit([]*core.Candidate{cand(tb, 1)})
	// Two writer commits during execution are within the bound of 2.
	q.ScheduleAt(20*time.Minute, func() { tb.version.Add(1) })
	q.ScheduleAt(40*time.Minute, func() { tb.version.Add(1) })
	st := RunSim(p, q)
	if st.Conflicts != 0 || st.Done != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShardBudgetBackpressure(t *testing.T) {
	// One shard, 10 GBHr budget, 6 GBHr per job: the first job commits
	// and pushes spend to 6 (< 10), the second commits too (12 ≥ 10),
	// every remaining job is deferred on sight.
	p, q := newSimPool(Config{Workers: 1, Shards: 1, ShardBudgetGBHr: 10, Seed: 1}, okRunner(6))
	var cands []*core.Candidate
	for i := 0; i < 5; i++ {
		cands = append(cands, cand(&memTable{name: fmt.Sprintf("t%d", i)}, 1))
	}
	p.Submit(cands)
	st := RunSim(p, q)
	if st.Done != 2 || st.Deferred != 3 {
		t.Fatalf("done=%d deferred=%d, want 2/3", st.Done, st.Deferred)
	}
	if got := st.TotalSpentGBHr(); got != 12 {
		t.Fatalf("spent = %v", got)
	}
	for _, j := range p.Jobs() {
		if j.Status == StatusDeferred && !j.Result.Skipped {
			t.Fatalf("deferred job result not marked skipped: %+v", j.Result)
		}
	}
}

func TestShardsArbitrateIndependently(t *testing.T) {
	// Two tables that hash to different shards; budget admits one job per
	// shard. Both shards should commit one job each.
	names := []string{}
	for i := 0; len(names) < 2; i++ {
		n := fmt.Sprintf("t%d", i)
		if len(names) == 0 || ShardOf("db."+n, 2) != ShardOf("db."+names[0], 2) {
			names = append(names, n)
		}
	}
	p, q := newSimPool(Config{Workers: 2, Shards: 2, ShardBudgetGBHr: 5, Seed: 1}, okRunner(6))
	p.Submit([]*core.Candidate{
		cand(&memTable{name: names[0]}, 1), cand(&memTable{name: names[0]}, 1),
		cand(&memTable{name: names[1]}, 1), cand(&memTable{name: names[1]}, 1),
	})
	st := RunSim(p, q)
	if st.Done != 2 || st.Deferred != 2 {
		t.Fatalf("done=%d deferred=%d, want 2/2", st.Done, st.Deferred)
	}
}

func TestShardReservationBoundsOvershoot(t *testing.T) {
	// Eight 9-GBHr jobs against a single 10-GBHr shard with eight idle
	// workers: without in-flight reservations all eight would dispatch
	// at t=0 and spend 72 GBHr. Reservations admit one at a time, so
	// exactly two commit (the second is the bounded overshoot) and the
	// rest feel backpressure.
	var cands []*core.Candidate
	for i := 0; i < 8; i++ {
		cands = append(cands, &core.Candidate{
			Table:  &memTable{name: fmt.Sprintf("t%d", i)},
			Traits: map[string]float64{core.ComputeCost{}.Name(): 9},
		})
	}
	p, q := newSimPool(Config{Workers: 8, Shards: 1, ShardBudgetGBHr: 10, Seed: 1}, okRunner(9))
	p.Submit(cands)
	st := RunSim(p, q)
	if st.Done != 2 || st.Deferred != 6 {
		t.Fatalf("done=%d deferred=%d, want 2/6", st.Done, st.Deferred)
	}
	if got := st.TotalSpentGBHr(); got != 18 {
		t.Fatalf("spent = %v, want 18 (≤ one job of overshoot)", got)
	}
}

func TestShardAdmissionSurvivesFloatResidue(t *testing.T) {
	// Interleaved reservation adds/releases leave float residue (0.1 +
	// 0.3 − 0.1 − 0.3 ≠ 0); the progress guarantee must key off the
	// integer in-flight count, or the last job is stranded forever.
	mk := func(name string, est float64) *core.Candidate {
		return &core.Candidate{
			Table:  &memTable{name: name},
			Traits: map[string]float64{core.ComputeCost{}.Name(): est},
		}
	}
	p, q := newSimPool(Config{Workers: 2, Shards: 1, ShardBudgetGBHr: 10, Seed: 1}, okRunner(0.5))
	p.Submit([]*core.Candidate{mk("a", 0.1), mk("b", 0.3), mk("c", 9.95)})
	st := RunSim(p, q)
	if st.Done != 3 {
		t.Fatalf("stats = %+v; float residue stranded a job", st)
	}
}

func TestAgingPreventsStarvation(t *testing.T) {
	// Low-priority job a is submitted at t=0 behind b1, which occupies
	// the single worker for 24 hours. Twelve hours in, a burst of eight
	// fresher, higher-base-priority jobs lands. With linear aging, a's
	// 12 hours of waiting outweigh the burst's rank advantage; without
	// aging the burst starves it.
	run := func(agingRate float64) []string {
		clock := sim.NewClock()
		q := sim.NewEventQueue(clock)
		var order []string
		r := core.RunnerFunc(func(c *core.Candidate) compaction.Result {
			order = append(order, c.Table.FullName())
			return compaction.Result{Table: c.Table.FullName(), FilesRemoved: 2, FilesAdded: 1}
		})
		p := New(Config{Workers: 1, AgingRatePerHour: agingRate, Seed: 1}, r, clock)
		p.Submit([]*core.Candidate{cand(&memTable{name: "b1"}, 24), cand(&memTable{name: "a"}, 1)})
		q.ScheduleAt(12*time.Hour, func() {
			var burst []*core.Candidate
			for i := 0; i < 8; i++ {
				burst = append(burst, cand(&memTable{name: fmt.Sprintf("b2-%d", i)}, 1))
			}
			p.Submit(burst)
		})
		RunSim(p, q)
		return order
	}
	if order := run(DefaultAgingRate); order[1] != "db.a" {
		t.Fatalf("with aging, order = %v, want a second", order)
	}
	if order := run(-1); order[1] == "db.a" {
		t.Fatalf("without aging, order = %v, want the burst to preempt a", order)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (Stats, []Status, []time.Duration) {
		p, q := newSimPool(Config{Workers: 4, Shards: 4, ShardBudgetGBHr: 40, MaxAttempts: 3, Seed: 9}, okRunner(7))
		tables := make([]*memTable, 10)
		var cands []*core.Candidate
		for i := range tables {
			tables[i] = &memTable{name: fmt.Sprintf("t%02d", i)}
			cands = append(cands, cand(tables[i], 0.5+0.25*float64(i%4)))
			if i%2 == 0 {
				cands = append(cands, cand(tables[i], 0.25))
			}
		}
		p.Submit(cands)
		// A deterministic writer races the pool.
		wrng := sim.NewRNG(3)
		var tick func()
		tick = func() {
			tables[wrng.Intn(len(tables))].version.Add(1)
			if !p.Idle() {
				q.ScheduleAfter(13*time.Minute, tick)
			}
		}
		q.ScheduleAfter(13*time.Minute, tick)
		st := RunSim(p, q)
		var statuses []Status
		var finishes []time.Duration
		for _, j := range p.Jobs() {
			statuses = append(statuses, j.Status)
			finishes = append(finishes, j.Finished)
		}
		return st, statuses, finishes
	}
	s1, st1, f1 := run()
	s2, st2, f2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats differ:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(st1, st2) || !reflect.DeepEqual(f1, f2) {
		t.Fatalf("job outcomes differ across identical runs")
	}
	if s1.Conflicts == 0 {
		t.Fatal("writer produced no conflicts; test lost its teeth")
	}
}

func TestFoldIntoReport(t *testing.T) {
	p, q := newSimPool(Config{Workers: 1, Shards: 1, ShardBudgetGBHr: 10, Seed: 1}, okRunner(6))
	var cands []*core.Candidate
	for i := 0; i < 3; i++ {
		cands = append(cands, cand(&memTable{name: fmt.Sprintf("t%d", i)}, 1))
	}
	p.Submit(cands)
	RunSim(p, q)
	rep := &core.Report{}
	p.FoldInto(rep)
	if len(rep.Results) != 3 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	if rep.FilesReduced != 18 { // two committed jobs × (10−1)
		t.Fatalf("files reduced = %d", rep.FilesReduced)
	}
	if rep.Skipped != 1 {
		t.Fatalf("skipped = %d", rep.Skipped)
	}
}

func TestMidRunSubmitToIdlePool(t *testing.T) {
	// The first wave drains completely before an event submits a second
	// wave: the late submission must wake the (fully idle) workers
	// instead of stranding the jobs in the queue.
	p, q := newSimPool(Config{Workers: 2, Seed: 1}, okRunner(1))
	p.Submit([]*core.Candidate{cand(&memTable{name: "early"}, 1)})
	q.ScheduleAt(6*time.Hour, func() {
		p.Submit([]*core.Candidate{cand(&memTable{name: "late"}, 1)})
	})
	st := RunSim(p, q)
	if st.Done != 2 {
		t.Fatalf("done = %d, want both waves executed", st.Done)
	}
	late := p.Jobs()[1]
	if late.Started < 6*time.Hour {
		t.Fatalf("late job started at %v, before it was submitted", late.Started)
	}
}

func TestRunSimRejectsForeignClock(t *testing.T) {
	p := New(Config{Workers: 1}, okRunner(1), sim.NewClock())
	q := sim.NewEventQueue(sim.NewClock())
	defer func() {
		if recover() == nil {
			t.Fatal("RunSim with a foreign clock did not panic")
		}
	}()
	RunSim(p, q)
}

func TestShardOf(t *testing.T) {
	if ShardOf("db.t", 1) != 0 {
		t.Fatal("single shard must map to 0")
	}
	for i := 0; i < 100; i++ {
		s := ShardOf(fmt.Sprintf("db.t%d", i), 7)
		if s < 0 || s >= 7 {
			t.Fatalf("shard out of range: %d", s)
		}
		if s != ShardOf(fmt.Sprintf("db.t%d", i), 7) {
			t.Fatal("ShardOf not stable")
		}
	}
}

func TestEstimatedServiceTime(t *testing.T) {
	st := EstimatedServiceTime(64)
	c := &core.Candidate{Traits: map[string]float64{core.ComputeCost{}.Name(): 128}}
	if got := st(c); got != 2*time.Hour {
		t.Fatalf("service time = %v, want 2h", got)
	}
	if got := st(&core.Candidate{}); got != MinServiceTime {
		t.Fatalf("floor = %v", got)
	}
}

func TestStatusStrings(t *testing.T) {
	want := map[Status]string{
		StatusQueued: "queued", StatusRunning: "running", StatusDone: "done",
		StatusConflicted: "conflicted", StatusDeferred: "deferred",
		StatusFailed: "failed", Status(99): "unknown",
	}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
}
