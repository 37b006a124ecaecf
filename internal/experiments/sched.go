package experiments

import (
	"fmt"
	"time"

	"autocomp/internal/fleet"
	"autocomp/internal/metrics"
	"autocomp/internal/policy"
	"autocomp/internal/scheduler"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// --- Concurrent execution plane: makespan and writer conflicts ---

// SchedWorkerSample is one worker-count point of the makespan sweep.
type SchedWorkerSample struct {
	Workers     int
	Jobs        int
	Makespan    time.Duration
	Utilization float64
	// Speedup is makespan(1 worker) / makespan(this).
	Speedup float64
}

// SchedWriterSample is one writer-rate point of the conflict sweep.
type SchedWriterSample struct {
	WriterRate float64 // commits/hour fleet-wide
	Conflicts  int
	Retries    int
	Conflicted int // jobs that exhausted their attempts
	Done       int
	// ConflictRate is aborted commits over total commit attempts.
	ConflictRate float64
}

// SchedResult characterizes the scheduler subsystem: how makespan scales
// with worker count on one fixed ranked plan (per-table leases and
// budgets limiting the parallelism), and how the optimistic-commit
// conflict rate grows with the live writer rate (§4.4's
// writer-vs-compactor races; scheduling merges under resource
// constraints per arXiv:1407.3008).
type SchedResult struct {
	ByWorkers []SchedWorkerSample
	ByWriters []SchedWriterSample
}

// ID implements Result.
func (SchedResult) ID() string { return "sched" }

// Title implements Result.
func (SchedResult) Title() string {
	return "Execution plane: makespan vs workers, commit conflicts vs writer rate"
}

// Render implements Result.
func (r SchedResult) Render() string {
	rows := make([][]string, 0, len(r.ByWorkers))
	for _, s := range r.ByWorkers {
		rows = append(rows, []string{
			fmt.Sprintf("%d", s.Workers),
			fmt.Sprintf("%d", s.Jobs),
			s.Makespan.Round(time.Second).String(),
			fmt.Sprintf("%.0f%%", 100*s.Utilization),
			fmt.Sprintf("%.2fx", s.Speedup),
		})
	}
	body := metrics.RenderTable(
		[]string{"Workers", "Jobs", "Makespan", "Utilization", "Speedup"}, rows)
	rows = rows[:0]
	for _, s := range r.ByWriters {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f/h", s.WriterRate),
			fmt.Sprintf("%d", s.Conflicts),
			fmt.Sprintf("%d", s.Retries),
			fmt.Sprintf("%d", s.Conflicted),
			fmt.Sprintf("%d", s.Done),
			fmt.Sprintf("%.1f%%", 100*s.ConflictRate),
		})
	}
	body += "\n" + metrics.RenderTable(
		[]string{"Writer rate", "Conflicts", "Retries", "Gave up", "Done", "Conflict rate"}, rows)
	return body
}

// RunSched ages one fleet per configuration point from the same seed (so
// every point decides the same ranked plan) and runs a single scheduled
// maintenance cycle, sweeping worker count with quiet writers and then
// writer rate at a fixed worker count.
func RunSched(seed int64, quick bool) (Result, error) {
	ageDays := 5
	tables := 600
	if quick {
		ageDays, tables = 3, 300
	}
	model := fleet.DefaultModel(512 * storage.MB)

	runCycle := func(workers int, writerRate float64) (scheduler.Stats, error) {
		cfg := fleetConfig(seed, quick)
		cfg.InitialTables = tables
		f := fleet.New(cfg, sim.NewClock())
		for d := 0; d < ageDays; d++ {
			f.AdvanceDay()
		}
		spec := policy.DefaultSpec()
		spec.Selector = policy.TopKSelector(120)
		spec.Execution = &policy.ExecutionSpec{Workers: workers, Shards: 4}
		ss, err := f.ServiceFromSpec(spec, model, fleet.SpecRunOptions{WriterCommitsPerHour: writerRate})
		if err != nil {
			return scheduler.Stats{}, err
		}
		_, stats, err := ss.Sched.RunCycle()
		return stats, err
	}

	res := SchedResult{}
	var base time.Duration
	for _, w := range []int{1, 2, 4, 8, 16} {
		st, err := runCycle(w, 0)
		if err != nil {
			return nil, err
		}
		s := SchedWorkerSample{
			Workers:     w,
			Jobs:        st.Submitted,
			Makespan:    st.Makespan,
			Utilization: st.Utilization(),
		}
		if w == 1 {
			base = st.Makespan
		}
		if st.Makespan > 0 {
			s.Speedup = float64(base) / float64(st.Makespan)
		}
		res.ByWorkers = append(res.ByWorkers, s)
	}

	for _, rate := range []float64{0, 30, 120, 480} {
		st, err := runCycle(8, rate)
		if err != nil {
			return nil, err
		}
		attempts := st.Done + st.Skipped + st.Failed + st.Conflicts
		s := SchedWriterSample{
			WriterRate: rate,
			Conflicts:  st.Conflicts,
			Retries:    st.Retries,
			Conflicted: st.Conflicted,
			Done:       st.Done,
		}
		if attempts > 0 {
			s.ConflictRate = float64(st.Conflicts) / float64(attempts)
		}
		res.ByWriters = append(res.ByWriters, s)
	}
	return res, nil
}

func init() {
	register(Spec{ExpID: "sched", Title: SchedResult{}.Title(), Run: RunSched})
}
