// Package scheduler is AutoComp's concurrent execution plane: it takes
// the ranked, selected candidates a core.Service decided on and runs them
// on a pool of W workers over S budget shards, instead of the serial
// one-after-another loop of the act phase.
//
// The plane models what a production compaction fleet actually contends
// with (§4.4, §7; see also "Online Bigtable Merge Compaction",
// arXiv:1407.3008, for scheduling merges under resource constraints):
//
//   - a priority job queue fed by the ranked plan, with linear aging so a
//     low-priority table that keeps losing to fresh high-priority work
//     still runs eventually (no starvation);
//   - per-table exclusive leases — two jobs never touch one table
//     concurrently, the discipline that produced zero cluster-side
//     conflicts in Table 1;
//   - optimistic-concurrency commit: a job records the table's snapshot
//     version when it starts and re-reads it at commit time; if live
//     writers advanced the table past the staleness bound, the job
//     conflicts and retries with bounded exponential backoff;
//   - per-shard GBHr budgets with backpressure: tables hash onto S budget
//     shards, and once a shard's spend reaches its budget mid-cycle its
//     remaining jobs are deferred to the next cycle;
//   - simulated service times on a sim.Clock/sim.EventQueue, so a drained
//     cycle is reproducible from a seed.
//
// The Pool itself is a single-threaded state machine; RunSim (sim.go) is
// its driver.
package scheduler

import (
	"fmt"
	"sort"
	"time"

	"autocomp/internal/compaction"
	"autocomp/internal/core"
	"autocomp/internal/sim"
)

// Versioned is implemented by tables that expose a monotonically
// increasing snapshot/commit version. Tables that do not implement it are
// treated as never advancing (no commit conflicts arise).
type Versioned interface {
	Version() int64
}

// Config parameterizes a Pool.
type Config struct {
	// Workers is the number of concurrent job slots W (min 1).
	Workers int
	// Shards is the number of budget shards S tables hash onto (min 1).
	Shards int
	// ShardBudgetGBHr is each shard's per-cycle compute budget.
	// Admission reserves each in-flight job's estimated cost, so a
	// burst of dispatches cannot overrun the budget by more than one
	// job per shard; once committed spend reaches the budget, the
	// shard's remaining jobs are deferred to the next cycle
	// (backpressure). Zero or negative means unlimited.
	ShardBudgetGBHr float64

	// StalenessBound is how many versions a table may advance between
	// job start and commit before the commit aborts and retries. The
	// default 0 means any concurrent writer commit forces a retry;
	// negative disables the check entirely.
	StalenessBound int64
	// MaxAttempts bounds retries per job (total attempts; min 1). Zero
	// means DefaultMaxAttempts.
	MaxAttempts int
	// RetryBase and RetryMax bound the exponential backoff between
	// attempts: attempt n waits min(RetryBase·2^(n−1), RetryMax) with
	// ±20% deterministic jitter. Zero values take the defaults.
	RetryBase time.Duration
	RetryMax  time.Duration

	// AgingRatePerHour is how many priority points a queued job gains
	// per hour of waiting (linear aging). Zero means DefaultAgingRate;
	// negative disables aging.
	AgingRatePerHour float64

	// ServiceTime models how long a job occupies its worker before it is
	// ready to commit. Nil uses EstimatedServiceTime with
	// DefaultExecutorMemoryGB.
	ServiceTime func(*core.Candidate) time.Duration

	// Seed drives the deterministic backoff jitter.
	Seed int64
}

// Defaults.
const (
	// DefaultMaxAttempts is the retry budget when Config.MaxAttempts is
	// unset.
	DefaultMaxAttempts = 4
	// DefaultRetryBase is the first backoff window when Config.RetryBase
	// is unset.
	DefaultRetryBase = 30 * time.Second
	// DefaultRetryMax caps the exponential backoff when Config.RetryMax
	// is unset.
	DefaultRetryMax = 8 * time.Minute
	// DefaultAgingRate is the priority points a queued job gains per
	// hour when Config.AgingRatePerHour is unset.
	DefaultAgingRate = 1.0
	// DefaultExecutorMemoryGB prices service times from the
	// compute_cost_gbhr trait when no ServiceTime is configured.
	DefaultExecutorMemoryGB = 64.0
	// MinServiceTime floors modeled service times: even a trivial job
	// pays scheduling and startup latency.
	MinServiceTime = 30 * time.Second
)

func (cfg Config) withDefaults() Config {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = DefaultRetryMax
	}
	if cfg.AgingRatePerHour == 0 {
		cfg.AgingRatePerHour = DefaultAgingRate
	} else if cfg.AgingRatePerHour < 0 {
		cfg.AgingRatePerHour = 0
	}
	if cfg.ServiceTime == nil {
		cfg.ServiceTime = EstimatedServiceTime(DefaultExecutorMemoryGB)
	}
	return cfg
}

// EstimatedServiceTime derives a job's service time from its decide-time
// compute_cost_gbhr trait: GBHr over the executor memory yields hours of
// occupancy, floored at MinServiceTime.
func EstimatedServiceTime(executorMemoryGB float64) func(*core.Candidate) time.Duration {
	if executorMemoryGB <= 0 {
		executorMemoryGB = DefaultExecutorMemoryGB
	}
	return func(c *core.Candidate) time.Duration {
		gbhr := c.Trait(core.ComputeCost{}.Name())
		d := time.Duration(gbhr / executorMemoryGB * float64(time.Hour))
		if d < MinServiceTime {
			d = MinServiceTime
		}
		return d
	}
}

// Status is a job's lifecycle state.
type Status int

// Job states. Queued and Running are transient; the rest are terminal
// for the cycle.
const (
	// StatusQueued means the job awaits dispatch (or a backoff window).
	StatusQueued Status = iota
	// StatusRunning means the job occupies a worker slot.
	StatusRunning
	// StatusDone means the job committed (or its runner skipped it).
	StatusDone
	// StatusConflicted means the job exhausted its attempts on commit
	// conflicts.
	StatusConflicted
	// StatusDeferred means the job's shard ran out of budget mid-cycle
	// (backpressure): it never ran and should re-enter next cycle.
	StatusDeferred
	// StatusFailed means the runner reported an error.
	StatusFailed
)

// String renders the status name.
func (s Status) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusDone:
		return "done"
	case StatusConflicted:
		return "conflicted"
	case StatusDeferred:
		return "deferred"
	case StatusFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Job is one scheduled work unit wrapping a selected candidate.
type Job struct {
	Candidate *core.Candidate
	// Shard is the budget shard the job's table hashes onto.
	Shard int
	// BasePriority comes from rank order at submission (higher = runs
	// earlier); aging adds to it while the job waits.
	BasePriority float64
	// Status is the job's current lifecycle state.
	Status Status
	// Attempts counts execution attempts (including the successful one).
	Attempts int
	// Result is the executed outcome (terminal states only).
	Result compaction.Result

	// Enqueued, Started, Finished are pool-clock instants; Waited is the
	// total time spent queued across attempts.
	Enqueued time.Duration
	Started  time.Duration
	Finished time.Duration
	Waited   time.Duration

	seq          int64
	readyAt      time.Duration
	startVersion int64
	queuedSince  time.Duration
	// estCost is the decide-time compute_cost_gbhr estimate, reserved
	// against the shard budget while the job is in flight.
	estCost float64
	// wastedGBHr accumulates the cost of commit-aborted attempts: the
	// work ran for its full service time and was thrown away, so it
	// still burns budget (the same convention as the two-phase
	// executor, which charges GBHr on conflicted rewrites).
	wastedGBHr float64
}

// key is the time-independent priority sort key. Comparing
// base + rate·(now − enqueued) across jobs is equivalent to comparing
// base − rate·enqueued, so linear aging never needs re-sorting.
func (j *Job) key(rate float64) float64 {
	return j.BasePriority - rate*j.Enqueued.Hours()
}

// Stats summarizes one drained cycle.
type Stats struct {
	Workers   int
	Shards    int
	Submitted int

	Done       int
	Skipped    int // runner reported nothing to do
	Conflicted int // terminal: attempts exhausted
	Deferred   int // shard budget backpressure
	Failed     int

	// Conflicts counts every aborted commit; Retries counts the aborts
	// that were re-queued (Conflicts − terminal conflict aborts).
	Conflicts int
	Retries   int

	// Makespan is first-dispatch to last-completion on the pool clock.
	Makespan time.Duration
	// BusyTime sums service time across workers; utilization is
	// BusyTime / (Workers × Makespan).
	BusyTime time.Duration
	// TotalWait sums queue waiting time across jobs and attempts.
	TotalWait time.Duration

	// MaxQueueDepth and MeanQueueDepth sample the pending-queue length
	// at every dispatch.
	MaxQueueDepth  int
	MeanQueueDepth float64
	depthSum       float64
	depthSamples   int

	// MaxWorkersBusy is the peak number of jobs in flight at once
	// (bounded by Workers). Per-table concurrency is always ≤ 1 — the
	// lease manager panics on a violation.
	MaxWorkersBusy int

	// SpentGBHr is committed compute per shard.
	SpentGBHr []float64
}

// Utilization returns BusyTime over total worker-time.
func (s Stats) Utilization() float64 {
	if s.Makespan <= 0 || s.Workers <= 0 {
		return 0
	}
	return s.BusyTime.Hours() / (float64(s.Workers) * s.Makespan.Hours())
}

// TotalSpentGBHr sums shard spend.
func (s Stats) TotalSpentGBHr() float64 {
	var t float64
	for _, v := range s.SpentGBHr {
		t += v
	}
	return t
}

// String renders the one-line operator summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"scheduler: %d jobs on %dw/%ds: done=%d skipped=%d conflicted=%d deferred=%d failed=%d | conflicts=%d retries=%d | makespan=%v util=%.0f%% qdepth max=%d mean=%.1f",
		s.Submitted, s.Workers, s.Shards, s.Done, s.Skipped, s.Conflicted,
		s.Deferred, s.Failed, s.Conflicts, s.Retries,
		s.Makespan.Round(time.Second), 100*s.Utilization(),
		s.MaxQueueDepth, s.MeanQueueDepth)
}

// Pool is the scheduler state machine. It is not safe for concurrent
// use; RunSim drives it from one goroutine.
type Pool struct {
	cfg    Config
	clock  *sim.Clock
	runner core.Runner
	rng    *sim.RNG

	pending  []*Job // sorted by key desc, seq asc
	jobs     []*Job // submission order
	leases   map[string]*Job
	running  int
	spent    []float64
	reserved []float64 // estimated GBHr of in-flight jobs, per shard
	inFlight []int     // in-flight job count per shard
	seq      int64

	started    bool
	firstStart time.Duration
	lastFinish time.Duration
	stats      Stats

	// notify, when set by a driver, is called after Submit enqueues new
	// jobs so idle workers pick them up mid-run.
	notify func()
}

// New builds a pool that executes jobs with runner and reads time from
// clock, which must be the clock of the event queue RunSim drains it on.
func New(cfg Config, runner core.Runner, clock *sim.Clock) *Pool {
	cfg = cfg.withDefaults()
	return &Pool{
		cfg:      cfg,
		clock:    clock,
		runner:   runner,
		rng:      sim.NewRNG(cfg.Seed),
		leases:   make(map[string]*Job),
		spent:    make([]float64, cfg.Shards),
		reserved: make([]float64, cfg.Shards),
		inFlight: make([]int, cfg.Shards),
		stats:    Stats{Workers: cfg.Workers, Shards: cfg.Shards},
	}
}

// ShardOf returns the budget shard a table hashes onto. It delegates to
// core.ShardOf, the system-wide shard mapping, so budget shards and
// decide shards always align for a given table.
func ShardOf(fullName string, shards int) int {
	return core.ShardOf(fullName, shards)
}

// Submit enqueues the ranked, selected candidates. Rank order sets base
// priority: the first candidate gets the highest.
func (p *Pool) Submit(selected []*core.Candidate) {
	now := p.clock.Now()
	for i, c := range selected {
		p.seq++
		j := &Job{
			Candidate:    c,
			Shard:        ShardOf(c.Table.FullName(), p.cfg.Shards),
			BasePriority: float64(len(selected) - i),
			Enqueued:     now,
			queuedSince:  now,
			seq:          p.seq,
		}
		if est := c.Trait(core.ComputeCost{}.Name()); est > 0 {
			j.estCost = est
		}
		p.jobs = append(p.jobs, j)
		p.enqueue(j)
		p.stats.Submitted++
		mSubmitted.Inc()
	}
	mQueueDepth.Set(float64(len(p.pending)))
	if len(selected) > 0 && p.notify != nil {
		p.notify()
	}
}

// enqueue inserts j into pending, keeping key-desc, seq-asc order.
func (p *Pool) enqueue(j *Job) {
	j.Status = StatusQueued
	rate := p.cfg.AgingRatePerHour
	i := sort.Search(len(p.pending), func(i int) bool {
		ki, kj := p.pending[i].key(rate), j.key(rate)
		if ki != kj {
			return ki < kj
		}
		return p.pending[i].seq > j.seq
	})
	p.pending = append(p.pending, nil)
	copy(p.pending[i+1:], p.pending[i:])
	p.pending[i] = j
}

// next pops the highest-priority runnable job, or nil. A job is runnable
// when its backoff window has passed, no lease is held on its table, and
// its shard still has budget. Jobs whose shard is exhausted are deferred
// on the spot (backpressure). earliestReady reports the soonest backoff
// expiry among the jobs skipped for backoff (0 when none), so the driver
// knows when to wake.
func (p *Pool) next(now time.Duration) (j *Job, earliestReady time.Duration) {
	for i := 0; i < len(p.pending); i++ {
		cand := p.pending[i]
		if p.shardExhausted(cand.Shard) {
			// Backpressure: this shard is out of budget for the cycle.
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
			i--
			cand.Status = StatusDeferred
			cand.Finished = now
			cand.Result = compaction.Result{
				Table:   cand.Candidate.Table.FullName(),
				Skipped: true,
				// Conflict-aborted attempts before the deferral already
				// burned budget; keep the report consistent with spend.
				GBHr: cand.wastedGBHr,
			}
			p.stats.Deferred++
			mDeferrals.Inc()
			mJobs.With("deferred").Inc()
			// Deferral is a terminal outcome: it closes the makespan
			// window like any other finish (a retried job can be
			// deferred after the last successful commit).
			p.noteFinish(now)
			continue
		}
		if cand.readyAt > now {
			if earliestReady == 0 || cand.readyAt < earliestReady {
				earliestReady = cand.readyAt
			}
			continue
		}
		if _, held := p.leases[cand.Candidate.Table.FullName()]; held {
			mLeaseWaits.Inc()
			continue
		}
		if !p.shardAdmits(cand) {
			// Reserved in-flight estimates would bust the budget: the job
			// stays queued and is reconsidered when a commit releases its
			// reservation.
			continue
		}
		p.pending = append(p.pending[:i], p.pending[i+1:]...)
		return cand, earliestReady
	}
	return nil, earliestReady
}

func (p *Pool) shardExhausted(shard int) bool {
	return p.cfg.ShardBudgetGBHr > 0 && p.spent[shard] >= p.cfg.ShardBudgetGBHr
}

// shardAdmits applies reservation-aware admission: committed spend plus
// the estimates of in-flight jobs plus this job's estimate must fit the
// budget. A shard with nothing in flight always admits one job while
// budget remains (progress guarantee — gated on the integer in-flight
// count, not the float reservation sum, which can carry rounding
// residue), so overshoot is bounded by one job per shard rather than one
// per worker.
func (p *Pool) shardAdmits(j *Job) bool {
	if p.cfg.ShardBudgetGBHr <= 0 {
		return true
	}
	if p.inFlight[j.Shard] == 0 {
		return true // shardExhausted already ruled out spent ≥ budget
	}
	return p.spent[j.Shard]+p.reserved[j.Shard]+j.estCost <= p.cfg.ShardBudgetGBHr
}

// dispatch marks j running under its table lease and records the start
// snapshot version for the commit-time staleness check.
func (p *Pool) dispatch(j *Job, now time.Duration) {
	name := j.Candidate.Table.FullName()
	if prev, held := p.leases[name]; held {
		panic(fmt.Sprintf("scheduler: lease violation on %s (held by job %d)", name, prev.seq))
	}
	p.leases[name] = j
	p.reserved[j.Shard] += j.estCost
	p.inFlight[j.Shard]++
	p.running++
	if p.running > p.stats.MaxWorkersBusy {
		p.stats.MaxWorkersBusy = p.running
	}
	j.Status = StatusRunning
	j.Attempts++
	j.Started = now
	j.Waited += now - j.queuedSince
	p.stats.TotalWait += now - j.queuedSince
	mWaitTime.Observe((now - j.queuedSince).Seconds())
	mWorkersBusy.Set(float64(p.running))
	mQueueDepth.Set(float64(len(p.pending)))
	j.startVersion = p.versionOf(j.Candidate.Table)
	if !p.started {
		p.started = true
		p.firstStart = now
	}
	p.stats.depthSum += float64(len(p.pending))
	p.stats.depthSamples++
	if len(p.pending) > p.stats.MaxQueueDepth {
		p.stats.MaxQueueDepth = len(p.pending)
	}
}

func (p *Pool) versionOf(t core.Table) int64 {
	if v, ok := t.(Versioned); ok {
		return v.Version()
	}
	return 0
}

// commit finishes a job whose service time elapsed: it re-reads the
// table's snapshot version and either retries (writers advanced the table
// past the staleness bound) or executes the runner and charges the shard.
// It returns true when the job reached a terminal state.
func (p *Pool) commit(j *Job, now time.Duration) bool {
	name := j.Candidate.Table.FullName()
	if p.leases[name] != j {
		panic(fmt.Sprintf("scheduler: commit without lease on %s", name))
	}
	delete(p.leases, name)
	p.running--
	p.reserved[j.Shard] -= j.estCost
	p.inFlight[j.Shard]--
	if p.inFlight[j.Shard] <= 0 || p.reserved[j.Shard] < 0 {
		// Zero the reservation when the shard empties: interleaved float
		// adds and subtracts can leave residue that would otherwise
		// poison the admission arithmetic.
		p.reserved[j.Shard] = 0
	}
	p.stats.BusyTime += now - j.Started

	mWorkersBusy.Set(float64(p.running))

	if p.cfg.StalenessBound >= 0 {
		if adv := p.versionOf(j.Candidate.Table) - j.startVersion; adv > p.cfg.StalenessBound {
			p.stats.Conflicts++
			mConflicts.Inc()
			// The aborted attempt ran for its full service time: its
			// estimated cost is burned budget, not a free pass.
			j.wastedGBHr += j.estCost
			p.spent[j.Shard] += j.estCost
			mSchedSpend.Add(j.estCost)
			if j.Attempts >= p.cfg.MaxAttempts {
				j.Status = StatusConflicted
				mJobs.With("conflicted").Inc()
				j.Finished = now
				j.Result = compaction.Result{
					Table:         name,
					Conflict:      true,
					ConflictCount: j.Attempts,
					GBHr:          j.wastedGBHr,
				}
				p.noteFinish(now)
				return true
			}
			p.stats.Retries++
			mRetries.Inc()
			j.readyAt = now + p.backoff(j.Attempts)
			j.queuedSince = now
			p.enqueue(j)
			return false
		}
	}

	res := p.runner.Run(j.Candidate)
	p.spent[j.Shard] += res.GBHr
	mSchedSpend.Add(res.GBHr)
	// Earlier aborted attempts were already charged to the shard; fold
	// them into the job's reported cost so Report.ActualGBHr sees the
	// retries' wasted work too.
	res.GBHr += j.wastedGBHr
	j.Result = res
	j.Finished = now
	switch {
	case res.Err != nil:
		j.Status = StatusFailed
		p.stats.Failed++
		mJobs.With("failed").Inc()
	case res.Conflict:
		j.Status = StatusConflicted
		p.stats.Conflicts++
		mConflicts.Inc()
		mJobs.With("conflicted").Inc()
	case res.Skipped:
		j.Status = StatusDone
		p.stats.Skipped++
		mJobs.With("skipped").Inc()
	default:
		j.Status = StatusDone
		p.stats.Done++
		mJobs.With("done").Inc()
	}
	p.noteFinish(now)
	return true
}

// noteFinish records a terminal transition: it closes the makespan
// window.
func (p *Pool) noteFinish(now time.Duration) {
	if now > p.lastFinish {
		p.lastFinish = now
	}
}

// backoff returns the wait before attempt n+1: exponential in the attempt
// count, capped, with ±20% deterministic jitter.
func (p *Pool) backoff(attempt int) time.Duration {
	d := p.cfg.RetryBase
	for i := 1; i < attempt && d < p.cfg.RetryMax; i++ {
		d *= 2
	}
	if d > p.cfg.RetryMax {
		d = p.cfg.RetryMax
	}
	return time.Duration(p.rng.Jitter(float64(d), 0.2))
}

// serviceTime models j's worker occupancy.
func (p *Pool) serviceTime(j *Job) time.Duration {
	d := p.cfg.ServiceTime(j.Candidate)
	if d <= 0 {
		d = MinServiceTime
	}
	return d
}

// finalize closes the books on a drained cycle: terminal-conflict and
// queue-depth aggregates, makespan, and the per-shard spend snapshot.
func (p *Pool) finalize() Stats {
	p.stats.Conflicted = 0
	for _, j := range p.jobs {
		if j.Status == StatusConflicted {
			p.stats.Conflicted++
		}
	}
	if p.started {
		p.stats.Makespan = p.lastFinish - p.firstStart
		mMakespan.Observe(p.stats.Makespan.Seconds())
		mOccupancy.Observe(p.stats.Utilization())
	}
	if p.stats.depthSamples > 0 {
		p.stats.MeanQueueDepth = p.stats.depthSum / float64(p.stats.depthSamples)
	}
	p.stats.SpentGBHr = append([]float64(nil), p.spent...)
	return p.stats
}

// Jobs returns every submitted job in submission order (inspect after the
// driver drains the pool).
func (p *Pool) Jobs() []*Job { return p.jobs }

// Idle reports whether the pool has neither queued nor running jobs.
func (p *Pool) Idle() bool { return len(p.pending) == 0 && p.running == 0 }

// FoldInto adds every terminal job's outcome to a core report, so the
// scheduled act phase feeds the same estimator/feedback loop as the
// serial one.
func (p *Pool) FoldInto(rep *core.Report) {
	for _, j := range p.jobs {
		switch j.Status {
		case StatusQueued, StatusRunning:
			continue
		}
		rep.AddResult(j.Candidate, j.Result)
	}
}
