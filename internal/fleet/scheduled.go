package fleet

import (
	"fmt"
	"time"

	"autocomp/internal/core"
	"autocomp/internal/scheduler"
	"autocomp/internal/sim"
)

// SchedOptions parameterizes the fleet's concurrent execution plane.
type SchedOptions struct {
	// Workers is the number of concurrent compaction job slots.
	Workers int
	// Shards is the number of GBHr budget shards tables hash onto.
	Shards int
	// ShardBudgetGBHr is each shard's per-cycle budget (0 = unlimited).
	// Exhausted shards backpressure their remaining jobs to next cycle.
	ShardBudgetGBHr float64
	// WriterCommitsPerHour is the fleet-wide rate of live writer commits
	// racing the compactor during the execution window (0 = quiet lake).
	WriterCommitsPerHour float64
	// StalenessBound is how many snapshot versions a table may advance
	// under a running job before its commit aborts and retries (0 = any
	// concurrent writer commit conflicts; <0 disables the check).
	StalenessBound int64
	// MaxAttempts bounds per-job retries (0 = scheduler default).
	MaxAttempts int
	// RetryBase and RetryMax bound the exponential backoff between
	// attempts (zero values take the scheduler defaults).
	RetryBase time.Duration
	RetryMax  time.Duration
	// AgingRatePerHour is the priority points a queued job gains per
	// hour of waiting (0 = scheduler default, negative disables).
	AgingRatePerHour float64
}

// ScheduledService is a decision service with a concurrent execution
// plane replacing the serial act loop: each cycle's ranked plan feeds a
// priority queue drained by Workers job slots over Shards budget shards,
// with per-table leases and optimistic-concurrency commit (retry on
// writer conflict). Every action type the service decides on (data
// compaction and the maintenance actions) dispatches through the same
// plane. ServiceFromSpec builds one when the spec has an execution
// section.
type ScheduledService struct {
	fleet *Fleet
	svc   *core.Service
	model CompactionModel
	opts  SchedOptions
}

// ScheduleService attaches the execution plane to an already-built
// decision pipeline.
func (f *Fleet) ScheduleService(svc *core.Service, model CompactionModel, opts SchedOptions) *ScheduledService {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	return &ScheduledService{fleet: f, svc: svc, model: model, opts: opts}
}

// Service returns the underlying decision pipeline.
func (s *ScheduledService) Service() *core.Service { return s.svc }

// RunCycle performs one OODA cycle with concurrent execution: Decide as
// usual, then drain the selected candidates through a worker pool on a
// discrete-event sub-simulation of the execution window. Live writers
// keep committing to hot tables during the window at the configured
// rate, so compaction jobs race them exactly as in §4.4. The cycle is
// deterministic given the fleet seed.
func (s *ScheduledService) RunCycle() (*core.Report, scheduler.Stats, error) {
	if s.svc.Runner() == nil {
		return nil, scheduler.Stats{}, fmt.Errorf("fleet: scheduled service needs a Runner to execute")
	}
	dec, err := s.svc.Decide()
	if err != nil {
		return nil, scheduler.Stats{}, err
	}

	// The execution window runs on a sub-clock so fleet time (which
	// AdvanceDay owns) does not double-advance.
	sub := sim.NewClock()
	sub.Set(s.fleet.clock.Now())
	q := sim.NewEventQueue(sub)
	// Incremental-mode bookkeeping (conflict re-dirty, maintenance
	// events) flows through the changefeed and the service's OnReport
	// hooks, which s.svc.Feedback runs below — the pool needs no
	// per-job observer here.
	pool := scheduler.New(scheduler.Config{
		Workers:          s.opts.Workers,
		Shards:           s.opts.Shards,
		ShardBudgetGBHr:  s.opts.ShardBudgetGBHr,
		StalenessBound:   s.opts.StalenessBound,
		MaxAttempts:      s.opts.MaxAttempts,
		RetryBase:        s.opts.RetryBase,
		RetryMax:         s.opts.RetryMax,
		AgingRatePerHour: s.opts.AgingRatePerHour,
		ServiceTime:      scheduler.EstimatedServiceTime(s.model.ExecutorMemoryGB),
		Seed:             s.fleet.rngExec.Int63(),
	}, s.svc.Runner(), sub)
	pool.Submit(dec.Selected)

	if s.opts.WriterCommitsPerHour > 0 && len(dec.Selected) > 0 {
		s.scheduleWriters(q, pool, dec.Selected)
	}

	stats := scheduler.RunSim(pool, q)
	rep := &core.Report{Decision: dec}
	pool.FoldInto(rep)
	s.svc.Feedback(rep)
	return rep, stats, nil
}

// scheduleWriters models the live write traffic racing the compactor:
// commits arrive at the configured fleet-wide rate and land mostly on
// the tables being compacted — precisely the high-churn tables whose
// writers made them worth compacting (§4.1, §4.4).
func (s *ScheduledService) scheduleWriters(q *sim.EventQueue, pool *scheduler.Pool, selected []*core.Candidate) {
	wrng := s.fleet.rngExec.Fork()
	hot := make([]*Table, 0, len(selected))
	seen := make(map[string]bool, len(selected))
	for _, c := range selected {
		if t, ok := c.Table.(*Table); ok && !seen[t.FullName()] {
			seen[t.FullName()] = true
			hot = append(hot, t)
		}
	}
	if len(hot) == 0 {
		return
	}
	interval := time.Duration(float64(time.Hour) / s.opts.WriterCommitsPerHour)
	var tick func()
	tick = func() {
		var t *Table
		if wrng.Bernoulli(0.7) || len(s.fleet.tables) == 0 {
			t = hot[wrng.Intn(len(hot))]
		} else {
			t = s.fleet.tables[wrng.Intn(len(s.fleet.tables))]
		}
		t.WriterCommit(int64(wrng.IntBetween(1, 20)))
		if !pool.Idle() {
			q.ScheduleAfter(time.Duration(wrng.Jitter(float64(interval), 0.3)), tick)
		}
	}
	q.ScheduleAfter(time.Duration(wrng.Jitter(float64(interval), 0.3)), tick)
}
