package tenant

import (
	"fmt"
	"sync"

	"autocomp/internal/scenario"
	"autocomp/internal/telemetry"
)

// RunStatus is a scenario run's execution state.
type RunStatus string

// Run states. Terminal states are done and failed.
const (
	RunPending RunStatus = "pending"
	RunRunning RunStatus = "running"
	RunDone    RunStatus = "done"
	RunFailed  RunStatus = "failed"
)

// MaxFinishedRuns caps the finished runs a tenant retains. Each keeps
// its tracer events and canonical trace bytes, so a long-lived daemon
// evicts the oldest finished run past the cap; pending and running runs
// are never evicted. An evicted ID answers like an unknown one.
const MaxFinishedRuns = 32

// Run is one scenario execution submitted to a tenant over the
// management API. The engine runs on its own goroutine with its own
// fleet, clock, and RNG streams (scenario engines never touch the
// tenant's live lake), emitting per-cycle CycleEvents on a private
// tracer that the API streams as JSONL and, on completion, producing
// the canonical trace bytes golden files are compared against.
type Run struct {
	id     string
	tenant string
	spec   *scenario.Spec
	tracer *telemetry.Tracer

	mu     sync.Mutex
	status RunStatus
	day    int
	trace  []byte
	err    error
	done   chan struct{}
}

// RunInfo is a run's JSON summary.
type RunInfo struct {
	ID       string    `json:"id"`
	Tenant   string    `json:"tenant"`
	Scenario string    `json:"scenario"`
	Seed     int64     `json:"seed"`
	Days     int       `json:"days"`
	Status   RunStatus `json:"status"`
	Day      int       `json:"day"`
	Error    string    `json:"error,omitempty"`
}

// ID returns the run's tenant-scoped identifier ("r1", "r2", ...).
func (r *Run) ID() string { return r.id }

// Tracer returns the run's private decision-trace stream.
func (r *Run) Tracer() *telemetry.Tracer { return r.tracer }

// Done is closed when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Info returns the run's summary.
func (r *Run) Info() RunInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	info := RunInfo{
		ID:       r.id,
		Tenant:   r.tenant,
		Scenario: r.spec.Name,
		Seed:     r.spec.Seed,
		Days:     r.spec.Days,
		Status:   r.status,
		Day:      r.day,
	}
	if r.err != nil {
		info.Error = r.err.Error()
	}
	return info
}

// Trace returns the canonical scenario trace bytes (nil until the run
// is done) — the exact bytes golden files under examples/scenarios/
// golden/ hold, so remote clients can diff against committed goldens.
func (r *Run) Trace() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace
}

// Events returns the run's CycleEvents with tracer sequence numbers
// greater than afterSeq, oldest first — the streaming cursor for the
// JSONL events endpoint.
func (r *Run) Events(afterSeq int64) []telemetry.CycleEvent {
	all := r.tracer.Recent(r.spec.Days + 1)
	out := make([]telemetry.CycleEvent, 0, len(all))
	for _, ev := range all {
		if ev.Seq > afterSeq {
			out = append(out, ev)
		}
	}
	return out
}

// SubmitRun validates spec and starts it on its own goroutine,
// returning the registered run immediately. The run is independent of
// the tenant's live lake; only its telemetry carries the tenant label.
func (t *Tenant) SubmitRun(spec *scenario.Spec) (*Run, error) {
	if spec == nil {
		return nil, fmt.Errorf("tenant %s: nil scenario spec", t.cfg.Name)
	}
	if err := spec.Validate(); err != nil {
		mTenantRuns.With(t.cfg.Name, "rejected").Inc()
		return nil, err
	}
	t.mu.Lock()
	t.nextRun++
	r := &Run{
		id:     fmt.Sprintf("r%d", t.nextRun),
		tenant: t.cfg.Name,
		spec:   spec,
		tracer: telemetry.NewTracer(spec.Days + 1),
		status: RunPending,
		done:   make(chan struct{}),
	}
	t.runs[r.id] = r
	t.runIDs = append(t.runIDs, r.id)
	t.mu.Unlock()
	go r.execute(t)
	return r, nil
}

// pruneRuns evicts the oldest finished runs beyond MaxFinishedRuns,
// keeping submission order.
func (t *Tenant) pruneRuns() {
	t.mu.Lock()
	defer t.mu.Unlock()
	excess := -MaxFinishedRuns
	for _, id := range t.runIDs {
		if t.runs[id].finished() {
			excess++
		}
	}
	if excess <= 0 {
		return
	}
	kept := t.runIDs[:0]
	for _, id := range t.runIDs {
		if excess > 0 && t.runs[id].finished() {
			delete(t.runs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	t.runIDs = kept
}

// Run returns the identified run.
func (t *Tenant) Run(id string) (*Run, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.runs[id]
	return r, ok
}

// Runs returns the tenant's runs in submission order.
func (t *Tenant) Runs() []*Run {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Run, 0, len(t.runIDs))
	for _, id := range t.runIDs {
		out = append(out, t.runs[id])
	}
	return out
}

// execute drives the scenario engine to completion, stepping day by
// day so Info reports live progress, then prunes t's finished runs
// before signalling Done.
func (r *Run) execute(t *Tenant) {
	defer close(r.done)
	defer t.pruneRuns()
	eng, err := scenario.NewEngineOpts(r.spec, scenario.EngineOptions{
		Tenant: r.tenant,
		Tracer: r.tracer,
	})
	if err != nil {
		r.finish(nil, err)
		return
	}
	r.setStatus(RunRunning)
	for day := 1; day <= r.spec.Days; day++ {
		if err := eng.StepDay(); err != nil {
			r.finish(nil, err)
			return
		}
		r.mu.Lock()
		r.day = day
		r.mu.Unlock()
	}
	r.finish(eng.Finalize().Marshal(), nil)
}

// finished reports whether the run reached a terminal state.
func (r *Run) finished() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status == RunDone || r.status == RunFailed
}

func (r *Run) setStatus(s RunStatus) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.status = s
}

func (r *Run) finish(trace []byte, err error) {
	r.mu.Lock()
	if err != nil {
		r.status = RunFailed
		r.err = err
	} else {
		r.status = RunDone
		r.trace = trace
	}
	tenant, status := r.tenant, string(r.status)
	r.mu.Unlock()
	mTenantRuns.With(tenant, status).Inc()
}
