package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"autocomp/internal/changefeed"
	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/lstlog"
	"autocomp/internal/policy"
	"autocomp/internal/scheduler"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
	"autocomp/internal/telemetry"
	"autocomp/internal/tenant"
)

// Fleet workloads drive the serving daemon's cycle: tenant.New builds
// a 100k-table lake and Tenant.StepCycle runs one observe→decide→act
// cycle on it.
const (
	fleetTables     = 100_000
	writerPerHour   = 30
	tenantName      = "bench"
	setupReps       = 8
	tenantStateFile = "tenants/" + tenantName + "/fleet.json"
	// incrementalReconcile is the reconcile cadence incremental-100k runs
	// the shipped incremental policy with.
	incrementalReconcile = 6
)

// fleetWorkload is one daemon-cycle workload. The number of measured
// cycles is derived from --seconds alone, so every run of a workload
// does the same work for a given seed.
type fleetWorkload struct {
	name      string
	tables    int
	writeProb float64
	// spec builds the policy; storeRoot is the durable store's root.
	spec func(repo, storeRoot string) (*policy.Spec, error)
	// runSPerCycle converts --seconds into a measured cycle count: the
	// run time one measured cycle accounts for on the reference host,
	// its share of restarts and checks included.
	runSPerCycle float64
	// minCycles is the fewest measured cycles a run makes.
	minCycles int
	// warmup cycles run before the measured ones.
	warmup int
	// durable workloads persist the lake to a log store. Their measured
	// cycles are replays: the store is rewound to the state the warm-up
	// left, a fresh tenant restarts from it, and runs the next day again.
	durable bool
}

var fleetWorkloads = []fleetWorkload{
	{
		name:         "fullscan-100k",
		tables:       fleetTables,
		writeProb:    1,
		spec:         func(string, string) (*policy.Spec, error) { return policy.DefaultSpec(), nil },
		runSPerCycle: 5,
		// One cycle's time scatters by up to a fifth around the median on
		// a shared 2-vCPU host, so a run takes the median of six.
		minCycles: 6,
		// Day 1 does little work. Day 2 works off the initial small-file
		// backlog and is measured with days 3-7.
		warmup: 1,
	},
	{
		name:      "topk-durable-100k",
		tables:    fleetTables,
		writeProb: 1,
		spec: func(_, storeRoot string) (*policy.Spec, error) {
			sp := policy.DefaultSpec()
			sp.Selector = &policy.Component{Name: "top-k", Params: map[string]any{"k": float64(50)}}
			sp.Storage = &policy.StorageSpec{Backend: policy.StorageBackendLog, Root: storeRoot, Fsync: lstlog.FsyncAlways}
			return sp, nil
		},
		// A replay is one timed restart and one timed cycle.
		runSPerCycle: 3.3,
		// The lake grows every day (top-k 50 compacts few of the 100k
		// tables that write daily), so measured cycles replay one day
		// instead of running on: replays of one day are the same work.
		minCycles: 8,
		// Day 2 works off the initial backlog and its cost depends on the
		// seed; day 3 is replayed.
		warmup:  2,
		durable: true,
	},
	{
		name:      "incremental-100k",
		tables:    fleetTables,
		writeProb: 0.1,
		spec: func(repo, _ string) (*policy.Spec, error) {
			b, err := os.ReadFile(filepath.Join(repo, "examples", "policies", "incremental-fleet.json"))
			if err != nil {
				return nil, err
			}
			sp, err := policy.Parse(b)
			if err != nil {
				return nil, err
			}
			if sp.Trigger == nil {
				return nil, errors.New("incremental-fleet.json has no trigger section")
			}
			// The shipped policy reconciles on every 12th cycle. Reaching
			// it would take twelve 3-4 s cycles a run, more than the
			// benchmark's time allows, so the run reconciles on cycle 6.
			sp.Trigger.ReconcileEvery = incrementalReconcile
			return sp, nil
		},
		runSPerCycle: 3,
		// Cycle 1 is the cold-start full scan; cycles 2-7 are measured and
		// include the reconcile.
		minCycles: incrementalReconcile,
		warmup:    1,
	},
}

func (w fleetWorkload) tenantConfig(seed int64) tenant.Config {
	return tenant.Config{
		Name:                 tenantName,
		Seed:                 seed,
		Days:                 1 << 20,
		InitialTables:        w.tables,
		DailyWriteProb:       w.writeProb,
		WriterCommitsPerHour: writerPerHour,
	}
}

// fleetConfig mirrors tenant.Config's mapping onto the fleet substrate
// for the traced pass, which builds the fleet itself.
func (w fleetWorkload) fleetConfig(seed int64) fleet.Config {
	fc := fleet.DefaultConfig()
	fc.Seed = seed
	fc.InitialTables = w.tables
	fc.DailyWriteProb = w.writeProb
	return fc
}

func (w fleetWorkload) measuredCycles(seconds float64) int {
	n := int(seconds/w.runSPerCycle + 0.5)
	if n < w.minCycles {
		n = w.minCycles
	}
	return n
}

// fleetPass is what one pass over a fleet workload measured.
type fleetPass struct {
	ops
	setupS    []float64
	warmS     []float64 // warm-up cycles, and the reference day a durable run replays
	cycleS    []float64 // measured cycles only
	restartS  []float64
	allocB    []float64 // TotalAlloc per measured cycle
	liveHeapB []float64 // HeapAlloc after GC, per measured cycle
	tables    []float64 // fleet size per measured cycle
	objects   float64
	gbhr      float64
	// fps maps each simulated day to its cycle fingerprint.
	fps map[int]string
}

// cycleFingerprint digests a cycle's canonical outcome: the trace event
// without its host/sequence fields, the selected candidate IDs in rank
// order, and (durable) the persisted lake state.
func cycleFingerprint(ev telemetry.CycleEvent, rep *core.Report, persisted []byte) string {
	ev.Seq, ev.WallMS, ev.Tenant = 0, 0, ""
	h := sha256.New()
	b, _ := json.Marshal(ev)
	h.Write(b)
	for _, c := range rep.Decision.Selected {
		h.Write([]byte(c.ID()))
		h.Write([]byte{'\n'})
	}
	h.Write(persisted)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// untracedTenant drives the production entry points with no tracing.
type untracedTenant struct {
	t   *tenant.Tenant
	ev  telemetry.CycleEvent
	rep *core.Report
}

func newUntraced(cfg tenant.Config, sp *policy.Spec) (*untracedTenant, time.Duration, error) {
	u := &untracedTenant{}
	start := time.Now()
	t, err := tenant.New(cfg, sp, tenant.Options{OnCycle: func(ev telemetry.CycleEvent, rep *core.Report) {
		u.ev, u.rep = ev, rep
	}})
	d := time.Since(start)
	u.t = t
	return u, d, err
}

func (u *untracedTenant) step() (time.Duration, error) {
	start := time.Now()
	err := u.t.StepCycle()
	return time.Since(start), err
}

// fingerprint digests the cycle just run; a durable tenant's persisted
// state is read back from its store.
func (u *untracedTenant) fingerprint(storeRoot string) (string, error) {
	var persisted []byte
	if storeRoot != "" {
		b, err := os.ReadFile(filepath.Join(storeRoot, filepath.FromSlash(tenantStateFile)))
		if err != nil {
			return "", err
		}
		persisted = b
	}
	return cycleFingerprint(u.ev, u.rep, persisted), nil
}

// heapAfterGC returns the live heap after gcs forced collections. A
// durable tenant needs two: the second frees what the first only demoted
// from sync.Pool caches (the JSON encoder's buffers hold a whole fleet
// snapshot), so the figure does not depend on when the last automatic
// collection ran. An in-memory tenant pools nothing that large, and one
// collection of its heap takes a third of a second.
func heapAfterGC(gcs int) float64 {
	for i := 0; i < gcs; i++ {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func totalAlloc() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc)
}

// runFleetUntraced runs a workload through tenant.New/StepCycle: set-up
// repetitions, warm-up cycles, the measured cycles, and restarts.
func runFleetUntraced(env *runEnv, w fleetWorkload, reps int) *fleetPass {
	p := &fleetPass{fps: map[int]string{}}
	storeRoot := ""
	if w.durable {
		storeRoot = env.scratch("store-untraced")
	}
	sp, err := w.spec(env.repo, storeRoot)
	if err != nil {
		p.fail("load policy: %v", err)
		return p
	}
	cfg := w.tenantConfig(env.seed)
	gcs := 1
	if w.durable {
		gcs = 2
	}

	// boot times one tenant.New. A set-up starts from a heap returned to
	// the operating system, as a freshly started daemon would. A restart
	// starts from a collected heap: one returned to the operating system
	// has to be faulted back in, by the restart and by the cycle after
	// it, and page faults on a shared VM vary several-fold in cost.
	boot := func(what string, into *[]float64, fresh bool) *untracedTenant {
		if fresh {
			debug.FreeOSMemory()
		} else {
			runtime.GC()
		}
		u, d, err := newUntraced(cfg, sp)
		if !p.attempt(err, what) {
			return nil
		}
		*into = append(*into, d.Seconds())
		return u
	}

	// boots times reps set-ups on a fresh store and returns the tenant
	// booted last. In memory a restart rebuilds the lake from config, the
	// same tenant.New, so a rebuild follows every set-up. All of them run
	// first, in a process that has not yet run a cycle, as a restarted
	// daemon's would: after a run of cycles, set-ups were up to a third
	// slower.
	boots := func() *untracedTenant {
		var u *untracedTenant
		for i := 0; i < reps; i++ {
			u = nil // unreachable before boot frees the heap
			if storeRoot != "" {
				if err := os.RemoveAll(storeRoot); err != nil {
					p.fail("clear store: %v", err)
					return nil
				}
			}
			if u = boot("tenant.New", &p.setupS, true); u == nil {
				return nil
			}
			if !w.durable {
				u = nil
				if u = boot("tenant.New (rebuild)", &p.restartS, false); u == nil {
					return nil
				}
			}
		}
		return u
	}

	cur := boots()
	if cur == nil {
		return p
	}

	day := 0
	step := func(u *untracedTenant, measured bool) bool {
		before := totalAlloc()
		d, err := u.step()
		after := totalAlloc()
		if !p.attempt(err, "StepCycle") {
			return false
		}
		fp, err := u.fingerprint(storeRoot)
		if err != nil {
			p.fail("read persisted state: %v", err)
			return false
		}
		if measured {
			p.cycleS = append(p.cycleS, d.Seconds())
			p.allocB = append(p.allocB, after-before)
			p.liveHeapB = append(p.liveHeapB, heapAfterGC(gcs))
			p.tables = append(p.tables, float64(u.ev.Fleet.Tables))
			p.objects += float64(u.ev.FilesReduced + u.ev.MetadataReduced)
			p.gbhr += u.ev.GBHrSpent
		} else {
			p.warmS = append(p.warmS, d.Seconds())
		}
		p.fps[day] = fp
		return true
	}

	for i := 0; i < w.warmup; i++ {
		day++
		if !step(cur, false) {
			return p
		}
	}
	n := w.measuredCycles(env.seconds)
	if !w.durable {
		for i := 0; i < n; i++ {
			day++
			if !step(cur, true) {
				return p
			}
		}
		return p
	}

	// The lake the warm-up left is the checkpoint every measured cycle
	// starts from. The uninterrupted tenant runs the next day once; then,
	// n times, the store is rewound to the checkpoint, a fresh tenant
	// restarts from it (cold-start recovery, timed) and runs that day
	// again (timed). Every replay is a restore check: it must decide, act
	// and persist exactly as the uninterrupted tenant did.
	checkpoint := env.scratch("checkpoint-untraced.json")
	if err := saveState(storeRoot, checkpoint); err != nil {
		p.fail("save checkpoint: %v", err)
		return p
	}
	day++
	if !step(cur, false) {
		return p
	}
	want := p.fps[day]
	for i := 0; i < n; i++ {
		cur = nil
		if err := rewindState(storeRoot, sp, checkpoint); err != nil {
			p.fail("rewind store: %v", err)
			return p
		}
		if cur = boot("tenant.New (restart)", &p.restartS, false); cur == nil {
			return p
		}
		if !step(cur, true) {
			return p
		}
		if p.fps[day] != want {
			p.fail("replay %d of day %d: the restored tenant's cycle %s differs from the uninterrupted run's %s", i+1, day, p.fps[day], want)
			return p
		}
	}
	return p
}

// diskState mirrors the tenant's persisted state file, so the traced
// pass writes and reads the same bytes the tenant does.
type diskState struct {
	Name  string       `json:"name"`
	Day   int          `json:"day"`
	Fleet *fleet.State `json:"fleet"`
}

// saveState copies the tenant's persisted state out of a durable store.
// The copy lives on disk, so it does not count in the live heap.
func saveState(storeRoot, to string) error {
	b, err := os.ReadFile(filepath.Join(storeRoot, filepath.FromSlash(tenantStateFile)))
	if err != nil {
		return err
	}
	return os.WriteFile(to, b, 0o644)
}

// rewindState puts a saved state back into a durable store, written the
// way the tenant writes it (under the spec's fsync policy).
func rewindState(storeRoot string, sp *policy.Spec, from string) error {
	b, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	store, err := lstlog.Open(lstlog.Config{Root: storeRoot, Fsync: sp.Storage.Fsync})
	if err != nil {
		return err
	}
	return store.WriteSubFile(tenantStateFile, b)
}

// pipeline is a spec compiled against a fleet the way
// fleet.ServiceFromSpec compiles it, with the core.Config interfaces
// wrapped by the tracer.
type pipeline struct {
	comp  *policy.Compiled
	feed  *changefeed.Feed
	sched *fleet.ScheduledService
	store *lstlog.Store
}

func buildPipeline(t *tracer, fl *fleet.Fleet, sp *policy.Spec) (*pipeline, error) {
	model := fleet.DefaultModel(512 * storage.MB)
	s := t.now()
	comp, err := policy.Compile(sp, fl.PolicyEnv(model), fl.PolicyBindings(model))
	t.leaf("policy.compile", -1, s, t.now())
	if err != nil {
		return nil, err
	}
	p := &pipeline{comp: comp}
	cfg := comp.Core
	if comp.Incremental {
		cfg, p.feed = fl.IncrementalConfig(cfg, fleet.IncrOptions{
			Trigger:        comp.Trigger,
			Triggers:       comp.Triggers,
			ReconcileEvery: comp.ReconcileEvery,
			DecideShards:   comp.DecideShards,
		})
	} else {
		fl.AttachChangefeed(nil)
	}
	svc, err := core.NewService(t.instrument(cfg))
	if err != nil {
		return nil, err
	}
	if !comp.HasExecution {
		return nil, errors.New("benchmark workloads run the execution plane; the spec has no execution section")
	}
	p.sched = fl.ScheduleService(svc, model, fleet.SchedOptions{
		Workers:              comp.Sched.Workers,
		Shards:               comp.Sched.Shards,
		ShardBudgetGBHr:      comp.Sched.ShardBudgetGBHr,
		StalenessBound:       comp.Sched.StalenessBound,
		MaxAttempts:          comp.Sched.MaxAttempts,
		RetryBase:            comp.Sched.RetryBase,
		RetryMax:             comp.Sched.RetryMax,
		AgingRatePerHour:     comp.Sched.AgingRatePerHour,
		WriterCommitsPerHour: writerPerHour,
	})
	if st := comp.Storage; st.Durable() {
		if p.store, err = lstlog.Open(lstlog.Config{Root: st.Root, Fsync: st.Fsync}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// cycleEvent assembles the cycle's trace event the way the spec service
// does after every cycle.
func cycleEvent(fl *fleet.Fleet, p *pipeline, prevCache *changefeed.CacheCounters, rep *core.Report, stats scheduler.Stats) telemetry.CycleEvent {
	d := rep.Decision
	ev := telemetry.CycleEvent{
		Day:    fl.Day(),
		Policy: specName(p.comp.Spec),
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
	}
	if p.feed != nil {
		scan := p.feed.LastScan()
		cc := p.feed.Cache.Counters()
		ev.Scan = telemetry.ScanTrace{
			Mode:        map[bool]string{true: "full", false: "dirty"}[scan.Full],
			Scanned:     scan.Scanned,
			Pool:        scan.Pool,
			CacheHits:   cc.Hits - prevCache.Hits,
			CacheMisses: cc.Misses - prevCache.Misses,
			DirtyNow:    p.feed.Tracker.DirtyCount(),
		}
		*prevCache = cc
	} else {
		ev.Scan = telemetry.ScanTrace{Mode: "scan", Scanned: fl.TableCount(), Pool: d.Generated}
	}
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
	counts := rep.ActionCounts()
	for _, a := range core.ActionTypes() {
		if counts[a] > 0 {
			ev.Outcomes = append(ev.Outcomes, telemetry.OutcomeTrace{Action: a.String(), Done: counts[a]})
		}
	}
	ev.Fleet = telemetry.FleetTrace{
		Tables:      fl.TableCount(),
		Files:       fl.TotalFiles(),
		MetaObjects: fl.TotalMetadataObjects(),
		TinyFrac:    fl.TinyFileFraction(),
	}
	return ev
}

func specName(sp *policy.Spec) string {
	if sp == nil || sp.Name == "" {
		return "(unnamed)"
	}
	return sp.Name
}

// reading is a set of cumulative counters read at a cycle boundary.
type reading struct {
	filterCalls, filterKept  float64
	observeCalls, traitCalls float64
	cacheHits, cacheLookups  float64
	generated, selected      float64
	cpuS, gcPauseMS          float64
}

// cycleSample is one traced cycle's own counts: the difference of the
// readings around it, plus what the cycle reported.
type cycleSample struct {
	cycle                    int
	measured                 bool
	keepRatio, hitRatio      float64
	observeCalls, traitCalls float64
	generated, selected      float64
	cpuS, gcPauseMS          float64
	scan                     changefeed.ScanInfo
	dirty                    float64
	stats                    scheduler.Stats
	snapshotBytes            float64
}

// newSample differences the readings taken before and after a cycle.
func newSample(before, after reading) cycleSample {
	pair := func(f func(reading) float64) []float64 { return []float64{f(before), f(after)} }
	return cycleSample{
		keepRatio:    ratioDeltas(pair(func(r reading) float64 { return r.filterKept }), pair(func(r reading) float64 { return r.filterCalls }))[0],
		hitRatio:     ratioDeltas(pair(func(r reading) float64 { return r.cacheHits }), pair(func(r reading) float64 { return r.cacheLookups }))[0],
		observeCalls: after.observeCalls - before.observeCalls,
		traitCalls:   after.traitCalls - before.traitCalls,
		generated:    after.generated - before.generated,
		selected:     after.selected - before.selected,
		cpuS:         after.cpuS - before.cpuS,
		gcPauseMS:    after.gcPauseMS - before.gcPauseMS,
	}
}

// fleetTrace is the traced pass's result.
type fleetTrace struct {
	ops
	spans   []Span
	samples []cycleSample
	fps     map[int]string
	// decideAlloc is the bytes decide allocated, per cycle.
	decideAlloc map[int]float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func gcPauseNS() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.PauseTotalNs)
}

// runFleetTraced replays the untraced pass's day sequence on a pipeline
// built from the same entry points, with every core.Config interface
// wrapped and every call into a layer timed.
func runFleetTraced(env *runEnv, w fleetWorkload) *fleetTrace {
	r := &fleetTrace{fps: map[int]string{}}
	shards := 1
	storeRoot := ""
	if w.durable {
		storeRoot = env.scratch("store-traced")
	}
	sp, err := w.spec(env.repo, storeRoot)
	if err != nil {
		r.fail("load policy: %v", err)
		return r
	}
	if sp.Execution != nil && sp.Execution.DecideShards > 1 {
		shards = sp.Execution.DecideShards
	}
	t := newTracer(shards)
	fcfg := w.fleetConfig(env.seed)

	// boot mirrors tenant.New: onboard a fresh fleet and compile the
	// pipeline against it; with a durable store holding this tenant's
	// state, restore the fleet from it and compile again.
	boot := func(restore bool) (*fleet.Fleet, *pipeline, int, []byte, error) {
		o := t.begin(map[bool]string{false: "tenant.new", true: "tenant.restart"}[restore])
		defer t.end(o)
		s := t.now()
		fl := fleet.New(fcfg, sim.NewClock())
		t.leaf("fleet.onboard", -1, s, t.now())
		p, err := buildPipeline(t, fl, sp)
		if err != nil || !restore {
			return fl, p, 0, nil, err
		}
		s = t.now()
		b, err := p.store.ReadSubFile(tenantStateFile)
		t.leaf("lstlog.read", -1, s, t.now())
		if err != nil {
			return nil, nil, 0, nil, err
		}
		s = t.now()
		var st diskState
		if err := json.Unmarshal(b, &st); err != nil {
			return nil, nil, 0, nil, err
		}
		fl, err = fleet.Restore(st.Fleet, sim.NewClock())
		t.leaf("fleet.restore", -1, s, t.now())
		if err != nil {
			return nil, nil, 0, nil, err
		}
		p, err = buildPipeline(t, fl, sp)
		return fl, p, st.Day, b, err
	}

	fl, p, _, _, err := boot(false)
	if !r.attempt(err, "tenant.New") {
		return r
	}
	enc := telemetry.NewTracer(telemetry.DefaultTraceDepth)
	enc.SetWriter(io.Discard)
	var prevCache changefeed.CacheCounters
	// day is the simulated day; cycle numbers every cycle run, replays
	// of one day included.
	day, cycle := 0, 0

	read := func() reading {
		fc, fk, oc, tc := t.laneCounters()
		rd := reading{
			filterCalls: float64(fc), filterKept: float64(fk),
			observeCalls: float64(oc), traitCalls: float64(tc),
			generated: float64(t.generated.Load()), selected: float64(t.selected.Load()),
			cpuS: cpuSeconds(), gcPauseMS: gcPauseNS() / 1e6,
		}
		if p.feed != nil {
			cc := p.feed.Cache.Counters()
			rd.cacheHits, rd.cacheLookups = float64(cc.Hits), float64(cc.Hits+cc.Misses)
		}
		return rd
	}

	step := func(measured bool) bool {
		day++
		cycle++
		t.cycle = cycle
		before := read()
		o := t.begin("tenant.step_cycle")
		s := t.now()
		fl.AdvanceDay()
		t.leaf("fleet.advance_day", -1, s, t.now())
		oc := t.begin("fleet.run_cycle")
		rep, stats, err := p.sched.RunCycle()
		t.end(oc)
		if err != nil {
			t.end(o)
			r.attempt(err, "StepCycle")
			return false
		}
		s = t.now()
		ev := cycleEvent(fl, p, &prevCache, rep, stats)
		enc.Emit(ev)
		t.leaf("telemetry.encode", -1, s, t.now())
		var persisted []byte
		if p.store != nil {
			s = t.now()
			persisted, err = json.Marshal(&diskState{Name: tenantName, Day: day, Fleet: fl.Snapshot()})
			t.leaf("fleet.snapshot", -1, s, t.now())
			if err == nil {
				s = t.now()
				err = p.store.WriteSubFile(tenantStateFile, persisted)
				t.leaf("lstlog.write", -1, s, t.now())
			}
		}
		t.end(o)
		if !r.attempt(err, "StepCycle") {
			return false
		}
		cs := newSample(before, read())
		cs.cycle, cs.measured = cycle, measured
		cs.stats = stats
		cs.snapshotBytes = float64(len(persisted))
		if p.feed != nil {
			cs.scan = p.feed.LastScan()
			cs.dirty = float64(p.feed.Tracker.DirtyCount())
		}
		r.samples = append(r.samples, cs)
		r.fps[day] = cycleFingerprint(ev, rep, persisted)
		return true
	}

	for i := 0; i < w.warmup; i++ {
		if !step(false) {
			return r
		}
	}
	n := w.measuredCycles(env.seconds)
	if !w.durable {
		for i := 0; i < n; i++ {
			if !step(true) {
				return r
			}
		}
	} else {
		// Replays as in the untraced pass: rewind the store to the
		// warm-up's state, restart from it, run the next day again.
		checkpoint := env.scratch("checkpoint-traced.json")
		if err := saveState(storeRoot, checkpoint); err != nil {
			r.fail("save checkpoint: %v", err)
			return r
		}
		if !step(false) {
			return r
		}
		for i := 0; i < n; i++ {
			fl, p = nil, nil
			day--
			runtime.GC()
			if err := rewindState(storeRoot, sp, checkpoint); err != nil {
				r.fail("rewind store: %v", err)
				return r
			}
			fl2, p2, d, persisted, err := boot(true)
			if !r.attempt(err, "tenant.New (restart)") {
				return r
			}
			if d != day {
				r.fail("restart: store holds day %d, want %d", d, day)
				return r
			}
			again, err := json.Marshal(&diskState{Name: tenantName, Day: d, Fleet: fl2.Snapshot()})
			if err != nil || string(again) != string(persisted) {
				r.fail("restart on day %d: the restored fleet's snapshot differs from the state it was restored from", day)
				return r
			}
			fl, p = fl2, p2
			prevCache = changefeed.CacheCounters{}
			want := r.fps[day+1]
			if !step(true) {
				return r
			}
			if r.fps[day] != want {
				r.fail("replay %d of day %d: the restored pipeline's cycle %s differs from the uninterrupted run's %s", i+1, day, r.fps[day], want)
				return r
			}
		}
	}
	t.mu.Lock()
	r.spans = append(r.spans, t.spans...)
	t.mu.Unlock()
	r.decideAlloc = t.decideAlloc
	if err := selfTimes(r.spans); err != nil {
		r.fail("trace: %v", err)
	}
	return r
}

// fleetMetrics reduces a traced pass to the per-layer metrics: per
// measured cycle values, reported as their median.
func fleetMetrics(r *fleetTrace) map[string]float64 {
	m := map[string]float64{}
	measured := map[int]bool{}
	var cycles []int
	var cyc []cycleSample
	for _, s := range r.samples {
		if s.measured {
			measured[s.cycle] = true
			cycles = append(cycles, s.cycle)
			cyc = append(cyc, s)
		}
	}
	perCycle := func(name string, busy bool) []float64 {
		tot := map[int]float64{}
		for _, s := range r.spans {
			if s.Name == name && measured[s.Cycle] {
				v := s.Dur()
				if busy {
					v = s.Busy
				}
				tot[s.Cycle] += float64(v) / 1e6
			}
		}
		out := make([]float64, len(cycles))
		for i, c := range cycles {
			out[i] = tot[c]
		}
		return out
	}
	allOf := func(name string) []float64 {
		var out []float64
		for _, s := range r.spans {
			if s.Name == name {
				out = append(out, float64(s.Dur())/1e6)
			}
		}
		return out
	}
	selfOf := func(name string) []float64 {
		var out []float64
		for _, s := range r.spans {
			if s.Name == name && measured[s.Cycle] {
				out = append(out, float64(s.Self)/1e6)
			}
		}
		return out
	}
	field := func(f func(cycleSample) float64) float64 {
		var xs []float64
		for _, s := range cyc {
			xs = append(xs, f(s))
		}
		return median(xs)
	}

	m["tenant.step_cycle_ms"] = median(perCycle("tenant.step_cycle", false))
	m["fleet.advance_day_ms"] = median(perCycle("fleet.advance_day", false))
	m["fleet.runner_ms"] = median(perCycle("fleet.runner", true))
	var runnerCalls []float64
	for _, s := range r.spans {
		if s.Name == "fleet.runner" && measured[s.Cycle] {
			runnerCalls = append(runnerCalls, float64(s.Calls))
		}
	}
	m["fleet.runner_calls"] = median(runnerCalls)
	m["fleet.snapshot_ms"] = median(perCycle("fleet.snapshot", false))
	m["fleet.snapshot_bytes"] = field(func(s cycleSample) float64 { return s.snapshotBytes })
	m["fleet.restore_ms"] = median(allOf("fleet.restore"))
	m["policy.compile_ms"] = median(allOf("policy.compile"))
	m["core.connect_ms"] = median(perCycle("core.connect", false))
	m["core.decide_ms"] = median(selfOf("core.decide"))
	var alloc []float64
	for _, c := range cycles {
		alloc = append(alloc, r.decideAlloc[c]/mb)
	}
	m["core.decide_alloc_mb"] = median(alloc)
	m["core.generate_ms"] = median(perCycle("core.generate", false))
	m["core.candidates"] = field(func(s cycleSample) float64 { return s.generated })
	m["core.filter_ms"] = median(perCycle("core.filter", false))
	m["core.filter_keep_ratio"] = field(func(s cycleSample) float64 { return s.keepRatio })
	m["core.observe_ms"] = median(perCycle("core.observe", false))
	m["core.observe_calls"] = field(func(s cycleSample) float64 { return s.observeCalls })
	m["core.orient_ms"] = median(perCycle("core.orient", false))
	m["core.trait_calls"] = field(func(s cycleSample) float64 { return s.traitCalls })
	m["core.rank_ms"] = median(perCycle("core.rank", false))
	m["core.select_ms"] = median(perCycle("core.select", false))
	m["core.selected"] = field(func(s cycleSample) float64 { return s.selected })
	m["decideshard.decide_ms"] = median(perCycle("decideshard.decide", false))
	m["changefeed.scanned"] = field(func(s cycleSample) float64 { return float64(s.scan.Scanned) })
	m["changefeed.pool"] = field(func(s cycleSample) float64 { return float64(s.scan.Pool) })
	m["changefeed.dirty"] = field(func(s cycleSample) float64 { return s.dirty })
	m["changefeed.cache_hit_ratio"] = field(func(s cycleSample) float64 { return s.hitRatio })
	act := perCycle("fleet.run_cycle", false)
	dec := perCycle("core.decide", false)
	for i := range act {
		act[i] -= dec[i]
	}
	m["scheduler.act_ms"] = median(act)
	m["scheduler.jobs"] = field(func(s cycleSample) float64 { return float64(s.stats.Submitted) })
	m["scheduler.done_ratio"] = field(func(s cycleSample) float64 { return ratio(float64(s.stats.Done), float64(s.stats.Submitted)) })
	m["scheduler.retries"] = field(func(s cycleSample) float64 { return float64(s.stats.Retries) })
	m["scheduler.conflicts"] = field(func(s cycleSample) float64 { return float64(s.stats.Conflicts) })
	m["scheduler.deferred"] = field(func(s cycleSample) float64 { return float64(s.stats.Deferred) })
	m["scheduler.max_queue_depth"] = field(func(s cycleSample) float64 { return float64(s.stats.MaxQueueDepth) })
	m["lstlog.write_ms"] = median(perCycle("lstlog.write", false))
	m["lstlog.bytes_written"] = m["fleet.snapshot_bytes"]
	m["lstlog.read_ms"] = median(allOf("lstlog.read"))
	m["telemetry.encode_ms"] = median(perCycle("telemetry.encode", false))
	m["host.cpu_s_per_cycle"] = field(func(s cycleSample) float64 { return s.cpuS })
	m["host.gc_pause_ms_per_cycle"] = field(func(s cycleSample) float64 { return s.gcPauseMS })
	return m
}

// spanSummary renders each span name's median duration and self time
// per measured cycle (restart and set-up spans: per occurrence).
func spanSummary(spans []Span) []string {
	type agg struct {
		dur, self []float64
		calls     float64
	}
	byName := map[string]*agg{}
	var order []string
	for _, s := range spans {
		a, ok := byName[s.Name]
		if !ok {
			a = &agg{}
			byName[s.Name] = a
			order = append(order, s.Name)
		}
		d := s.Dur()
		if s.Agg {
			d = s.Busy
		}
		a.dur = append(a.dur, float64(d)/1e6)
		a.self = append(a.self, float64(s.Self)/1e6)
		a.calls += float64(s.Calls)
	}
	var out []string
	for _, name := range order {
		a := byName[name]
		out = append(out, fmt.Sprintf("span %-22s spans=%-6d calls=%-9.0f dur %s  self %s", name, len(a.dur), a.calls,
			summary(a.dur, 1, "ms"), summary(a.self, 1, "ms")))
	}
	return out
}

const mb = 1 << 20

// fleetLayerMetrics are the per-layer metrics only the fleet workloads
// exercise.
var fleetLayerMetrics = []string{
	"tenant.step_cycle_ms", "fleet.advance_day_ms", "fleet.runner_calls", "fleet.runner_ms",
	"fleet.snapshot_ms", "fleet.snapshot_bytes", "fleet.restore_ms",
	"core.connect_ms", "core.decide_ms", "core.decide_alloc_mb", "core.generate_ms", "core.candidates",
	"core.filter_ms", "core.filter_keep_ratio", "core.observe_ms", "core.observe_calls",
	"core.orient_ms", "core.trait_calls", "core.rank_ms", "core.select_ms", "core.selected",
	"decideshard.decide_ms",
	"changefeed.scanned", "changefeed.pool", "changefeed.dirty", "changefeed.cache_hit_ratio",
	"scheduler.act_ms", "scheduler.jobs", "scheduler.done_ratio", "scheduler.retries",
	"scheduler.conflicts", "scheduler.deferred", "scheduler.max_queue_depth",
	"lstlog.write_ms", "lstlog.bytes_written", "lstlog.read_ms", "telemetry.encode_ms",
}

// runFleet runs a fleet workload: the untraced pass alone for the
// end-to-end metrics, or an untraced and a traced pass for the
// per-layer metrics.
func runFleet(env *runEnv, w fleetWorkload) *result {
	res := &result{metrics: map[string]float64{}}
	reps := setupReps
	if env.trace {
		reps = 1
	}
	p := runFleetUntraced(env, w, reps)
	res.merge(p.ops)
	if err := checkAcrossRuns(env, w.name, p.fps); err != nil {
		res.fail("repeatability: %v", err)
	}
	res.lines = append(res.lines,
		"setup   tenant.New "+summary(p.setupS, 1, "s")+" "+samples(p.setupS),
		"cycle   StepCycle "+summary(p.cycleS, 1, "s")+" "+samples(p.cycleS),
		"restart "+summary(p.restartS, 1, "s")+" "+samples(p.restartS),
		"heap    live after GC per measured cycle (MB) "+samples(scale(p.liveHeapB, 1.0/mb)),
		fmt.Sprintf("cycles  warm-up %d %s, measured %d, fleet %d tables; objects reduced %.0f, GBHr %.1f",
			w.warmup, samples(p.warmS), len(p.cycleS), w.tables, p.objects, p.gbhr))
	if !env.trace {
		res.metrics["setup_s"] = median(p.setupS)
		res.metrics["cycle_s_p50"] = median(p.cycleS)
		if s := sum(p.cycleS); s > 0 {
			res.metrics["tables_per_s"] = sum(p.tables) / s
		}
		if len(p.allocB) > 0 {
			res.metrics["alloc_mb_per_cycle"] = sum(p.allocB) / float64(len(p.allocB)) / mb
		}
		res.metrics["live_heap_mb"] = maxOf(p.liveHeapB) / mb
		res.metrics["restart_s"] = median(p.restartS)
		res.metrics["objects_reduced"] = p.objects
		res.metrics["gbhr_spent"] = p.gbhr
		return res
	}

	tr := runFleetTraced(env, w)
	res.merge(tr.ops)
	if err := sameFingerprints(p.fps, tr.fps); err != nil {
		res.fail("traced pass decided differently from the untraced pass: %v", err)
	}
	res.metrics = fleetMetrics(tr)
	if base := median(p.cycleS); base > 0 {
		res.metrics["trace_overhead_pct"] = 100 * (res.metrics["tenant.step_cycle_ms"]/1e3/base - 1)
	}
	for _, name := range tuneLayerMetrics {
		res.metrics[name] = 0
	}
	res.lines = append(res.lines, spanSummary(tr.spans)...)
	if path, err := writeSpans(env, w.name, tr.spans); err != nil {
		res.fail("write spans: %v", err)
	} else {
		res.lines = append(res.lines, "spans written to "+path)
	}
	return res
}
