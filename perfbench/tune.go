package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"time"

	"autocomp/internal/autotune"
	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/scenario"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
	"autocomp/internal/telemetry"
)

// The tune-micro workload runs the closed tuning loop: CFO over the
// shipped search space, scoring every trial on the shipped micro
// scenario.
const (
	tuneWorkload = "tune-micro"
	tuneBudget   = 500
	tuneWorkers  = 2
	// tuneNominalS converts --seconds into the number of tunes a run
	// makes: 16 at --seconds 15. A tune takes about 1.5 s on a 2-vCPU VM;
	// runs much shorter than 20 s let a slow minute of a shared host move
	// most of a set of runs.
	tuneNominalS = 0.9375
	// tuneBootReps set-ups are timed before each tune and as many
	// restarts after it, so both samples spread over the whole run.
	tuneBootReps = 4
)

// tuneLayerMetrics are the per-layer metrics only the tuning workload
// exercises.
var tuneLayerMetrics = []string{"scenario.setup_ms", "scenario.step_day_ms", "scenario.finalize_ms", "autotune.trial_ms"}

// tuneInputs are the loaded space and scenario.
type tuneInputs struct {
	space *autotune.Space
	sc    *scenario.Spec
	base  *policy.Spec
}

// loadTune loads and validates the tune's inputs and scores the base
// policy on the scenario — what a tune job does before it can propose
// its first trial.
func loadTune(repo string, seed int64) (*tuneInputs, error) {
	space, err := autotune.LoadSpaceFile(filepath.Join(repo, "examples", "tuning", "space.json"))
	if err != nil {
		return nil, err
	}
	sc, err := scenario.LoadFile(filepath.Join(repo, "examples", "scenarios", "tuning-micro.json"))
	if err != nil {
		return nil, err
	}
	base := policy.DefaultSpec()
	if err := space.Validate(base); err != nil {
		return nil, err
	}
	if err := policy.Validate(base, evalEnv()); err != nil {
		return nil, err
	}
	if _, err := replayScenario(sc, base, evalSeed(seed, sc)); err != nil {
		return nil, err
	}
	return &tuneInputs{space: space, sc: sc, base: base}, nil
}

// evalEnv is the environment tune trials compile against (the scenario
// engine's modelling constants).
func evalEnv() policy.Env {
	model := fleet.DefaultModel(512 * storage.MB)
	return policy.Env{
		TargetFileSize:      model.TargetFileSize,
		ExecutorMemoryGB:    model.ExecutorMemoryGB,
		RewriteBytesPerHour: model.RewriteBytesPerHour,
	}
}

// tuneRun is one autotune.Run with its host timings.
type tuneRun struct {
	res    *autotune.Result
	trialS []float64 // per trial after the first (which includes the baseline pass)
	totalS float64
	allocB float64
	fp     string
}

func runTuneOnce(in *tuneInputs, seed int64) (*tuneRun, error) {
	var log bytes.Buffer
	r := &tuneRun{}
	var last time.Time
	before := totalAlloc()
	start := time.Now()
	res, err := autotune.Run(autotune.Config{
		Space:     in.space,
		Base:      in.base,
		Scenarios: []*scenario.Spec{in.sc},
		Optimizer: "cfo",
		Budget:    tuneBudget,
		Seed:      seed,
		Workers:   tuneWorkers,
		TrialLog:  &log,
		OnTrial: func(autotune.TrialRecord) {
			now := time.Now()
			if !last.IsZero() {
				r.trialS = append(r.trialS, now.Sub(last).Seconds())
			}
			last = now
		},
	})
	r.totalS = time.Since(start).Seconds()
	r.allocB = totalAlloc() - before
	if err != nil {
		return nil, err
	}
	r.res = res
	winner, err := json.Marshal(res.Winner)
	if err != nil {
		return nil, err
	}
	h := sha256.Sum256(append(log.Bytes(), winner...))
	r.fp = hex.EncodeToString(h[:12])
	return r, nil
}

// trialEngine builds the engine a tune trial replays sc on: the trial's
// policy for the whole run, the tune's eval seed, no scheduled reloads.
func trialEngine(sc *scenario.Spec, spec *policy.Spec, seed int64) (*scenario.Engine, error) {
	cp := *sc
	cp.Seed = seed
	cp.Policy = spec
	cp.Reloads = nil
	return scenario.NewEngineOpts(&cp, scenario.EngineOptions{Tracer: telemetry.NewTracer(16)})
}

// replayScenario runs the micro scenario under spec the way a trial
// replays it.
func replayScenario(sc *scenario.Spec, spec *policy.Spec, seed int64) (*scenario.Trace, error) {
	eng, err := trialEngine(sc, spec, seed)
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// evalSeed is the seed autotune.Run replays a scenario with.
func evalSeed(seed int64, sc *scenario.Spec) int64 {
	return sim.ChildSeed(seed, "autotune/eval/"+sc.Name)
}

// tableDays is how many table-cycles one replay of the trace processes.
func tableDays(tr *scenario.Trace) float64 {
	n := 0.0
	for _, c := range tr.Cycles {
		n += float64(c.Fleet.Tables)
	}
	return n
}

// bootTune times one loadTune for the tune on seed from a heap returned
// to the operating system, as a freshly started job would see it.
func bootTune(env *runEnv, seed int64) (*tuneInputs, float64, error) {
	debug.FreeOSMemory()
	start := time.Now()
	in, err := loadTune(env.repo, seed)
	return in, time.Since(start).Seconds(), err
}

// tuneSeed derives the seed of a run's i-th tune. Several short tunes on
// derived seeds average over search trajectories, whose cost per trial
// differs, where one long tune would follow a single one.
func tuneSeed(seed int64, i int) int64 {
	return sim.ChildSeed(seed, fmt.Sprintf("perfbench/tune/%d", i))
}

func runTune(env *runEnv) *result {
	res := &result{metrics: map[string]float64{}}
	reps := int(env.seconds/tuneNominalS + 0.5)
	if reps < 1 || env.trace {
		reps = 1
	}
	var first *tuneRun
	var firstIn *tuneInputs
	var setupS, restartS, trialS, liveHeap []float64
	var totalS, allocB, trials, invalid, tableCycles, objects, gbhr float64
	fps := map[int]string{}
	// boot times n set-ups of the tune on seed, appending their seconds
	// to into, and returns the last one's inputs.
	boot := func(seed int64, n int, what string, into *[]float64) *tuneInputs {
		var in *tuneInputs
		for j := 0; j < n; j++ {
			loaded, d, err := bootTune(env, seed)
			if !res.attempt(err, what) {
				return nil
			}
			*into = append(*into, d)
			in = loaded
		}
		return in
	}
	for i := 0; i < reps; i++ {
		seed := tuneSeed(env.seed, i)
		in := boot(seed, tuneBootReps, "load tune inputs", &setupS)
		if in == nil {
			return res
		}
		if firstIn == nil {
			firstIn = in
		}
		heapAfterGC(2)
		r, err := runTuneOnce(in, seed)
		res.attempted += tuneBudget
		if err != nil {
			res.failed += tuneBudget
			res.errs = append(res.errs, fmt.Sprintf("autotune.Run: %v", err))
			return res
		}
		liveHeap = append(liveHeap, heapAfterGC(2))
		if first == nil {
			first = r
		}
		rep := r.res.Report
		trialS = append(trialS, r.trialS...)
		totalS += r.totalS
		allocB += r.allocB
		trials += float64(rep.Trials)
		invalid += float64(rep.Invalid)
		fps[i] = r.fp
		if rep.Scenarios[0].Seed != evalSeed(seed, in.sc) {
			res.fail("tune %d replayed seed %d, expected %d", i, rep.Scenarios[0].Seed, evalSeed(seed, in.sc))
		}

		// The winner's replay must reproduce its recorded score; its
		// benefit and cost are the tune's outcome.
		winner := r.res.Records[rep.BestTrial-1]
		wtr, err := replayScenario(in.sc, r.res.Winner, rep.Scenarios[0].Seed)
		if !res.attempt(err, "replay winner") {
			return res
		}
		if got := autotune.ScoreTrace(wtr); got != winner.Scenarios[0].Score {
			res.fail("tune %d: winner replay scored %+v, trial %d recorded %+v", i, got, winner.Trial, winner.Scenarios[0].Score)
		}
		objects += float64(wtr.Final.FilesReduced + wtr.Final.MetadataReduced)
		gbhr += wtr.Final.ActualGBHr
		// Every valid trial and the baseline replay the scenario once.
		tableCycles += float64(rep.Trials-rep.Invalid+len(rep.Scenarios)) * tableDays(wtr)
		res.lines = append(res.lines, fmt.Sprintf("tune %d  seed %d: %d trials (%d rejected by validation) in %.3f s; winner trial %d composite %.6f (improvement %.2f%%)",
			i, seed, rep.Trials, rep.Invalid, r.totalS, rep.BestTrial, rep.BestComposite, rep.ImprovementPct))

		// A tune job keeps no state across a restart (its trial log is an
		// output, not a checkpoint), so a restarted job comes back by
		// loading its inputs and scoring its baseline again.
		if boot(seed, tuneBootReps, "tune restart", &restartS) == nil {
			return res
		}
	}
	if err := checkAcrossRuns(env, tuneWorkload, fps); err != nil {
		res.fail("repeatability: %v", err)
	}

	res.lines = append(res.lines,
		"setup   load space+scenario, validate, score baseline "+summary(setupS, 1, "s"),
		fmt.Sprintf("tunes   %d × autotune.Run(cfo, budget %d, workers %d): %.0f trials (%.0f rejected) in %.3f s, %.1f trials/s; winners reduced %.0f objects for %.1f GBHr",
			reps, tuneBudget, tuneWorkers, trials, invalid, totalS, trials/totalS, objects, gbhr),
		"trial   "+summary(trialS, 1e3, "ms"),
		"restart "+summary(restartS, 1, "s"))
	if !env.trace {
		res.metrics["setup_s"] = median(setupS)
		res.metrics["cycle_s_p50"] = median(trialS)
		res.metrics["tables_per_s"] = tableCycles / totalS
		res.metrics["alloc_mb_per_cycle"] = allocB / trials / mb
		res.metrics["live_heap_mb"] = maxOf(liveHeap) / mb
		res.metrics["restart_s"] = median(restartS)
		res.metrics["objects_reduced"] = objects
		res.metrics["gbhr_spent"] = gbhr
		res.metrics["trials_per_s"] = trials / totalS
		return res
	}
	tr := replayTraced(firstIn, first.res)
	res.merge(tr.ops)
	if err := selfTimes(tr.spans); err != nil {
		res.fail("trace: %v", err)
	}
	res.metrics = tuneTraceMetrics(tr)
	if base := median(trialS); base > 0 {
		res.metrics["trace_overhead_pct"] = 100 * (res.metrics["autotune.trial_ms"]/1e3/base - 1)
	}
	res.lines = append(res.lines, spanSummary(tr.spans)...)
	if path, err := writeSpans(env, tuneWorkload, tr.spans); err != nil {
		res.fail("write spans: %v", err)
	} else {
		res.lines = append(res.lines, "spans written to "+path)
	}
	return res
}

// tuneTrace is the traced replay of a tune's trial log.
type tuneTrace struct {
	ops
	spans         []Span
	cpuS, gcPause float64
	trials        int
}

// replayTraced feeds every trial's spec through the scenario engine
// step by step, timing each stage, and checks that every trial's
// recorded scores are reproduced exactly.
func replayTraced(in *tuneInputs, run *autotune.Result) *tuneTrace {
	r := &tuneTrace{}
	t := newTracer(1)
	rep := run.Report
	env := evalEnv()
	cpu0, gc0 := cpuSeconds(), gcPauseNS()
	for _, rec := range run.Records {
		t.cycle = rec.Trial
		o := t.begin("autotune.trial")
		spec, err := in.space.Decode(in.base, rec.Params)
		if err == nil {
			s := t.now()
			err = policy.Validate(spec, env)
			t.leaf("policy.compile", -1, s, t.now())
		}
		if rec.Invalid != "" {
			t.end(o)
			r.attempted++
			if err == nil {
				r.fail("trial %d: recorded invalid (%s) but its spec validates", rec.Trial, rec.Invalid)
			}
			continue
		}
		total := 0.0
		for i, want := range rec.Scenarios {
			if err != nil {
				break
			}
			var score autotune.Score
			score, err = replayStepwise(t, in.sc, spec, rep.Scenarios[i].Seed)
			if err == nil && score != want.Score {
				r.fail("trial %d: replay scored %+v, recorded %+v", rec.Trial, score, want.Score)
			}
			total += autotune.Composite(score, rep.Baseline[i].Score, rep.Weights)
		}
		t.end(o)
		if !r.attempt(err, fmt.Sprintf("trial %d replay", rec.Trial)) {
			continue
		}
		if got := total / float64(len(rec.Scenarios)); got != rec.Composite {
			r.fail("trial %d: replay composite %v, recorded %v", rec.Trial, got, rec.Composite)
		}
		r.trials++
	}
	r.cpuS = cpuSeconds() - cpu0
	r.gcPause = (gcPauseNS() - gc0) / 1e6
	t.mu.Lock()
	r.spans = append(r.spans, t.spans...)
	t.mu.Unlock()
	return r
}

// replayStepwise is replayScenario driven day by day with a span per
// engine stage.
func replayStepwise(t *tracer, sc *scenario.Spec, spec *policy.Spec, seed int64) (autotune.Score, error) {
	s := t.now()
	eng, err := trialEngine(sc, spec, seed)
	t.leaf("scenario.setup", -1, s, t.now())
	if err != nil {
		return autotune.Score{}, err
	}
	for eng.Day() < sc.Days {
		s = t.now()
		err = eng.StepDay()
		t.leaf("scenario.step_day", -1, s, t.now())
		if err != nil {
			return autotune.Score{}, err
		}
	}
	s = t.now()
	tr := eng.Finalize()
	t.leaf("scenario.finalize", -1, s, t.now())
	return autotune.ScoreTrace(tr), nil
}

// tuneTraceMetrics reduces the traced replay to per-layer metrics; the
// fleet-cycle layers are absent on this workload and read 0.
func tuneTraceMetrics(r *tuneTrace) map[string]float64 {
	m := map[string]float64{}
	for _, name := range fleetLayerMetrics {
		m[name] = 0
	}
	durs := func(name string) []float64 {
		var out []float64
		for _, s := range r.spans {
			if s.Name == name {
				out = append(out, float64(s.Dur())/1e6)
			}
		}
		return out
	}
	m["scenario.setup_ms"] = median(durs("scenario.setup"))
	m["scenario.step_day_ms"] = median(durs("scenario.step_day"))
	m["scenario.finalize_ms"] = median(durs("scenario.finalize"))
	m["autotune.trial_ms"] = median(durs("autotune.trial"))
	m["policy.compile_ms"] = median(durs("policy.compile"))
	if r.trials > 0 {
		m["host.cpu_s_per_cycle"] = r.cpuS / float64(r.trials)
		m["host.gc_pause_ms_per_cycle"] = r.gcPause / float64(r.trials)
	}
	return m
}
