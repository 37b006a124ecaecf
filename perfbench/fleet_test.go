package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/sim"
)

// TestTracedPassMatchesUntraced runs every fleet workload, shrunk to a
// small fleet, through both passes: the decorated pipeline must decide,
// act and persist exactly as tenant.New/StepCycle do, restarts must
// restore what was persisted, and the spans must nest. Run it under
// -race: the sharded decide plane calls the decorators from its worker
// goroutines.
func TestTracedPassMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every fleet workload")
	}
	for _, w := range fleetWorkloads {
		w.tables = 3000
		t.Run(w.name, func(t *testing.T) {
			build := t.TempDir()
			env := &runEnv{repo: "..", build: build, seed: 7, seconds: 1, runDir: filepath.Join(build, "run")}
			if err := os.MkdirAll(env.runDir, 0o755); err != nil {
				t.Fatal(err)
			}
			u := runFleetUntraced(env, w, 2)
			if u.failed > 0 {
				t.Fatalf("untraced pass: %v", u.errs)
			}
			tr := runFleetTraced(env, w)
			if tr.failed > 0 {
				t.Fatalf("traced pass: %v", tr.errs)
			}
			if err := sameFingerprints(u.fps, tr.fps); err != nil {
				t.Fatal(err)
			}
			wantDays := w.warmup + w.measuredCycles(env.seconds)
			if w.durable {
				wantDays = w.warmup + 1 // measured cycles replay one day
			}
			if len(u.fps) != wantDays {
				t.Errorf("untraced pass ran %d days, want %d", len(u.fps), wantDays)
			}
			if want := w.measuredCycles(env.seconds); len(u.cycleS) != want {
				t.Errorf("untraced pass measured %d cycles, want %d", len(u.cycleS), want)
			}
			if len(u.restartS) == 0 {
				t.Error("no restart was timed")
			}
			m := fleetMetrics(tr)
			for _, name := range fleetLayerMetrics {
				if _, ok := m[name]; !ok {
					t.Errorf("per-layer metric %s missing", name)
				}
			}
			if got := m["scheduler.jobs"]; got <= 0 {
				t.Errorf("scheduler.jobs = %v", got)
			}
			durable := w.durable
			if (m["lstlog.write_ms"] > 0) != durable || (m["fleet.restore_ms"] > 0) != durable {
				t.Errorf("storage metrics lstlog.write_ms=%v fleet.restore_ms=%v on a durable=%v workload",
					m["lstlog.write_ms"], m["fleet.restore_ms"], durable)
			}
			incremental := w.name == "incremental-100k"
			if (m["decideshard.decide_ms"] > 0) != incremental || (m["changefeed.pool"] > 0) != incremental {
				t.Errorf("decideshard.decide_ms=%v changefeed.pool=%v", m["decideshard.decide_ms"], m["changefeed.pool"])
			}
		})
	}
}

func TestLaneIsDecideShard(t *testing.T) {
	fl := fleet.New(fleet.Config{Seed: 3, InitialTables: 500}, sim.NewClock())
	for _, shards := range []int{2, 4, 7} {
		tr := newTracer(shards)
		for _, tb := range fl.Tables() {
			c := &core.Candidate{Table: tb}
			if got, want := tr.laneOf(c), core.ShardOf(tb.FullName(), shards); got != want {
				t.Fatalf("laneOf(%s) = %d, core.ShardOf = %d (%d shards)", tb.FullName(), got, want, shards)
			}
		}
	}
}

// TestBenchmarkDefinitionMatchesCode keeps BENCHMARK.json and the code
// in step: every listed workload is implemented, and the per-layer
// metrics listed are exactly the ones the two kinds of traced run report.
func TestBenchmarkDefinitionMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	for _, w := range def.Workloads {
		if _, ok := findFleetWorkload(w.Name); !ok && w.Name != tuneWorkload {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	shared := []string{"policy.compile_ms", "host.cpu_s_per_cycle", "host.gc_pause_ms_per_cycle", "trace_overhead_pct"}
	reported := map[string]bool{}
	for _, list := range [][]string{fleetLayerMetrics, tuneLayerMetrics, shared} {
		for _, name := range list {
			reported[name] = true
		}
	}
	for _, m := range def.PerLayer {
		if !reported[m.Name] {
			t.Errorf("per-layer metric %s is listed but never reported", m.Name)
		}
		delete(reported, m.Name)
	}
	for name := range reported {
		t.Errorf("per-layer metric %s is reported but not listed", name)
	}
}
