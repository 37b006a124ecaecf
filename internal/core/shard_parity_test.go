package core_test

// Decision-parity suite: the sharded decide pass must be byte-identical
// to the serial pass — same funnel counts, same ranked order and scores,
// same selection and plan — across seeds, shard counts, ranker kinds,
// and the full maintenance action mix. The fingerprints compared here
// print every ranked candidate with its score at full float precision,
// so "parity" means the bits, not the gist.

import (
	"testing"

	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/scenario/testkit"
	"autocomp/internal/sim"
)

// twinFleets builds two identically seeded fleets that will evolve in
// lockstep as long as their decisions match.
func twinFleets(seed int64, tables int) (*fleet.Fleet, *fleet.Fleet) {
	cfg := testkit.FleetConfig(seed, tables)
	return fleet.New(cfg, sim.NewClock()), fleet.New(cfg, sim.NewClock())
}

// maintenanceSpec is the unified maintenance pipeline with a top-k
// selector and the serial act phase.
func maintenanceSpec(k int) *policy.Spec {
	s := policy.DefaultSpec()
	s.Selector = policy.TopKSelector(k)
	s.Execution = nil
	return s
}

// compiledConfig compiles spec against f. The serial and sharded sides
// of each parity check start from the same compiled configuration and
// differ only in the Decider.
func compiledConfig(t *testing.T, f *fleet.Fleet, spec *policy.Spec) core.Config {
	t.Helper()
	m := testkit.Model()
	comp, err := policy.Compile(spec, f.PolicyEnv(m), f.PolicyBindings(m))
	if err != nil {
		t.Fatal(err)
	}
	return comp.Core
}

// shardedDecider decides through the sharded pass at a fixed shard
// and worker count.
func shardedDecider(shards, workers int) core.Decider {
	return func(cfg *core.Config) (*core.Decision, error) {
		d, _, err := cfg.DecideSharded(shards, workers)
		return d, err
	}
}

// shardedService wires the unified maintenance pipeline with
// the sharded decide pass attached.
func shardedService(t *testing.T, f *fleet.Fleet, shards, workers int) *core.Service {
	t.Helper()
	cfg := compiledConfig(t, f, maintenanceSpec(25))
	cfg.Decider = shardedDecider(shards, workers)
	svc, err := core.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestShardDecisionParityMaintenance is the headline parity matrix:
// seeds {1,7,42} × shard counts {1,2,4,16} × workers {4,1} over the
// unified maintenance pipeline (data compaction competing with snapshot
// expiry, metadata checkpoints, and manifest rewrites — the PR 1 action
// mix), acting on every decision so the fleets age through state the
// decisions created. One worker runs the shards in order on the calling
// goroutine, a path a host with fewer cores than shards never takes at
// the default worker count.
func TestShardDecisionParityMaintenance(t *testing.T) {
	seeds := []int64{1, 7, 42}
	shardCounts := []int{1, 2, 4, 16}
	workerCounts := []int{4, 1}
	days := 4
	tables := 150
	if testing.Short() {
		days, tables = 3, 90
	}
	for _, seed := range seeds {
		for _, shards := range shardCounts {
			for _, workers := range workerCounts {
				serialFleet, shardFleet := twinFleets(seed, tables)
				serialSvc, err := core.NewService(compiledConfig(t, serialFleet, maintenanceSpec(25)))
				if err != nil {
					t.Fatal(err)
				}
				shardSvc := shardedService(t, shardFleet, shards, workers)

				for day := 0; day < days; day++ {
					serialFleet.AdvanceDay()
					shardFleet.AdvanceDay()
					dSerial, err := serialSvc.Decide()
					if err != nil {
						t.Fatalf("seed %d shards %d workers %d day %d: serial decide: %v", seed, shards, workers, day, err)
					}
					dShard, err := shardSvc.Decide()
					if err != nil {
						t.Fatalf("seed %d shards %d workers %d day %d: sharded decide: %v", seed, shards, workers, day, err)
					}
					fpSerial, fpShard := testkit.DecisionFingerprint(dSerial), testkit.DecisionFingerprint(dShard)
					if fpSerial != fpShard {
						t.Fatalf("seed %d shards %d workers %d day %d: decision fingerprints diverge\nserial:\n%s\nsharded:\n%s",
							seed, shards, workers, day, testkit.Head(fpSerial, 25), testkit.Head(fpShard, 25))
					}
					if _, err := serialSvc.Act(dSerial); err != nil {
						t.Fatal(err)
					}
					if _, err := shardSvc.Act(dShard); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestShardParityThresholdRanker covers the second ranker family: the
// threshold policy's per-candidate admission sharded across 4 shards.
func TestShardParityThresholdRanker(t *testing.T) {
	serialFleet, shardFleet := twinFleets(11, 120)
	// Select-all (the default selector) over a 10% relative-reduction
	// threshold.
	spec := policy.DefaultDataSpec(false)
	spec.Objectives = nil
	spec.Traits = append(spec.Traits, policy.C("relative_file_count_reduction"))
	spec.Threshold = &policy.ThresholdSpec{Trait: policy.C("relative_file_count_reduction"), Min: 0.10}
	mkCfg := func(f *fleet.Fleet) core.Config { return compiledConfig(t, f, spec.Clone()) }
	serialSvc, err := core.NewService(mkCfg(serialFleet))
	if err != nil {
		t.Fatal(err)
	}
	shardCfg := mkCfg(shardFleet)
	shardCfg.Decider = shardedDecider(4, 0)
	shardSvc, err := core.NewService(shardCfg)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		serialFleet.AdvanceDay()
		shardFleet.AdvanceDay()
		dSerial, err := serialSvc.Decide()
		if err != nil {
			t.Fatal(err)
		}
		dShard, err := shardSvc.Decide()
		if err != nil {
			t.Fatal(err)
		}
		if a, b := testkit.DecisionFingerprint(dSerial), testkit.DecisionFingerprint(dShard); a != b {
			t.Fatalf("day %d: threshold parity broken\nserial:\n%s\nsharded:\n%s",
				day, testkit.Head(a, 20), testkit.Head(b, 20))
		}
	}
}

// nonLocalGenerator wraps a real generator while withholding the
// table-local declaration, forcing the sharded pass's serial-generation
// fallback with hash partitioning.
type nonLocalGenerator struct{ inner core.Generator }

func (g nonLocalGenerator) Name() string { return "non-local(" + g.inner.Name() + ")" }
func (g nonLocalGenerator) Candidates(tables []core.Table) []*core.Candidate {
	return g.inner.Candidates(tables)
}

// TestShardParityGeneratorFallback proves the set-preserving fallback:
// a generator the sharded pass cannot fan out is generated once serially,
// hash-partitioned, and still ranked byte-identically.
func TestShardParityGeneratorFallback(t *testing.T) {
	serialFleet, shardFleet := twinFleets(7, 100)
	spec := policy.DefaultDataSpec(true)
	spec.Selector = policy.TopKSelector(10)
	serialSvc, err := core.NewService(compiledConfig(t, serialFleet, spec.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	shardCfg := compiledConfig(t, shardFleet, spec.Clone())
	shardCfg.Generator = nonLocalGenerator{inner: shardCfg.Generator}
	shardCfg.Decider = shardedDecider(4, 0)
	shardSvc, err := core.NewService(shardCfg)
	if err != nil {
		t.Fatal(err)
	}
	serialFleet.AdvanceDay()
	shardFleet.AdvanceDay()
	dSerial, err := serialSvc.Decide()
	if err != nil {
		t.Fatal(err)
	}
	dShard, err := shardSvc.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := testkit.DecisionFingerprint(dSerial), testkit.DecisionFingerprint(dShard); a != b {
		t.Fatalf("fallback parity broken\nserial:\n%s\nsharded:\n%s",
			testkit.Head(a, 20), testkit.Head(b, 20))
	}
}

// TestShardParityDefaultSpecGeneratesPerShard pins the shipped default
// pipeline's generator chain as table-local: a sharded decide over the
// compiled DefaultSpec (data generator plus maintenance generator, budget
// selector) generates per shard instead of falling back to one serial
// generate, and still decides byte-identically to the serial pass.
func TestShardParityDefaultSpecGeneratesPerShard(t *testing.T) {
	serialFleet, shardFleet := twinFleets(5, 120)
	serialFleet.AdvanceDay()
	shardFleet.AdvanceDay()
	serialCfg := compiledConfig(t, serialFleet, policy.DefaultSpec())
	dSerial, err := serialCfg.DecideSerial()
	if err != nil {
		t.Fatal(err)
	}
	shardCfg := compiledConfig(t, shardFleet, policy.DefaultSpec())
	dShard, cs, err := shardCfg.DecideSharded(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cs.GenerateFallback {
		t.Fatal("default spec's generator chain fell back to serial generation")
	}
	meta := 0
	for _, c := range dSerial.Ranked {
		if c.Action != core.ActionDataCompaction {
			meta++
		}
	}
	if meta == 0 || meta == len(dSerial.Ranked) {
		t.Fatalf("ranked %d candidates, %d metadata: want both kinds", len(dSerial.Ranked), meta)
	}
	if a, b := testkit.DecisionFingerprint(dSerial), testkit.DecisionFingerprint(dShard); a != b {
		t.Fatalf("default spec parity broken\nserial:\n%s\nsharded:\n%s",
			testkit.Head(a, 20), testkit.Head(b, 20))
	}
}

// TestShardParityBudgetSelector pins the selector interaction: the
// budget selector walks the full merged ranking (greedy skip, not
// stop), so any ordering slip past the top-k would surface here.
func TestShardParityBudgetSelector(t *testing.T) {
	serialFleet, shardFleet := twinFleets(3, 140)
	spec := policy.DefaultDataSpec(true)
	spec.Selector = &policy.Component{Name: "budget", Params: map[string]any{"budget_gbhr": float64(600), "max_k": float64(40)}}
	serialSvc, err := core.NewService(compiledConfig(t, serialFleet, spec.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	shardCfg := compiledConfig(t, shardFleet, spec.Clone())
	shardCfg.Decider = shardedDecider(16, 2)
	shardSvc, err := core.NewService(shardCfg)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		serialFleet.AdvanceDay()
		shardFleet.AdvanceDay()
		dSerial, err := serialSvc.Decide()
		if err != nil {
			t.Fatal(err)
		}
		dShard, err := shardSvc.Decide()
		if err != nil {
			t.Fatal(err)
		}
		if a, b := testkit.DecisionFingerprint(dSerial), testkit.DecisionFingerprint(dShard); a != b {
			t.Fatalf("day %d: budget-selector parity broken\nserial:\n%s\nsharded:\n%s",
				day, testkit.Head(a, 20), testkit.Head(b, 20))
		}
		if _, err := serialSvc.Act(dSerial); err != nil {
			t.Fatal(err)
		}
		if _, err := shardSvc.Act(dShard); err != nil {
			t.Fatal(err)
		}
	}
}
