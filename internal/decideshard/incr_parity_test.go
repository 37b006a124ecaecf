package decideshard_test

import (
	"testing"

	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/scenario/testkit"
	"autocomp/internal/sim"
)

// TestShardParityIncremental locks the three-way equivalence the
// observation and decide planes promise when composed: a full-scan
// serial pipeline, an incremental serial pipeline (every-commit
// trigger), and an incremental pipeline decided across 4 shards —
// where the feed serves each decide shard from its own retained
// partition via ShardCandidates — must produce byte-identical decisions
// day after day, acting on each so divergence would compound.
func TestShardParityIncremental(t *testing.T) {
	const seed, tables, days = 9, 130, 5
	cfg := testkit.FleetConfig(seed, tables)
	fFull := fleet.New(cfg, sim.NewClock())
	fIncr := fleet.New(cfg, sim.NewClock())
	fShard := fleet.New(cfg, sim.NewClock())

	fullSvc, err := core.NewService(compiledConfig(t, fFull, maintenanceSpec(25)))
	if err != nil {
		t.Fatal(err)
	}
	incrSpec := maintenanceSpec(25)
	incrSpec.Trigger = &policy.TriggerSpec{EveryCommits: 1, ReconcileEvery: 4}
	incrSvc := specService(t, fIncr, incrSpec.Clone())
	// Four decide shards, which also partition the feed four ways.
	shardSpec := incrSpec.Clone()
	shardSpec.Execution = &policy.ExecutionSpec{Workers: 1, DecideShards: 4, DecideWorkers: 2}
	shardSvc := specService(t, fShard, shardSpec)

	for day := 0; day < days; day++ {
		fFull.AdvanceDay()
		fIncr.AdvanceDay()
		fShard.AdvanceDay()
		dFull, err := fullSvc.Decide()
		if err != nil {
			t.Fatalf("day %d: full scan: %v", day, err)
		}
		dIncr, err := incrSvc.Decide()
		if err != nil {
			t.Fatalf("day %d: incremental: %v", day, err)
		}
		dShard, err := shardSvc.Decide()
		if err != nil {
			t.Fatalf("day %d: sharded incremental: %v", day, err)
		}
		fpFull := testkit.DecisionFingerprint(dFull)
		fpIncr := testkit.DecisionFingerprint(dIncr)
		fpShard := testkit.DecisionFingerprint(dShard)
		if fpIncr != fpFull {
			t.Fatalf("day %d: incremental diverged from full scan\nfull:\n%s\nincremental:\n%s",
				day, testkit.Head(fpFull, 25), testkit.Head(fpIncr, 25))
		}
		if fpShard != fpIncr {
			t.Fatalf("day %d: sharded incremental diverged\nincremental:\n%s\nsharded:\n%s",
				day, testkit.Head(fpIncr, 25), testkit.Head(fpShard, 25))
		}
		if _, err := fullSvc.Act(dFull); err != nil {
			t.Fatalf("day %d: act full: %v", day, err)
		}
		if _, err := incrSvc.Act(dIncr); err != nil {
			t.Fatalf("day %d: act incremental: %v", day, err)
		}
		if _, err := shardSvc.Act(dShard); err != nil {
			t.Fatalf("day %d: act sharded: %v", day, err)
		}
	}
}

// specService builds the full spec-wired service on f and returns its
// decision pipeline.
func specService(t *testing.T, f *fleet.Fleet, spec *policy.Spec) *core.Service {
	t.Helper()
	ss, err := f.ServiceFromSpec(spec, testkit.Model(), fleet.SpecRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ss.Svc
}
