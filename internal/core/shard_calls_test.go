package core_test

import (
	"sync/atomic"
	"testing"

	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/scenario/testkit"
	"autocomp/internal/sim"
)

// countingGenerator wraps a table-local generator, declaring both the
// sharded and the table-local contract, and counts which entry point
// the decide pass calls.
type countingGenerator struct {
	inner core.Generator

	candidates, shardCandidates atomic.Int64
	tablesSeen                  atomic.Int64
}

func (g *countingGenerator) Name() string     { return "counting(" + g.inner.Name() + ")" }
func (g *countingGenerator) TableLocal() bool { return true }

func (g *countingGenerator) Candidates(tables []core.Table) []*core.Candidate {
	g.candidates.Add(1)
	g.tablesSeen.Add(int64(len(tables)))
	return g.inner.Candidates(tables)
}

func (g *countingGenerator) ShardCandidates(shard, shards int, tables []core.Table) []*core.Candidate {
	g.shardCandidates.Add(1)
	g.tablesSeen.Add(int64(len(tables)))
	return g.inner.Candidates(tables)
}

// TestShardCallPattern pins how the decide pass reaches the generator:
// a serial compiled pipeline is the pass at one shard and makes exactly
// one Candidates call over all tables — no partition — while a 4-shard
// pipeline makes one ShardCandidates call per shard and no Candidates
// call, even though the generator offers both.
func TestShardCallPattern(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		decideShards              int
		wantCandidates, wantShard int64
	}{
		{"serial", 0, 1, 0},
		{"sharded-4", 4, 0, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := fleet.New(testkit.FleetConfig(3, 60), sim.NewClock())
			f.AdvanceDay()
			spec := maintenanceSpec(10)
			if tc.decideShards > 0 {
				spec.Execution = &policy.ExecutionSpec{Workers: 1, DecideShards: tc.decideShards}
			}
			cfg := compiledConfig(t, f, spec)
			if (cfg.Decider != nil) != (tc.decideShards > 1) {
				t.Fatalf("decide_shards %d compiled with Decider set = %v", tc.decideShards, cfg.Decider != nil)
			}
			gen := &countingGenerator{inner: cfg.Generator}
			cfg.Generator = gen
			svc, err := core.NewService(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Decide(); err != nil {
				t.Fatal(err)
			}
			if got := gen.candidates.Load(); got != tc.wantCandidates {
				t.Errorf("Candidates calls = %d, want %d", got, tc.wantCandidates)
			}
			if got := gen.shardCandidates.Load(); got != tc.wantShard {
				t.Errorf("ShardCandidates calls = %d, want %d", got, tc.wantShard)
			}
			if got, want := gen.tablesSeen.Load(), int64(len(cfg.Connector.Tables())); got != want {
				t.Errorf("generator saw %d tables in total, want %d", got, want)
			}
		})
	}
}
