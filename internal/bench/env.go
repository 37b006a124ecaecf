// Package bench is the benchmark harness (the paper extends LST-Bench,
// §6): it materializes a simulated lake, loads CAB or phased workloads,
// drives query streams through a discrete-event loop with two-phase write
// commits (so write-write and compaction conflicts arise exactly as in
// the paper's Table 1), runs AutoComp on its triggers, and collects the
// client- and server-side metrics the paper reports.
package bench

import (
	"autocomp/internal/catalog"
	"autocomp/internal/cluster"
	"autocomp/internal/compaction"
	"autocomp/internal/engine"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// Env is a fully wired simulated lake: storage, catalog, a query cluster
// (1+15 nodes), a dedicated compaction cluster (1+3), an optional sidecar
// write cluster (7 nodes, for TPC-DS WP3), and engines on each.
type Env struct {
	Clock  *sim.Clock
	Events *sim.EventQueue
	RNG    *sim.RNG

	FS *storage.NameNode
	CP *catalog.ControlPlane

	QueryCluster      *cluster.Cluster
	CompactionCluster *cluster.Cluster
	WriteCluster      *cluster.Cluster

	Engine      *engine.Engine // runs on QueryCluster
	WriteEngine *engine.Engine // runs on WriteCluster

	Exec *compaction.Executor

	// TargetFileSize is the compaction target (512 MB by default).
	TargetFileSize int64
	// Strict mirrors EnvConfig.StrictRewriteConflicts and is applied to
	// every table the harness creates.
	Strict bool
}

// EnvConfig tunes environment construction.
type EnvConfig struct {
	Seed           int64
	TargetFileSize int64
	// StrictRewriteConflicts enables the Iceberg v1.2.0 rewrite
	// validation quirk on created tables (§4.4).
	StrictRewriteConflicts bool
	// Storage overrides the NameNode config (zero value = default).
	Storage storage.Config
	// EngineConfig overrides the engine cost model (zero = default).
	EngineConfig engine.Config
}

// NewEnv builds an environment mirroring the paper's §6 cluster setup.
func NewEnv(cfg EnvConfig) *Env {
	if cfg.TargetFileSize <= 0 {
		cfg.TargetFileSize = 512 * storage.MB
	}
	if cfg.Storage.BlockSize == 0 {
		cfg.Storage = storage.DefaultConfig()
	}
	if cfg.EngineConfig.DefaultShufflePartitions == 0 {
		cfg.EngineConfig = engine.DefaultConfig()
	}
	clock := sim.NewClock()
	rng := sim.NewRNG(cfg.Seed)
	fs := storage.NewNameNode(cfg.Storage, clock, rng.Fork())
	cp := catalog.New(fs, clock)

	qc := cluster.New(cluster.QueryClusterConfig(), clock)
	cc := cluster.New(cluster.CompactionClusterConfig(), clock)

	wcfg := cluster.QueryClusterConfig()
	wcfg.Name = "write-sidecar"
	wcfg.Executors = 7
	wc := cluster.New(wcfg, clock)

	env := &Env{
		Clock:             clock,
		Events:            sim.NewEventQueue(clock),
		RNG:               rng,
		FS:                fs,
		CP:                cp,
		QueryCluster:      qc,
		CompactionCluster: cc,
		WriteCluster:      wc,
		Engine:            engine.New(cfg.EngineConfig, qc, fs, clock, rng.Fork()),
		WriteEngine:       engine.New(cfg.EngineConfig, wc, fs, clock, rng.Fork()),
		TargetFileSize:    cfg.TargetFileSize,
	}
	env.Exec = &compaction.Executor{
		Cluster:        cc,
		TargetFileSize: cfg.TargetFileSize,
		AppPrefix:      "compaction/",
	}
	env.Strict = cfg.StrictRewriteConflicts
	return env
}

// PolicyEnv returns the policy-compilation environment of this lake: its
// clock, compaction target, and the compaction cluster's pricing, so
// specs can omit model parameters and inherit them.
func (e *Env) PolicyEnv() policy.Env {
	cfg := e.CompactionCluster.Config()
	return policy.Env{
		Now:                 e.Clock.Now,
		TargetFileSize:      e.TargetFileSize,
		ExecutorMemoryGB:    cfg.ExecutorMemoryGB(),
		RewriteBytesPerHour: cfg.RewriteBytesPerHour(),
	}
}
