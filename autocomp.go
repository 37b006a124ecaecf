// Package autocomp is the public facade of the AutoComp framework: a
// scalable system for automatic data compaction in log-structured tables
// (LSTs), reproducing "AutoComp: Automated Data Compaction for
// Log-Structured Tables in Data Lakes" (SIGMOD 2025).
//
// AutoComp organizes compaction as an Observe–Orient–Decide–Act pipeline:
// candidates (tables, partitions, or fresh-snapshot file sets) are
// observed into standardized statistics, oriented into decision traits
// (estimated file-count reduction ΔF, compute cost GBHr, file entropy,
// quota pressure), ranked by a threshold policy or a scalarized
// multi-objective function, selected by fixed k or a compute budget, and
// executed under a conflict-aware schedule. Every stage is pluggable.
//
// The quickest way in:
//
//	spec := autocomp.DefaultSpec()
//	spec.Selector = autocomp.TopKSelector(10)
//	svc, err := autocomp.New(cp, compCl, spec) // catalog, compaction cluster
//	report, err := svc.RunOnce()
//
// Every stage is a field of the spec; see internal/policy for the
// component names and parameters.
package autocomp

import (
	"autocomp/internal/catalog"
	"autocomp/internal/cluster"
	"autocomp/internal/compaction"
	"autocomp/internal/core"
	"autocomp/internal/policy"
	"autocomp/internal/storage"
)

// Re-exported core types: the OODA pipeline's building blocks.
type (
	// Service is a configured AutoComp instance.
	Service = core.Service
	// Config is the full pipeline wiring (advanced use).
	Config = core.Config
	// Report is the outcome of one compaction cycle.
	Report = core.Report
	// Decision is the observe–orient–decide output.
	Decision = core.Decision
	// Candidate is a unit of compaction work.
	Candidate = core.Candidate
	// Stats is the observe-phase statistics layout.
	Stats = core.Stats
	// Trait turns stats into a ranking signal.
	Trait = core.Trait
	// Filter refines the candidate pool.
	Filter = core.Filter
	// Ranker orders candidates (threshold or MOOP).
	Ranker = core.Ranker
	// Selector picks the work set (top-k or budget).
	Selector = core.Selector
	// Scheduler plans execution rounds.
	Scheduler = core.Scheduler
	// Runner executes one work unit.
	Runner = core.Runner
	// Table is the connector-facing table abstraction.
	Table = core.Table
	// Connector feeds lake state to the framework.
	Connector = core.Connector
	// EstimatorLedger tracks estimate-vs-actual accuracy via feedback.
	EstimatorLedger = core.EstimatorLedger
	// PeriodicTrigger schedules pull-based compaction cycles.
	PeriodicTrigger = core.PeriodicTrigger
	// AfterWriteHook is the push-based optimize-after-write trigger.
	AfterWriteHook = core.AfterWriteHook
	// Spec is a declarative pipeline: every OODA stage by component name.
	Spec = policy.Spec
)

// Re-exported strategy components.
var (
	// NewService validates and builds a Service from a full Config.
	NewService = core.NewService
	// QuotaAdaptiveWeights is the production weighting w1=0.5(1+u).
	QuotaAdaptiveWeights = core.QuotaAdaptiveWeights
	// TopKSelector and BudgetSelector are the spec's fixed-k and
	// GBHr-budget (dynamic k) selectors.
	TopKSelector   = policy.TopKSelector
	BudgetSelector = policy.BudgetSelector
)

// Scope constants for candidate generation.
const (
	ScopeTable     = core.ScopeTable
	ScopePartition = core.ScopePartition
	ScopeSnapshot  = core.ScopeSnapshot
)

// DefaultSpec returns the paper's production pipeline on an
// OpenHouse-style catalog (§7): table-scope candidates of tables at
// least 24h old that are not intermediate outputs, at least 2 small
// files each, ΔF + GBHr traits in a 0.7/0.3 MOOP, and tables compacted
// in parallel (a table's partitions in sequence). The caller sets the
// selector; nil selects every ranked candidate.
func DefaultSpec() *Spec {
	s := policy.DefaultDataSpec(false)
	s.Name = "autocomp-default"
	s.PreFilters = []policy.Component{
		{Name: "min-table-age", Params: map[string]any{"min": "24h"}},
		policy.C("not-intermediate"),
	}
	s.Scheduler = &policy.Component{Name: "tables-parallel"}
	return s
}

// New builds a Service over an OpenHouse-style catalog from spec, with
// rewrite jobs on cluster cl (a dedicated compaction cluster in the
// paper's deployment) at a 512 MB target. The cluster's shape prices
// the compute-cost trait. onReport hooks receive each cycle's report
// (the feedback loop).
func New(cp *catalog.ControlPlane, cl *cluster.Cluster, spec *Spec, onReport ...func(*Report)) (*Service, error) {
	const target = 512 * storage.MB
	ccfg := cl.Config()
	env := policy.Env{
		Now:                 cp.Clock().Now,
		TargetFileSize:      target,
		ExecutorMemoryGB:    ccfg.ExecutorMemoryGB(),
		RewriteBytesPerHour: ccfg.RewriteBytesPerHour(),
	}
	exec := &compaction.Executor{Cluster: cl, TargetFileSize: target, AppPrefix: "compaction/"}
	_, svc, _, err := policy.CatalogService(spec, env, cp, exec, onReport...)
	return svc, err
}
