// Package maintenance generalizes AutoComp's Observe–Orient–Decide–Act
// pipeline from data compaction to a family of table-maintenance actions:
// data compaction, snapshot expiry, metadata checkpointing, and manifest
// rewriting. The paper names per-commit metadata files (metadata.json +
// manifests) as cause (iv) of small-file proliferation (§2); this package
// makes reclaiming them a first-class, rankable action instead of a side
// channel.
//
// The design follows the decomposition of "Constructing and Analyzing the
// LSM Compaction Design Space" (arXiv:2202.04522) — maintenance is a set
// of orthogonal policy primitives (what to reclaim, when to trigger, how
// much it costs) — and the explicit cost-model scheduling of "Online
// Bigtable Merge Compaction" (arXiv:1407.3008): every action, data or
// metadata, is priced in GBHr and competes in the same MOOP ranking under
// the same budget selector. There is no separate maintenance scheduler
// loop.
//
// The pieces plug into core's existing extension points (NFR1):
//
//   - Generator emits action-typed candidates next to a data generator's;
//   - Observer fills the metadata statistics for maintenance candidates;
//   - Runner dispatches each selected candidate to its action's executor.
package maintenance

import (
	"fmt"
	"time"

	"autocomp/internal/compaction"
	"autocomp/internal/core"
	"autocomp/internal/lst"
)

// Policy is the per-table maintenance policy the generator and observer
// reconcile against.
type Policy struct {
	// RetainSnapshots is how many snapshots expiry keeps (min 1).
	RetainSnapshots int
	// CheckpointEveryVersions is how many commits may accumulate before
	// a metadata checkpoint is due (0 disables checkpointing).
	CheckpointEveryVersions int64
	// MinManifestSurplus is how many manifests beyond the consolidated
	// floor trigger a manifest-rewrite candidate (0 disables rewrites).
	MinManifestSurplus int
}

// DefaultPolicy mirrors catalog.DefaultPolicies plus a manifest-rewrite
// trigger.
func DefaultPolicy() Policy {
	return Policy{RetainSnapshots: 20, CheckpointEveryVersions: 100, MinManifestSurplus: 8}
}

// PolicySource supplies the maintenance policy for a table.
type PolicySource interface {
	PolicyFor(db, name string) Policy
}

// StaticPolicies applies one policy to every table.
type StaticPolicies struct{ Policy Policy }

// PolicyFor implements PolicySource.
func (s StaticPolicies) PolicyFor(_, _ string) Policy { return s.Policy }

// MetadataTable is the view of a table's metadata layer the maintenance
// pipeline observes. *lst.Table implements it directly; aggregate models
// (the fleet simulator) implement it themselves (NFR3).
type MetadataTable interface {
	core.Table
	MetadataStats() lst.MetadataStats
	// ExpireEstimate returns how many metadata objects expiring to
	// keepLast snapshots would delete.
	ExpireEstimate(keepLast int) int
}

// Maintainer executes metadata-maintenance actions on a table.
// *lst.Table implements it directly.
type Maintainer interface {
	ExpireSnapshots(keepLast int) (int, error)
	Checkpoint() (lst.MaintenanceResult, error)
	RewriteManifests() (lst.MaintenanceResult, error)
}

// Generator emits maintenance candidates for tables whose metadata layer
// violates policy, alongside an optional data-compaction generator's
// output — one candidate pool, one ranking.
type Generator struct {
	// Data generates the data-compaction candidates (nil for
	// metadata-only pipelines).
	Data core.Generator
	// Policies supplies per-table triggers; nil means DefaultPolicy.
	Policies PolicySource
}

// Name implements core.Generator.
func (Generator) Name() string { return "maintenance" }

// Candidates implements core.Generator.
func (g Generator) Candidates(tables []core.Table) []*core.Candidate {
	var out []*core.Candidate
	if g.Data != nil {
		out = g.Data.Candidates(tables)
	}
	for _, t := range tables {
		mt, ok := t.(MetadataTable)
		if !ok {
			continue
		}
		pol := g.policyFor(t)
		ms := mt.MetadataStats()
		if pol.RetainSnapshots > 0 && ms.Snapshots > pol.RetainSnapshots {
			out = append(out, &core.Candidate{Table: t, Action: core.ActionSnapshotExpiry})
		}
		if pol.CheckpointEveryVersions > 0 && ms.VersionsSinceCheckpoint >= pol.CheckpointEveryVersions {
			out = append(out, &core.Candidate{Table: t, Action: core.ActionMetadataCheckpoint})
		}
		if pol.MinManifestSurplus > 0 && ms.Manifests-ms.ConsolidatedManifests >= pol.MinManifestSurplus {
			out = append(out, &core.Candidate{Table: t, Action: core.ActionManifestRewrite})
		}
	}
	return out
}

func (g Generator) policyFor(t core.Table) Policy {
	if g.Policies == nil {
		return DefaultPolicy()
	}
	return g.Policies.PolicyFor(t.Database(), t.Name())
}

// Observer fills the standardized statistics for maintenance candidates
// — metadata-log size plus the per-action reduction estimate — and
// delegates data-compaction candidates to Base.
type Observer struct {
	// Base observes data-compaction candidates (required when the
	// generator emits them).
	Base core.Observer
	// Policies supplies the retention targets estimates depend on; nil
	// means DefaultPolicy.
	Policies PolicySource
	// Now supplies virtual time for age statistics; nil means 0.
	Now func() time.Duration
}

// Observe implements core.Observer.
func (o Observer) Observe(c *core.Candidate) (core.Stats, error) {
	if c.Action == core.ActionDataCompaction {
		if o.Base == nil {
			return core.Stats{}, fmt.Errorf("maintenance: no base observer for data candidate %s", c.ID())
		}
		return o.Base.Observe(c)
	}
	mt, ok := c.Table.(MetadataTable)
	if !ok {
		return core.Stats{}, fmt.Errorf("maintenance: %s does not expose metadata stats (%T)", c.ID(), c.Table)
	}
	pol := DefaultPolicy()
	if o.Policies != nil {
		pol = o.Policies.PolicyFor(c.Table.Database(), c.Table.Name())
	}
	ms := mt.MetadataStats()
	now := time.Duration(0)
	if o.Now != nil {
		now = o.Now()
	}
	s := core.Stats{
		MetadataObjects: ms.Objects,
		MetadataBytes:   ms.Bytes,
		Snapshots:       ms.Snapshots,
		TableAge:        now - c.Table.Created(),
		SinceLastWrite:  now - c.Table.LastWrite(),
		WriteCount:      c.Table.WriteCount(),
	}
	avg := int64(0)
	if ms.Objects > 0 {
		avg = ms.Bytes / int64(ms.Objects)
	}
	switch c.Action {
	case core.ActionSnapshotExpiry:
		s.MetadataReducible = mt.ExpireEstimate(pol.RetainSnapshots)
		// Expiry only deletes; it processes just the dropped objects.
		s.MetadataBytes = avg * int64(s.MetadataReducible)
	case core.ActionMetadataCheckpoint:
		// A checkpoint leaves two objects: the current metadata.json and
		// the checkpoint itself.
		if ms.Objects > 2 {
			s.MetadataReducible = ms.Objects - 2
		}
	case core.ActionManifestRewrite:
		if d := ms.Manifests - ms.ConsolidatedManifests; d > 0 {
			s.MetadataReducible = d
		}
	}
	return s, nil
}

// Runner dispatches selected candidates by action type: data compactions
// to Data, the metadata actions to the table's own Maintainer
// implementation. Maintenance work is priced with the same GBHr model as
// rewrites over the bytes it reads and writes.
type Runner struct {
	// Data runs data-compaction candidates (required when the generator
	// emits them).
	Data core.Runner
	// Policies supplies retention targets; nil means DefaultPolicy.
	Policies PolicySource
	// ExecutorMemoryGB and RewriteBytesPerHour price maintenance actions
	// in GBHr (zero throughput prices them free).
	ExecutorMemoryGB    float64
	RewriteBytesPerHour float64
}

// Run implements core.Runner.
func (r Runner) Run(c *core.Candidate) compaction.Result {
	if c.Action == core.ActionDataCompaction {
		if r.Data == nil {
			return compaction.Result{
				Table: c.Table.FullName(),
				Err:   fmt.Errorf("maintenance: no data runner for %s", c.ID()),
			}
		}
		return r.Data.Run(c)
	}
	res := compaction.Result{Table: c.Table.FullName()}
	m, ok := c.Table.(Maintainer)
	if !ok {
		res.Err = fmt.Errorf("maintenance: %s is not maintainable (%T)", c.ID(), c.Table)
		return res
	}
	switch c.Action {
	case core.ActionSnapshotExpiry:
		pol := DefaultPolicy()
		if r.Policies != nil {
			pol = r.Policies.PolicyFor(c.Table.Database(), c.Table.Name())
		}
		avg := avgMetaObjectBytes(c.Table)
		n, err := m.ExpireSnapshots(pol.RetainSnapshots)
		if err != nil {
			res.Err = err
			return res
		}
		if n == 0 {
			res.Skipped = true
			return res
		}
		res.FilesRemoved = n
		r.price(&res, avg*int64(n))
	case core.ActionMetadataCheckpoint:
		mr, err := m.Checkpoint()
		r.fold(&res, mr, err)
	case core.ActionManifestRewrite:
		mr, err := m.RewriteManifests()
		r.fold(&res, mr, err)
	default:
		res.Err = fmt.Errorf("maintenance: unknown action %v", c.Action)
	}
	return res
}

// fold maps a metadata-maintenance result onto the shared result type:
// metadata objects are namespace objects too, so they flow through the
// same removed/added accounting as data files.
func (r Runner) fold(res *compaction.Result, mr lst.MaintenanceResult, err error) {
	if err != nil {
		res.Err = err
		return
	}
	if mr.Skipped {
		res.Skipped = true
		return
	}
	res.FilesRemoved = mr.ObjectsRemoved
	res.FilesAdded = mr.ObjectsAdded
	res.BytesRewritten = mr.BytesWritten
	r.price(res, mr.BytesReclaimed+mr.BytesWritten)
}

// price charges GBHr and duration for processing the given byte volume.
func (r Runner) price(res *compaction.Result, bytes int64) {
	if r.RewriteBytesPerHour <= 0 || bytes <= 0 {
		return
	}
	hours := float64(bytes) / r.RewriteBytesPerHour
	res.GBHr = r.ExecutorMemoryGB * hours
	res.Duration = time.Duration(hours * float64(time.Hour))
}

func avgMetaObjectBytes(t core.Table) int64 {
	mt, ok := t.(MetadataTable)
	if !ok {
		return 0
	}
	ms := mt.MetadataStats()
	if ms.Objects == 0 {
		return 0
	}
	return ms.Bytes / int64(ms.Objects)
}
