package policy

import (
	"fmt"
	"time"

	"autocomp/internal/compaction"
	"autocomp/internal/core"
	"autocomp/internal/lst"
)

// Unified maintenance extends the Observe–Orient–Decide–Act pipeline
// from data compaction to metadata work: the paper names per-commit
// metadata files as cause (iv) of small-file proliferation (§2), and a
// spec's maintenance section makes reclaiming them rankable actions —
// snapshot expiry, metadata checkpointing and manifest rewriting.
// Following "Constructing and Analyzing the LSM Compaction Design
// Space" (arXiv:2202.04522), each action is a small primitive beside
// the data path rather than a wrapper around it: the generator below
// sits on the generator chain, and the observer and runner dispatch by
// Candidate.Action. Every action is priced in GBHr and ranked by the
// same MOOP under the same budget selector ("Online Bigtable Merge
// Compaction", arXiv:1407.3008); there is no separate maintenance loop.

// metadataTable is the view of a table's metadata layer the maintenance
// components observe. *lst.Table implements it directly; aggregate
// models (the fleet simulator) implement it themselves (NFR3).
type metadataTable interface {
	core.Table
	MetadataStats() lst.MetadataStats
	// ExpireEstimate returns how many metadata objects expiring to
	// keepLast snapshots would delete.
	ExpireEstimate(keepLast int) int
}

// maintainer executes metadata-maintenance actions on a table.
// *lst.Table implements it directly.
type maintainer interface {
	ExpireSnapshots(keepLast int) (int, error)
	Checkpoint() (lst.MaintenanceResult, error)
	RewriteManifests() (lst.MaintenanceResult, error)
}

// maintenanceGenerator emits, per table, the metadata candidates whose
// triggers the table's layered maintenance policy fires: expiry, then
// checkpoint, then manifest rewrite. Compile appends it to the
// generator chain, after the data generators.
type maintenanceGenerator struct{ src *Source }

// Name implements core.Generator.
func (maintenanceGenerator) Name() string { return "maintenance" }

// TableLocal implements core.TableLocalGenerator: each table's
// candidates depend only on that table and its policy.
func (maintenanceGenerator) TableLocal() bool { return true }

// Candidates implements core.Generator.
func (g maintenanceGenerator) Candidates(tables []core.Table) []*core.Candidate {
	var out []*core.Candidate
	for _, t := range tables {
		mt, ok := t.(metadataTable)
		if !ok {
			continue
		}
		pol := g.src.PolicyFor(t.Database(), t.Name())
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

// maintenanceObserver fills the standardized statistics for metadata
// candidates — metadata-log size plus the per-action reduction
// estimate — and hands data-compaction candidates to data.
type maintenanceObserver struct {
	// data observes data-compaction candidates (nil for metadata-only
	// pipelines).
	data core.Observer
	src  *Source
	// now supplies virtual time for age statistics; nil means 0.
	now func() time.Duration
}

// Observe implements core.Observer.
func (o maintenanceObserver) Observe(c *core.Candidate) (core.Stats, error) {
	if c.Action == core.ActionDataCompaction {
		if o.data == nil {
			return core.Stats{}, fmt.Errorf("maintenance: no data observer for data candidate %s", c.ID())
		}
		return o.data.Observe(c)
	}
	mt, ok := c.Table.(metadataTable)
	if !ok {
		return core.Stats{}, fmt.Errorf("maintenance: %s does not expose metadata stats (%T)", c.ID(), c.Table)
	}
	ms := mt.MetadataStats()
	now := time.Duration(0)
	if o.now != nil {
		now = o.now()
	}
	s := core.Stats{
		MetadataObjects: ms.Objects,
		MetadataBytes:   ms.Bytes,
		Snapshots:       ms.Snapshots,
		TableAge:        now - c.Table.Created(),
		SinceLastWrite:  now - c.Table.LastWrite(),
		WriteCount:      c.Table.WriteCount(),
	}
	switch c.Action {
	case core.ActionSnapshotExpiry:
		pol := o.src.PolicyFor(c.Table.Database(), c.Table.Name())
		s.MetadataReducible = mt.ExpireEstimate(pol.RetainSnapshots)
		// Expiry only deletes; it processes just the dropped objects.
		s.MetadataBytes = avgObjectBytes(ms) * int64(s.MetadataReducible)
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

// maintenanceRunner dispatches selected candidates by action type: data
// compactions to data, the metadata actions to the table's own
// maintainer implementation. Metadata work is priced with the same GBHr
// model as rewrites over the bytes it reads and writes.
type maintenanceRunner struct {
	// data runs data-compaction candidates (nil for decide-only or
	// metadata-only pipelines).
	data core.Runner
	src  *Source
	// executorMemoryGB and rewriteBytesPerHour price metadata actions in
	// GBHr (zero throughput prices them free).
	executorMemoryGB    float64
	rewriteBytesPerHour float64
}

// Run implements core.Runner.
func (r maintenanceRunner) Run(c *core.Candidate) compaction.Result {
	if c.Action == core.ActionDataCompaction {
		if r.data == nil {
			return compaction.Result{
				Table: c.Table.FullName(),
				Err:   fmt.Errorf("maintenance: no data runner for %s", c.ID()),
			}
		}
		return r.data.Run(c)
	}
	res := compaction.Result{Table: c.Table.FullName()}
	m, ok := c.Table.(maintainer)
	if !ok {
		res.Err = fmt.Errorf("maintenance: %s is not maintainable (%T)", c.ID(), c.Table)
		return res
	}
	switch c.Action {
	case core.ActionSnapshotExpiry:
		pol := r.src.PolicyFor(c.Table.Database(), c.Table.Name())
		var avg int64
		if mt, ok := c.Table.(metadataTable); ok {
			avg = avgObjectBytes(mt.MetadataStats())
		}
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
func (r maintenanceRunner) fold(res *compaction.Result, mr lst.MaintenanceResult, err error) {
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
func (r maintenanceRunner) price(res *compaction.Result, bytes int64) {
	if r.rewriteBytesPerHour <= 0 || bytes <= 0 {
		return
	}
	hours := float64(bytes) / r.rewriteBytesPerHour
	res.GBHr = r.executorMemoryGB * hours
	res.Duration = time.Duration(hours * float64(time.Hour))
}

// avgObjectBytes is the mean metadata object size (0 for an empty log).
func avgObjectBytes(ms lst.MetadataStats) int64 {
	if ms.Objects == 0 {
		return 0
	}
	return ms.Bytes / int64(ms.Objects)
}
