package fleet

import (
	"fmt"
	"time"

	"autocomp/internal/compaction"
	"autocomp/internal/core"
	"autocomp/internal/storage"
)

// Connector adapts a Fleet to core.Connector.
type Connector struct{ Fleet *Fleet }

// Tables implements core.Connector.
func (c Connector) Tables() []core.Table {
	ts := c.Fleet.Tables()
	out := make([]core.Table, len(ts))
	for i, t := range ts {
		out[i] = t
	}
	return out
}

// QuotaUtilization implements core.Connector.
func (c Connector) QuotaUtilization(db string) float64 {
	return c.Fleet.QuotaUtilization(db)
}

// Now implements core.Connector.
func (c Connector) Now() time.Duration { return c.Fleet.clock.Now() }

// Observer derives the standard observe-phase stats from the aggregate
// table model (a metadata-warehouse-style observer: no file listings).
type Observer struct{ Fleet *Fleet }

// Observe implements core.Observer.
func (o Observer) Observe(c *core.Candidate) (core.Stats, error) {
	t, ok := c.Table.(*Table)
	if !ok {
		return core.Stats{}, fmt.Errorf("fleet: observer requires *fleet.Table, got %T", c.Table)
	}
	now := o.Fleet.clock.Now()
	return core.Stats{
		FileCount:        t.FileCount(),
		TotalBytes:       t.TotalBytes(),
		SmallFiles:       int(t.SmallFiles()),
		SmallBytes:       t.SmallBytes(),
		DeltaFiles:       0,
		TableAge:         now - t.created,
		SinceLastWrite:   now - t.lastWrite,
		WriteCount:       t.writes,
		QuotaUtilization: o.Fleet.QuotaUtilization(t.db),
		// Custom usage metrics (§4.1/§8): the fleet knows how often the
		// daily scan workload reads each table.
		Custom: map[string]float64{"read_rate": t.scanShare},
	}, nil
}

// CompactionModel parameterizes the analytic rewrite model.
type CompactionModel struct {
	// TargetFileSize of outputs.
	TargetFileSize int64
	// RewriteBytesPerHour is fleet compaction throughput.
	RewriteBytesPerHour float64
	// ExecutorMemoryGB prices GBHr.
	ExecutorMemoryGB float64
	// OverheadFactor inflates actual cost over the §4.2 estimate
	// (the paper observed ~19% underestimation, §7).
	OverheadFactor float64
}

// DefaultModel matches the trait estimator's parameters plus the
// production overhead.
func DefaultModel(target int64) CompactionModel {
	return CompactionModel{
		TargetFileSize:      target,
		RewriteBytesPerHour: float64(3 * storage.TB),
		ExecutorMemoryGB:    64,
		OverheadFactor:      1.19,
	}
}

// Runner executes compactions against the aggregate model, implementing
// core.Runner for fleet tables.
type Runner struct {
	Fleet *Fleet
	Model CompactionModel
}

// Run implements core.Runner.
func (r Runner) Run(c *core.Candidate) compaction.Result {
	t, ok := c.Table.(*Table)
	if !ok {
		name := "<nil>"
		if c.Table != nil {
			name = c.Table.FullName()
		}
		return compaction.Result{
			Table: name,
			Err:   fmt.Errorf("fleet: runner requires *fleet.Table, got %T", c.Table),
		}
	}
	return r.CompactTable(t)
}

// CompactTable merges a table's small files within partition boundaries
// (analytically): with s small files over p partitions, the mergeable
// fraction is 1 − p/s when files outnumber partitions (lone files per
// partition cannot merge, §7), and outputs are smallBytes/target-sized.
func (r Runner) CompactTable(t *Table) compaction.Result {
	res := compaction.Result{Table: t.FullName(), Scope: compaction.TableScope}
	small := t.SmallFiles()
	smallBytes := t.SmallBytes()
	if small < 2 || smallBytes == 0 {
		res.Skipped = true
		return res
	}

	mergeFrac := 1.0
	if t.partitioned && t.partitions > 0 {
		spread := float64(small) / float64(t.partitions)
		if spread <= 1 {
			mergeFrac = 0
		} else {
			mergeFrac = 1 - 1/spread
		}
	}
	mergeable := int64(float64(small) * mergeFrac)
	if mergeable < 2 {
		res.Skipped = true
		return res
	}
	mergeBytes := int64(float64(smallBytes) * float64(mergeable) / float64(small))
	target := r.Model.TargetFileSize
	outFiles := (mergeBytes + target - 1) / target
	if outFiles < 1 {
		outFiles = 1
	}
	if outFiles >= mergeable {
		res.Skipped = true
		return res
	}

	// Apply: drain the two small buckets proportionally, credit the
	// full bucket.
	drainFrac := float64(mergeable) / float64(small)
	var drained int64
	for b := 0; b < 2; b++ {
		dc := int64(float64(t.counts[b]) * drainFrac)
		db := int64(float64(t.bytes[b]) * drainFrac)
		t.counts[b] -= dc
		t.bytes[b] -= db
		drained += dc
	}
	t.counts[BucketFull] += outFiles
	t.bytes[BucketFull] += mergeBytes
	t.fleet.addDBFiles(t.db, outFiles-drained)
	t.fleet.publish(t, 0, 0, true)

	res.FilesRemoved = int(mergeable)
	res.FilesAdded = int(outFiles)
	res.BytesRewritten = mergeBytes

	// Cost: the §4.2 estimate times the production overhead, with
	// deterministic jitter.
	estGBHr := r.Model.ExecutorMemoryGB * float64(smallBytes) / r.Model.RewriteBytesPerHour
	res.GBHr = estGBHr * r.Fleet.rngExec.Jitter(r.Model.OverheadFactor, 0.08)
	res.Duration = time.Duration(float64(mergeBytes) / r.Model.RewriteBytesPerHour * float64(time.Hour))
	return res
}

// CompactTables compacts an explicit table set (the manual strategy of
// §7: a fixed list of ~100 susceptible tables) and returns total files
// reduced and GBHr spent.
func (r Runner) CompactTables(tables []*Table) (filesReduced int64, gbhr float64) {
	for _, t := range tables {
		res := r.CompactTable(t)
		if res.Succeeded() {
			filesReduced += int64(res.Reduction())
		}
		gbhr += res.GBHr
	}
	return filesReduced, gbhr
}

// MostFragmented returns the k tables with the most small files right
// now — how the manual compaction list was chosen (§7).
func (f *Fleet) MostFragmented(k int) []*Table {
	sorted := make([]*Table, len(f.tables))
	copy(sorted, f.tables)
	// Insertion-style partial selection keeps determinism and is fast
	// enough for fleet sizes.
	for i := 0; i < len(sorted); i++ {
		max := i
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j].SmallFiles() > sorted[max].SmallFiles() ||
				(sorted[j].SmallFiles() == sorted[max].SmallFiles() &&
					sorted[j].FullName() < sorted[max].FullName()) {
				max = j
			}
		}
		sorted[i], sorted[max] = sorted[max], sorted[i]
		if i >= k {
			break
		}
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}
