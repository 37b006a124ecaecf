package experiments

import (
	"fmt"

	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/metrics"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// --- Unified maintenance: metadata checkpointing as a budgeted action ---

// MaintSample is one sampled day of the paired-fleet run.
type MaintSample struct {
	Day int
	// DataOnlyMeta and UnifiedMeta are fleet-wide metadata-object
	// counts under the two regimes.
	DataOnlyMeta int64
	UnifiedMeta  int64
	// DataOnlyObjects and UnifiedObjects are total NameNode objects
	// (data files + metadata).
	DataOnlyObjects int64
	UnifiedObjects  int64
}

// MaintResult compares a data-only AutoComp deployment against the
// unified maintenance pipeline, where snapshot expiry, metadata
// checkpointing, and manifest rewriting compete with data compaction for
// the same GBHr budget in one MOOP ranking. The paper's cause (iv) —
// per-commit metadata files — goes unmanaged in the data-only regime, so
// its metadata-object count grows without bound; the unified regime holds
// it at a policy-determined steady state.
type MaintResult struct {
	Samples []MaintSample

	// Action tallies across the unified run (the data-only run executes
	// only data compactions by construction).
	DataCompactions  int
	Checkpoints      int
	Expiries         int
	ManifestRewrites int

	DataOnlyFinalMeta int64
	UnifiedFinalMeta  int64
	// MetaGrowthDataOnly and MetaGrowthUnified are final/midpoint
	// metadata-count ratios — ~1 means steady state.
	MetaGrowthDataOnly float64
	MetaGrowthUnified  float64
	// NameNode utilization: total objects over one NameNode's capacity.
	DataOnlyUtilization float64
	UnifiedUtilization  float64
	// Metadata planning opens accumulated over the run.
	DataOnlyMetaOpens int64
	UnifiedMetaOpens  int64
}

// ID implements Result.
func (MaintResult) ID() string { return "maint" }

// Title implements Result.
func (MaintResult) Title() string {
	return "Unified maintenance: fleet metadata objects, data-only vs unified pipeline"
}

// Render implements Result.
func (r MaintResult) Render() string {
	rows := make([][]string, 0, len(r.Samples))
	for _, s := range r.Samples {
		rows = append(rows, []string{
			fmt.Sprintf("%d", s.Day),
			fmt.Sprintf("%d", s.DataOnlyMeta),
			fmt.Sprintf("%d", s.UnifiedMeta),
			fmt.Sprintf("%d", s.DataOnlyObjects),
			fmt.Sprintf("%d", s.UnifiedObjects),
		})
	}
	body := metrics.RenderTable(
		[]string{"Day", "Meta (data-only)", "Meta (unified)", "Objects (data-only)", "Objects (unified)"},
		rows)
	body += fmt.Sprintf("\nunified actions: %d data compactions, %d checkpoints, %d expiries, %d manifest rewrites\n",
		r.DataCompactions, r.Checkpoints, r.Expiries, r.ManifestRewrites)
	body += fmt.Sprintf("metadata growth (final/midpoint): data-only %.2fx, unified %.2fx\n",
		r.MetaGrowthDataOnly, r.MetaGrowthUnified)
	body += fmt.Sprintf("NameNode utilization: data-only %.4f, unified %.4f (one NameNode = %d objects)\n",
		r.DataOnlyUtilization, r.UnifiedUtilization, storage.DefaultConfig().ObjectsPerNameNode)
	body += fmt.Sprintf("metadata planning opens: data-only %d, unified %d\n",
		r.DataOnlyMetaOpens, r.UnifiedMetaOpens)
	return body
}

// RunMaint ages two identical fleets under the same daily compute budget:
// one running the data-only pipeline, one the unified maintenance
// pipeline. Both use the same budget selector — metadata actions are not
// scheduled by a side loop; they must win budget in the shared ranking.
func RunMaint(seed int64, quick bool) (Result, error) {
	days, sampleEvery := 360, 60
	if quick {
		days, sampleEvery = 90, 15
	}
	model := fleet.DefaultModel(512 * storage.MB)

	newFleet := func() *fleet.Fleet {
		return fleet.New(fleetConfig(seed, quick), sim.NewClock())
	}
	dataFleet, unifiedFleet := newFleet(), newFleet()

	dataSvc, err := dataService(dataFleet, model, policy.BudgetSelector(226*1024))
	if err != nil {
		return nil, err
	}
	unifiedSpec := policy.DefaultSpec()
	unifiedSpec.Selector = policy.BudgetSelector(226 * 1024)
	unifiedSpec.Execution = nil
	unifiedSS, err := unifiedFleet.ServiceFromSpec(unifiedSpec, model, fleet.SpecRunOptions{})
	if err != nil {
		return nil, err
	}
	unifiedSvc := unifiedSS.Svc

	res := MaintResult{}
	var midDataOnly, midUnified int64
	for d := 1; d <= days; d++ {
		dataFleet.AdvanceDay()
		unifiedFleet.AdvanceDay()
		dataFleet.RunDailyScans()
		unifiedFleet.RunDailyScans()
		if _, err := dataSvc.RunOnce(); err != nil {
			return nil, err
		}
		rep, err := unifiedSvc.RunOnce()
		if err != nil {
			return nil, err
		}
		for action, n := range rep.ActionCounts() {
			switch action {
			case core.ActionDataCompaction:
				res.DataCompactions += n
			case core.ActionMetadataCheckpoint:
				res.Checkpoints += n
			case core.ActionSnapshotExpiry:
				res.Expiries += n
			case core.ActionManifestRewrite:
				res.ManifestRewrites += n
			}
		}
		if d%sampleEvery == 0 || d == days {
			res.Samples = append(res.Samples, MaintSample{
				Day:             d,
				DataOnlyMeta:    dataFleet.TotalMetadataObjects(),
				UnifiedMeta:     unifiedFleet.TotalMetadataObjects(),
				DataOnlyObjects: dataFleet.TotalObjects(),
				UnifiedObjects:  unifiedFleet.TotalObjects(),
			})
		}
		if d == days/2 {
			midDataOnly = dataFleet.TotalMetadataObjects()
			midUnified = unifiedFleet.TotalMetadataObjects()
		}
	}

	res.DataOnlyFinalMeta = dataFleet.TotalMetadataObjects()
	res.UnifiedFinalMeta = unifiedFleet.TotalMetadataObjects()
	if midDataOnly > 0 {
		res.MetaGrowthDataOnly = float64(res.DataOnlyFinalMeta) / float64(midDataOnly)
	}
	if midUnified > 0 {
		res.MetaGrowthUnified = float64(res.UnifiedFinalMeta) / float64(midUnified)
	}
	perNN := float64(storage.DefaultConfig().ObjectsPerNameNode)
	res.DataOnlyUtilization = float64(dataFleet.TotalObjects()) / perNN
	res.UnifiedUtilization = float64(unifiedFleet.TotalObjects()) / perNN
	res.DataOnlyMetaOpens = dataFleet.MetadataOpenCalls()
	res.UnifiedMetaOpens = unifiedFleet.MetadataOpenCalls()
	return res, nil
}

func init() {
	register(Spec{ExpID: "maint", Title: MaintResult{}.Title(), Run: RunMaint})
}
