package bench

import (
	"testing"
	"time"

	"autocomp/internal/storage"
	"autocomp/internal/workload"
)

// smallCAB returns a scaled-down CAB config that runs fast in tests.
func smallCAB() workload.CABConfig {
	return workload.CABConfig{
		RawDataBytes: 20 * storage.GB,
		Databases:    4,
		CPUHours:     1,
		Duration:     3 * time.Hour,
		Months:       6,
		Seed:         1,
	}
}

func TestEnvDefaults(t *testing.T) {
	env := NewEnv(EnvConfig{Seed: 1})
	if env.TargetFileSize != 512*storage.MB {
		t.Fatalf("target = %d", env.TargetFileSize)
	}
	if env.QueryCluster.Config().Executors != 15 {
		t.Fatalf("query executors = %d", env.QueryCluster.Config().Executors)
	}
	if env.CompactionCluster.Config().Executors != 3 {
		t.Fatalf("compaction executors = %d", env.CompactionCluster.Config().Executors)
	}
	if env.WriteCluster.Config().Executors != 7 {
		t.Fatalf("write executors = %d", env.WriteCluster.Config().Executors)
	}
	if cc := env.CompactionCluster.Config(); cc.RewriteBytesPerHour() <= 0 || cc.ExecutorMemoryGB() != 64*3 {
		t.Fatal("throughput/memory accessors")
	}
}

func TestRunCABNoCompactionGrowsFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("CAB/phased runs take ~100ms-1s each; skipped in -short")
	}
	res, err := RunCAB(CABRunConfig{
		Workload: smallCAB(),
		Strategy: Strategy{Kind: NoCompaction},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 {
		t.Fatal("no queries ran")
	}
	fc := res.FileCounts.Values()
	if len(fc) < 3 {
		t.Fatalf("file-count samples = %d", len(fc))
	}
	if fc[len(fc)-1] <= fc[0] {
		t.Fatalf("baseline file count did not grow: %v -> %v", fc[0], fc[len(fc)-1])
	}
	if res.CompactionRuns != 0 || len(res.CompactionGBHrs) != 0 {
		t.Fatal("no-compaction run compacted")
	}
}

func TestRunCABTableStrategyReducesFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("CAB/phased runs take ~100ms-1s each; skipped in -short")
	}
	base, err := RunCAB(CABRunConfig{
		Workload: smallCAB(),
		Strategy: Strategy{Kind: NoCompaction},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := RunCAB(CABRunConfig{
		Workload: smallCAB(),
		Strategy: Strategy{Kind: MOOPTable, TopK: 10},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if comp.CompactionRuns != 2 { // 3-hour run → triggers at h1, h2
		t.Fatalf("compaction runs = %d", comp.CompactionRuns)
	}
	if comp.FilesReducedTotal == 0 {
		t.Fatal("no files reduced")
	}
	bLast := base.FileCounts.Last()
	cLast := comp.FileCounts.Last()
	if cLast >= bLast {
		t.Fatalf("compaction did not reduce final file count: %v vs %v", cLast, bLast)
	}
	if len(comp.CompactionGBHrs) == 0 {
		t.Fatal("no GBHrApp recorded")
	}
}

func TestRunCABHybridGentlerThanTable(t *testing.T) {
	if testing.Short() {
		t.Skip("CAB/phased runs take ~100ms-1s each; skipped in -short")
	}
	table, err := RunCAB(CABRunConfig{
		Workload: smallCAB(),
		Strategy: Strategy{Kind: MOOPTable, TopK: 10},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := RunCAB(CABRunConfig{
		Workload: smallCAB(),
		Strategy: Strategy{Kind: MOOPHybrid, TopK: 10},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hybrid compacts fewer files per run (partition-scope work units),
	// so its reduction is more gradual (§6.1).
	if hybrid.FilesReducedTotal >= table.FilesReducedTotal {
		t.Fatalf("hybrid %d >= table %d files reduced",
			hybrid.FilesReducedTotal, table.FilesReducedTotal)
	}
}

func TestRunCABDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("CAB/phased runs take ~100ms-1s each; skipped in -short")
	}
	run := func() *CABResult {
		res, err := RunCAB(CABRunConfig{
			Workload: smallCAB(),
			Strategy: Strategy{Kind: MOOPTable, TopK: 5},
			Seed:     7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Queries != b.Queries || a.FilesReducedTotal != b.FilesReducedTotal ||
		a.EndToEnd != b.EndToEnd || a.FileCounts.Last() != b.FileCounts.Last() {
		t.Fatalf("non-deterministic runs: %+v vs %+v", a.Queries, b.Queries)
	}
}

func TestStrategyLabels(t *testing.T) {
	if (Strategy{Kind: MOOPTable, TopK: 10}).Label() != "MOOP (Table, Top-10)" {
		t.Fatal("table label")
	}
	if (Strategy{Kind: MOOPHybrid, TopK: 500}).Label() != "MOOP (Hybrid, Top-500)" {
		t.Fatal("hybrid label")
	}
	if (Strategy{}).Label() != "No Compaction" {
		t.Fatal("baseline label")
	}
	if NoCompaction.String() != "no-compaction" || MOOPTable.String() != "moop-table" ||
		MOOPHybrid.String() != "moop-hybrid" || StrategyKind(9).String() != "unknown" {
		t.Fatal("kind strings")
	}
}

func TestRunPhasedWP1MaintenanceDegradesReads(t *testing.T) {
	if testing.Short() {
		t.Skip("CAB/phased runs take ~100ms-1s each; skipped in -short")
	}
	res, err := RunPhased(PhasedRunConfig{
		Workload: workload.TPCDSWP1(20 * storage.GB),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) == 0 || res.Total <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// First single-user phase (clean layout) vs last one (after 4
	// maintenance rounds without compaction): reads must be slower.
	var first, last time.Duration
	for _, p := range res.Phases {
		if p.Name == "single-user-1" && first == 0 {
			first = p.Duration
		}
		if p.Name == "single-user" {
			last = p.Duration
		}
	}
	if first == 0 || last == 0 {
		t.Fatalf("phases = %+v", res.Phases)
	}
	if last <= first {
		t.Fatalf("maintenance did not degrade reads: first=%v last=%v", first, last)
	}
}

func TestRunPhasedHookRestoresPerformance(t *testing.T) {
	if testing.Short() {
		t.Skip("CAB/phased runs take ~100ms-1s each; skipped in -short")
	}
	noComp, err := RunPhased(PhasedRunConfig{
		Workload: workload.TPCDSWP1(20 * storage.GB),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hooked, err := RunPhased(PhasedRunConfig{
		Workload: workload.TPCDSWP1(20 * storage.GB),
		Seed:     1,
		Hook:     HookSpec{Enabled: true, Trait: HookSmallFileCount, Threshold: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hooked.HookTriggers == 0 {
		t.Fatal("hook never triggered")
	}
	if hooked.FilesAtEnd >= noComp.FilesAtEnd {
		t.Fatalf("hook did not reduce files: %d vs %d", hooked.FilesAtEnd, noComp.FilesAtEnd)
	}
}

func TestRunPhasedWP3OverlapsWriteLane(t *testing.T) {
	if testing.Short() {
		t.Skip("CAB/phased runs take ~100ms-1s each; skipped in -short")
	}
	wp1, err := RunPhased(PhasedRunConfig{
		Workload: workload.TPCDSWP1(20 * storage.GB),
		Seed:     1,
		Hook:     HookSpec{Enabled: true, Trait: HookSmallFileCount, Threshold: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	wp3, err := RunPhased(PhasedRunConfig{
		Workload: workload.TPCDSWP3(20 * storage.GB),
		Seed:     1,
		Hook:     HookSpec{Enabled: true, Trait: HookSmallFileCount, Threshold: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	// WP3's writes and compactions overlap the read lane, so its
	// end-to-end time is shorter than WP1's serial execution.
	if wp3.Total >= wp1.Total {
		t.Fatalf("WP3 %v >= WP1 %v", wp3.Total, wp1.Total)
	}
}

func TestRunPhasedManualCompactionTracked(t *testing.T) {
	if testing.Short() {
		t.Skip("CAB/phased runs take ~100ms-1s each; skipped in -short")
	}
	res, err := RunPhased(PhasedRunConfig{
		Workload:           workload.TPCDSWP1(20 * storage.GB),
		Seed:               1,
		CompactAfterPhases: map[string]bool{"maintenance": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ManualCompactionTime <= 0 {
		t.Fatal("manual compaction time not tracked")
	}
	if res.CompactionGBHr <= 0 {
		t.Fatal("manual compaction GBHr not tracked")
	}
}

func TestHookTraitStrings(t *testing.T) {
	if HookSmallFileCount.String() != "small-file-count" || HookEntropy.String() != "entropy" {
		t.Fatal("hook trait strings")
	}
}
