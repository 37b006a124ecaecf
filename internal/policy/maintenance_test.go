package policy

import (
	"testing"
	"time"

	"autocomp/internal/catalog"
	"autocomp/internal/core"
	"autocomp/internal/lst"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// maintenanceSource resolves m as the base maintenance policy of every
// table.
func maintenanceSource(m MaintenanceSpec) *Source {
	return NewSource(&Spec{Maintenance: &m}, nil)
}

// maintLake builds a control plane with one database and n tables, each
// aged with commits single-file appends.
func maintLake(t *testing.T, n, commits int) (*catalog.ControlPlane, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, sim.NewRNG(1))
	cp := catalog.New(fs, clock)
	if _, err := cp.CreateDatabase("db1", "tenant", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tbl, err := cp.CreateTable("db1", lst.TableConfig{
			Name:   "t" + string(rune('a'+i)),
			Schema: lst.Schema{Fields: []lst.Field{{Name: "k", Type: lst.TypeInt64}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < commits; c++ {
			clock.Advance(time.Minute)
			if _, err := tbl.AppendFiles([]lst.FileSpec{{SizeBytes: storage.MB, RowCount: 1}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cp, clock
}

func TestGeneratorEmitsPerPolicyTriggers(t *testing.T) {
	cp, _ := maintLake(t, 1, 30)
	tables := core.CatalogConnector{CP: cp}.Tables()

	// All three triggers fire: 30 snapshots > 5 retained, 30 versions
	// >= 10, 30 manifests vs 1 consolidated.
	gen := maintenanceGenerator{src: maintenanceSource(MaintenanceSpec{
		RetainSnapshots: 5, CheckpointEveryVersions: 10, MinManifestSurplus: 8,
	})}
	cands := gen.Candidates(tables)
	byAction := map[core.ActionType]int{}
	for _, c := range cands {
		byAction[c.Action]++
	}
	if byAction[core.ActionSnapshotExpiry] != 1 ||
		byAction[core.ActionMetadataCheckpoint] != 1 ||
		byAction[core.ActionManifestRewrite] != 1 {
		t.Fatalf("actions = %v", byAction)
	}

	// A lax policy silences every trigger.
	lax := maintenanceGenerator{src: maintenanceSource(MaintenanceSpec{
		RetainSnapshots: 100, CheckpointEveryVersions: 100, MinManifestSurplus: 100,
	})}
	if got := lax.Candidates(tables); len(got) != 0 {
		t.Fatalf("lax policy generated %d candidates", len(got))
	}

	// Zero values disable the trigger families outright.
	off := maintenanceGenerator{src: maintenanceSource(MaintenanceSpec{})}
	if got := off.Candidates(tables); len(got) != 0 {
		t.Fatalf("disabled policy generated %d candidates", len(got))
	}
}

func TestObserverFillsMetadataStats(t *testing.T) {
	cp, clock := maintLake(t, 1, 20)
	tbl := core.CatalogConnector{CP: cp}.Tables()[0]
	obs := maintenanceObserver{
		src: maintenanceSource(MaintenanceSpec{RetainSnapshots: 4, CheckpointEveryVersions: 10}),
		now: clock.Now,
	}

	ckpt := &core.Candidate{Table: tbl, Action: core.ActionMetadataCheckpoint}
	s, err := obs.Observe(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// 41 objects (21 metadata.json + 20 manifests) collapse to 2.
	if s.MetadataObjects != 41 || s.MetadataReducible != 39 {
		t.Fatalf("checkpoint stats = %+v", s)
	}
	if s.MetadataBytes <= 0 || s.Snapshots != 20 {
		t.Fatalf("checkpoint stats = %+v", s)
	}

	exp := &core.Candidate{Table: tbl, Action: core.ActionSnapshotExpiry}
	s, err = obs.Observe(exp)
	if err != nil {
		t.Fatal(err)
	}
	lt := tbl.(*lst.Table)
	if s.MetadataReducible != lt.ExpireEstimate(4) {
		t.Fatalf("expiry reducible = %d, table estimate = %d", s.MetadataReducible, lt.ExpireEstimate(4))
	}
	// Expiry processes only the dropped objects, so its priced byte
	// volume must be well below the checkpoint's full-log volume.
	ckptStats, _ := obs.Observe(ckpt)
	if s.MetadataBytes >= ckptStats.MetadataBytes {
		t.Fatalf("expiry bytes %d >= checkpoint bytes %d", s.MetadataBytes, ckptStats.MetadataBytes)
	}

	// A data candidate without a data observer is a hard error.
	if _, err := obs.Observe(&core.Candidate{Table: tbl}); err == nil {
		t.Fatal("data candidate without data observer succeeded")
	}
}

func TestRunnerDispatchesActions(t *testing.T) {
	cp, _ := maintLake(t, 1, 20)
	tbl := core.CatalogConnector{CP: cp}.Tables()[0]
	r := maintenanceRunner{
		src:                 maintenanceSource(MaintenanceSpec{RetainSnapshots: 5}),
		executorMemoryGB:    64,
		rewriteBytesPerHour: float64(3 * storage.TB),
	}

	res := r.Run(&core.Candidate{Table: tbl, Action: core.ActionSnapshotExpiry})
	if res.Err != nil || res.Skipped {
		t.Fatalf("expiry result = %+v", res)
	}
	if res.Reduction() <= 0 {
		t.Fatalf("expiry reduced %d", res.Reduction())
	}

	res = r.Run(&core.Candidate{Table: tbl, Action: core.ActionMetadataCheckpoint})
	if res.Err != nil || res.Skipped || res.Reduction() <= 0 {
		t.Fatalf("checkpoint result = %+v", res)
	}
	if res.GBHr <= 0 {
		t.Fatal("checkpoint charged no GBHr")
	}
	if tbl.(*lst.Table).MetadataObjectCount() != 2 {
		t.Fatalf("table log not collapsed: %d objects", tbl.(*lst.Table).MetadataObjectCount())
	}

	// Re-running the checkpoint is a skip, not an error.
	res = r.Run(&core.Candidate{Table: tbl, Action: core.ActionMetadataCheckpoint})
	if !res.Skipped {
		t.Fatalf("second checkpoint = %+v", res)
	}

	// A data candidate without a data runner is a hard error.
	res = r.Run(&core.Candidate{Table: tbl})
	if res.Err == nil {
		t.Fatal("data candidate without data runner succeeded")
	}
}
