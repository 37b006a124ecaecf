package catalog_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"autocomp/internal/catalog"
	"autocomp/internal/lst"
	"autocomp/internal/lstlog"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

func newEnv() (*storage.NameNode, *sim.Clock) {
	clock := sim.NewClock()
	fs := storage.NewNameNode(storage.Config{}, clock, sim.NewRNG(1))
	return fs, clock
}

// buildLake populates cp with two databases, layered policies, and a
// small-file-heavy workload so a decide pass has real candidates.
func buildLake(t *testing.T, cp *catalog.ControlPlane, clock *sim.Clock) {
	t.Helper()
	if _, err := cp.CreateDatabase("sales", "tenant-a", 5000); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.CreateDatabase("logs", "tenant-b", 0); err != nil {
		t.Fatal(err)
	}
	if err := cp.SetDatabasePolicies("sales", catalog.TablePolicies{RetainSnapshots: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.CreateTable("sales", lst.TableConfig{
		Name: "orders",
		Spec: lst.PartitionSpec{Column: "day", Transform: lst.TransformDay},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.CreateTableWithPolicies("sales", lst.TableConfig{Name: "refunds"},
		catalog.TablePolicies{RetainSnapshots: 3, Intermediate: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.CreateTable("logs", lst.TableConfig{
		Name: "clicks",
		Spec: lst.PartitionSpec{Column: "day", Transform: lst.TransformDay},
	}); err != nil {
		t.Fatal(err)
	}
	parts := []string{"2024-03-01", "2024-03-02"}
	for i := 0; i < 12; i++ {
		clock.Advance(30 * time.Minute)
		for _, full := range []string{"sales.orders", "logs.clicks"} {
			tbl := mustTable(t, cp, full)
			if _, err := tbl.AppendFiles([]lst.FileSpec{
				{Partition: parts[i%2], SizeBytes: int64(3+i%4) * storage.MB, RowCount: 1000},
				{Partition: parts[i%2], SizeBytes: 5 * storage.MB, RowCount: 1500},
			}); err != nil {
				t.Fatal(err)
			}
		}
		tbl := mustTable(t, cp, "sales.refunds")
		if _, err := tbl.AppendFiles([]lst.FileSpec{
			{SizeBytes: 2 * storage.MB, RowCount: 200},
		}); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if _, err := tbl.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func mustTable(t *testing.T, cp *catalog.ControlPlane, full string) *lst.Table {
	t.Helper()
	for _, tbl := range cp.AllTables() {
		if tbl.FullName() == full {
			return tbl
		}
	}
	t.Fatalf("table %s not found", full)
	return nil
}

// lakeStates snapshots every table's full state keyed by name.
func lakeStates(cp *catalog.ControlPlane) map[string]*lst.TableState {
	out := make(map[string]*lst.TableState)
	for _, tbl := range cp.AllTables() {
		out[tbl.FullName()] = tbl.State()
	}
	return out
}

// decide runs a decide-only pipeline over the catalog and returns the
// ranked candidate IDs with scores — the decision surface restart must
// preserve.
func decide(t *testing.T, cp *catalog.ControlPlane, clock *sim.Clock) []string {
	t.Helper()
	spec := &policy.Spec{
		Name:       "persist-parity",
		Generators: []policy.Component{policy.C("hybrid-scope")},
		Traits:     []policy.Component{policy.C("file_count_reduction"), policy.C("compute_cost_gbhr")},
		Objectives: []policy.ObjectiveSpec{
			{Trait: policy.C("file_count_reduction"), Weight: 0.7},
			{Trait: policy.C("compute_cost_gbhr"), Weight: 0.3},
		},
	}
	env := policy.StubEnv()
	env.Now = clock.Now
	_, svc, _, err := policy.CatalogService(spec, env, cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := svc.Decide()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(d.Ranked))
	for _, c := range d.Ranked {
		out = append(out, c.ID())
	}
	return out
}

// TestPersistCatalogRoundTrip builds a logged lake, restores it in a
// fresh process image, and requires identical catalog metadata, table
// states, and decide output.
func TestPersistCatalogRoundTrip(t *testing.T) {
	store, err := lstlog.Open(lstlog.Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fs, clock := newEnv()
	cp := catalog.New(fs, clock)
	if err := cp.AttachLog(store); err != nil {
		t.Fatal(err)
	}
	buildLake(t, cp, clock)
	wantStates := lakeStates(cp)
	wantDecision := decide(t, cp, clock)

	fs2, clock2 := newEnv()
	clock2.Set(clock.Now())
	cp2, err := catalog.Restore(store, fs2, clock2)
	if err != nil {
		t.Fatal(err)
	}
	if got := lakeStates(cp2); !reflect.DeepEqual(wantStates, got) {
		t.Fatalf("restored table states differ\nwant: %+v\ngot:  %+v", wantStates, got)
	}
	if got, _ := cp2.DatabasePolicies("sales"); got.RetainSnapshots != 7 {
		t.Fatalf("database policies lost: %+v", got)
	}
	if got, err := cp2.Policies("sales", "refunds"); err != nil || got.RetainSnapshots != 3 || !got.Intermediate {
		t.Fatalf("table policies lost: %+v (%v)", got, err)
	}
	if got := cp2.QuotaUtilization("sales"); got == 0 {
		t.Fatal("sales quota not restored")
	}
	if got := decide(t, cp2, clock2); !reflect.DeepEqual(wantDecision, got) {
		t.Fatalf("restored lake decides differently\nwant: %v\ngot:  %v", wantDecision, got)
	}

	// The restored catalog keeps logging: further commits then a second
	// restore still round-trip.
	clock2.Advance(time.Hour)
	if _, err := mustTable(t, cp2, "sales.orders").AppendFiles([]lst.FileSpec{
		{Partition: "2024-03-03", SizeBytes: 9 * storage.MB, RowCount: 900},
	}); err != nil {
		t.Fatal(err)
	}
	fs3, clock3 := newEnv()
	clock3.Set(clock2.Now())
	cp3, err := catalog.Restore(store, fs3, clock3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lakeStates(cp2), lakeStates(cp3)) {
		t.Fatal("second restore diverged from live catalog")
	}
}

// TestPersistCatalogAttachWithHistory attaches the log to a lake that
// already has history: the bootstrap artifacts must round-trip it.
func TestPersistCatalogAttachWithHistory(t *testing.T) {
	store, err := lstlog.Open(lstlog.Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fs, clock := newEnv()
	cp := catalog.New(fs, clock)
	buildLake(t, cp, clock) // unlogged history
	if err := cp.AttachLog(store); err != nil {
		t.Fatal(err)
	}
	// Post-attach activity extends the bootstrapped logs.
	clock.Advance(time.Hour)
	if _, err := mustTable(t, cp, "logs.clicks").AppendFiles([]lst.FileSpec{
		{Partition: "2024-03-04", SizeBytes: 4 * storage.MB, RowCount: 400},
	}); err != nil {
		t.Fatal(err)
	}
	want := lakeStates(cp)

	fs2, clock2 := newEnv()
	clock2.Set(clock.Now())
	cp2, err := catalog.Restore(store, fs2, clock2)
	if err != nil {
		t.Fatal(err)
	}
	if got := lakeStates(cp2); !reflect.DeepEqual(want, got) {
		t.Fatalf("bootstrapped lake did not round-trip\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestPersistCatalogPointerCrash simulates a crash in CreateTable's
// durability window: the table's log directory and create action exist
// on disk, but the process died before the manifest named the table.
// Restore must ignore the orphan, and re-creating the table afterwards
// must start clean.
func TestPersistCatalogPointerCrash(t *testing.T) {
	store, err := lstlog.Open(lstlog.Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fs, clock := newEnv()
	cp := catalog.New(fs, clock)
	if err := cp.AttachLog(store); err != nil {
		t.Fatal(err)
	}
	buildLake(t, cp, clock)

	// The crash: a table's create action lands in its log, but the
	// manifest write never happens (built outside the catalog, exactly
	// what the kill window leaves behind).
	orphan, err := lst.NewTable(lst.TableConfig{Database: "sales", Name: "orphan"}, fs, clock)
	if err != nil {
		t.Fatal(err)
	}
	olog, err := store.CreateTableLog("sales", "orphan")
	if err != nil {
		t.Fatal(err)
	}
	if err := olog.Append(orphan.CreateAction()); err != nil {
		t.Fatal(err)
	}

	fs2, clock2 := newEnv()
	clock2.Set(clock.Now())
	cp2, err := catalog.Restore(store, fs2, clock2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp2.Table("sales", "orphan"); !errors.Is(err, catalog.ErrTableNotFound) {
		t.Fatalf("orphan table resurrected: %v", err)
	}
	if cp2.TableCount() != 3 {
		t.Fatalf("table count = %d, want 3", cp2.TableCount())
	}

	// Re-creating the orphaned name starts a fresh table: the debris log
	// is cleared, and the new table round-trips through a restore.
	if _, err := cp2.CreateTable("sales", lst.TableConfig{Name: "orphan"}); err != nil {
		t.Fatal(err)
	}
	if _, err := mustTable(t, cp2, "sales.orphan").AppendFiles([]lst.FileSpec{
		{SizeBytes: 6 * storage.MB, RowCount: 600},
	}); err != nil {
		t.Fatal(err)
	}
	fs3, clock3 := newEnv()
	clock3.Set(clock2.Now())
	cp3, err := catalog.Restore(store, fs3, clock3)
	if err != nil {
		t.Fatal(err)
	}
	want := mustTable(t, cp2, "sales.orphan").State()
	got := mustTable(t, cp3, "sales.orphan").State()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("re-created table did not round-trip\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestPersistCatalogDropTable drops a logged table and requires the
// durable state to forget it.
func TestPersistCatalogDropTable(t *testing.T) {
	store, err := lstlog.Open(lstlog.Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fs, clock := newEnv()
	cp := catalog.New(fs, clock)
	if err := cp.AttachLog(store); err != nil {
		t.Fatal(err)
	}
	buildLake(t, cp, clock)
	if err := cp.DropTable("sales", "refunds"); err != nil {
		t.Fatal(err)
	}

	fs2, clock2 := newEnv()
	clock2.Set(clock.Now())
	cp2, err := catalog.Restore(store, fs2, clock2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp2.Table("sales", "refunds"); !errors.Is(err, catalog.ErrTableNotFound) {
		t.Fatalf("dropped table survived restore: %v", err)
	}
	if !reflect.DeepEqual(lakeStates(cp), lakeStates(cp2)) {
		t.Fatal("surviving tables did not round-trip after drop")
	}
}
