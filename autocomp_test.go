package autocomp

import (
	"testing"
	"time"

	"autocomp/internal/catalog"
	"autocomp/internal/cluster"
	"autocomp/internal/lst"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

func facadeLake(t *testing.T) (*catalog.ControlPlane, *cluster.Cluster, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, sim.NewRNG(1))
	cp := catalog.New(fs, clock)
	cc := cluster.New(cluster.CompactionClusterConfig(), clock)
	return cp, cc, clock
}

func fragment(t *testing.T, cp *catalog.ControlPlane, db, name string, files int) *lst.Table {
	t.Helper()
	if _, err := cp.CreateDatabase(db, "tenant", 0); err != nil &&
		err.Error() != "catalog: database already exists: "+db {
		t.Fatal(err)
	}
	tbl, err := cp.CreateTable(db, lst.TableConfig{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]lst.FileSpec, files)
	for i := range specs {
		specs[i] = lst.FileSpec{SizeBytes: 8 << 20, RowCount: 100}
	}
	if _, err := tbl.AppendFiles(specs); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// topK returns the default spec selecting the k highest-ranked
// candidates.
func topK(k int) *Spec {
	spec := DefaultSpec()
	spec.Selector = TopKSelector(k)
	return spec
}

func TestNewDefaultsAndRunOnce(t *testing.T) {
	cp, cc, clock := facadeLake(t)
	tbl := fragment(t, cp, "sales", "orders", 30)
	clock.Advance(48 * time.Hour)

	ledger := &EstimatorLedger{}
	svc, err := New(cp, cc, topK(5), ledger.Observe)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesReduced != 29 { // 30 small files → 1
		t.Fatalf("files reduced = %d", rep.FilesReduced)
	}
	if tbl.FileCount() != 1 {
		t.Fatalf("file count = %d", tbl.FileCount())
	}
	if len(ledger.Records()) != 1 {
		t.Fatal("feedback ledger empty")
	}
}

func TestNewAgeFilterSkipsFreshTables(t *testing.T) {
	cp, cc, _ := facadeLake(t)
	fragment(t, cp, "sales", "fresh", 30) // created "now"
	svc, err := New(cp, cc, topK(5))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision.AfterPreFilters != 0 {
		t.Fatalf("fresh table not filtered: %d", rep.Decision.AfterPreFilters)
	}
}

func TestNewBudgetSelection(t *testing.T) {
	cp, cc, clock := facadeLake(t)
	for i := 0; i < 6; i++ {
		fragment(t, cp, "sales", "t"+string(rune('a'+i)), 20)
	}
	clock.Advance(48 * time.Hour)
	// Each candidate costs ~192GB × 160MB/1.8TBph ≈ 0.017 GBHr; a budget
	// of 0.04 admits 2.
	spec := DefaultSpec()
	spec.Selector = BudgetSelector(0.04)
	svc, err := New(cp, cc, spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Decision.Selected); got == 0 || got >= 6 {
		t.Fatalf("budget selected %d of 6", got)
	}
}

func TestNewQuotaAdaptive(t *testing.T) {
	cp, cc, clock := facadeLake(t)
	fragment(t, cp, "sales", "orders", 10)
	clock.Advance(48 * time.Hour)
	spec := topK(1)
	spec.QuotaAdaptive = true
	svc, err := New(cp, cc, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RunOnce(); err != nil {
		t.Fatal(err)
	}
}

func TestNewHybridScope(t *testing.T) {
	cp, cc, clock := facadeLake(t)
	if _, err := cp.CreateDatabase("logs", "tenant", 0); err != nil {
		t.Fatal(err)
	}
	tbl, err := cp.CreateTable("logs", lst.TableConfig{
		Name: "events",
		Spec: lst.PartitionSpec{Column: "day", Transform: lst.TransformDay},
	})
	if err != nil {
		t.Fatal(err)
	}
	var specs []lst.FileSpec
	for _, p := range []string{"d1", "d2", "d3"} {
		for i := 0; i < 10; i++ {
			specs = append(specs, lst.FileSpec{Partition: p, SizeBytes: 4 << 20, RowCount: 10})
		}
	}
	if _, err := tbl.AppendFiles(specs); err != nil {
		t.Fatal(err)
	}
	clock.Advance(48 * time.Hour)

	spec := topK(100)
	spec.Generators = []policy.Component{policy.C("hybrid-scope")}
	svc, err := New(cp, cc, spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	// Three partition-scope candidates, each 10 → 1.
	if len(rep.Results) != 3 || rep.FilesReduced != 27 {
		t.Fatalf("results = %d, reduced = %d", len(rep.Results), rep.FilesReduced)
	}
}
