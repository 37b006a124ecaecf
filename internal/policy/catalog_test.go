package policy

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"autocomp/internal/catalog"
	"autocomp/internal/core"
	"autocomp/internal/lst"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// catalogLake builds a control plane with one database and n tables,
// each aged with commits single-file appends.
func catalogLake(t *testing.T, n, commits int) (*catalog.ControlPlane, *sim.Clock) {
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

// metadataOnlySpec is the unified-maintenance MOOP with no generators:
// only snapshot expiry, checkpoint, and manifest-rewrite candidates,
// selected under one budget.
func metadataOnlySpec(budgetGBHr float64) *Spec {
	s := DefaultSpec()
	s.Name = "catalog-metadata"
	s.Generators = nil
	s.Execution = nil
	s.Selector = BudgetSelector(budgetGBHr)
	s.Maintenance = &MaintenanceSpec{RetainSnapshots: 5, CheckpointEveryVersions: 10, MinManifestSurplus: 8}
	return s
}

// stubEnvAt returns StubEnv running on clock.
func stubEnvAt(clock *sim.Clock) Env {
	env := StubEnv()
	env.Now = clock.Now
	return env
}

func TestCatalogServiceUnifiedCycle(t *testing.T) {
	cp, clock := catalogLake(t, 3, 25)
	_, svc, _, err := CatalogService(metadataOnlySpec(1024), stubEnvAt(clock), cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Override one table's catalog policy: retention must follow it.
	if err := cp.SetPolicies("db1", "ta", catalog.TablePolicies{RetainSnapshots: 2, CheckpointEveryVersions: 10}); err != nil {
		t.Fatal(err)
	}
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	counts := rep.ActionCounts()
	if counts[core.ActionMetadataCheckpoint] == 0 {
		t.Fatalf("action counts = %v", counts)
	}
	if rep.MetadataReduced <= 0 {
		t.Fatalf("metadata reduced = %d", rep.MetadataReduced)
	}
	ta, err := cp.Table("db1", "ta")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ta.Snapshots()); got != 2 {
		t.Fatalf("ta retained %d snapshots, want 2 (catalog policy)", got)
	}

	// Steady state: a second cycle right after finds nothing metadata-
	// worthy (no commits in between).
	rep2, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.MetadataReduced != 0 {
		t.Fatalf("second cycle reduced %d metadata objects", rep2.MetadataReduced)
	}
}

func TestBudgetSharedAcrossActionFamilies(t *testing.T) {
	cp, clock := catalogLake(t, 2, 30)
	// A budget below every candidate's cost admits nothing: metadata
	// actions are priced and obey the same selector as data compaction.
	const budget = 1e-9
	_, svc, _, err := CatalogService(metadataOnlySpec(budget), stubEnvAt(clock), cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := svc.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Ranked) == 0 {
		t.Fatal("no candidates ranked")
	}
	for _, c := range d.Ranked {
		if cost := c.Trait(core.ComputeCost{}.Name()); cost <= budget {
			t.Fatalf("%s costs %g GBHr, not above the %g budget", c.ID(), cost, budget)
		}
	}
	if len(d.Selected) != 0 {
		t.Fatalf("budget below every cost selected %d candidates", len(d.Selected))
	}
}

// TestCatalogServiceTriggerFollowsCatalog checks that the trigger path
// layers the catalog's per-table TriggerEveryCommits over the spec's
// trigger section.
func TestCatalogServiceTriggerFollowsCatalog(t *testing.T) {
	cp, clock := catalogLake(t, 2, 3)
	if err := cp.SetPolicies("db1", "ta", catalog.TablePolicies{TriggerEveryCommits: 2}); err != nil {
		t.Fatal(err)
	}
	spec := DefaultDataSpec(false)
	spec.Trigger = &TriggerSpec{EveryCommits: 1}
	_, svc, feed, err := CatalogService(spec, stubEnvAt(clock), cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if feed == nil {
		t.Fatal("trigger section built no feed")
	}
	commit := func(name string) {
		t.Helper()
		tbl, err := cp.Table("db1", name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.AppendFiles([]lst.FileSpec{{SizeBytes: storage.MB, RowCount: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	scan := func(want ...string) {
		t.Helper()
		if _, err := svc.Decide(); err != nil {
			t.Fatal(err)
		}
		if got := feed.ScannedNames(); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d scanned %v, want %v", feed.LastScan().Cycle, got, want)
		}
	}
	scan("db1.ta", "db1.tb") // cold start: full scan
	commit("ta")
	commit("tb")
	scan("db1.tb") // ta's catalog trigger needs 2 commits
	commit("ta")
	scan("db1.ta")
}

func TestUndeclaredTraitReadsRejected(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Generators: []Component{C("table-scope")},
			Traits:     []Component{C("file_count_reduction")},
			Objectives: []ObjectiveSpec{{Trait: C("file_count_reduction"), Weight: 1}},
		}
	}
	maxTrait := func(trait string) Component {
		return Component{Name: "max-trait", Params: map[string]any{"trait": trait, "max": float64(5)}}
	}
	cases := []struct {
		name string
		edit func(*Spec)
		want string // "" = valid
	}{
		{"budget default cost trait", func(s *Spec) { s.Selector = BudgetSelector(10) },
			`budget cost trait "compute_cost_gbhr" is not in the traits list`},
		{"budget named cost trait", func(s *Spec) {
			s.Selector = &Component{Name: "budget", Params: map[string]any{"budget_gbhr": float64(10), "cost_trait": "file_entropy"}}
		}, `budget cost trait "file_entropy" is not in the traits list`},
		{"budget with cost trait listed", func(s *Spec) {
			s.Traits = append(s.Traits, C("compute_cost_gbhr"))
			s.Selector = BudgetSelector(10)
		}, ""},
		{"max-trait unlisted", func(s *Spec) { s.TraitFilters = []Component{maxTrait("compute_cost_gbhr")} },
			`max-trait trait "compute_cost_gbhr" is not in the traits list`},
		{"max-trait inside for-action", func(s *Spec) {
			s.StatsFilters = []Component{{Name: "for-action", Params: map[string]any{
				"action": "data-compaction",
				"filter": map[string]any{"name": "max-trait", "params": map[string]any{"trait": "quota_pressure", "max": float64(1)}},
			}}}
		}, `max-trait trait "quota_pressure" is not in the traits list`},
		{"max-trait listed", func(s *Spec) { s.TraitFilters = []Component{maxTrait("file_count_reduction")} }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.edit(s)
			err := Validate(s, StubEnv())
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid spec rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}
