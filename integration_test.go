package autocomp

// End-to-end integration tests across every substrate: storage quotas,
// the LST commit protocol, the catalog, the engine's untuned writers, and
// the AutoComp pipeline — reproducing the §7 production narrative where
// quota breaches caused user-visible failures until compaction relieved
// the namespace pressure.

import (
	"errors"
	"testing"
	"time"

	"autocomp/internal/core"
	"autocomp/internal/engine"
	"autocomp/internal/lst"
	"autocomp/internal/scenario/testkit"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// minTableAge sets spec's min-table-age pre-filter to min (a duration
// string).
func minTableAge(spec *Spec, min string) *Spec {
	spec.PreFilters[0].Params["min"] = min
	return spec
}

func TestQuotaBreachRelievedByCompaction(t *testing.T) {
	lake := testkit.NewLake(3)
	clock, fs, cp := lake.Clock, lake.FS, lake.CP
	compCl, eng := lake.CompactionCluster, lake.Engine

	// A tenant with a tight namespace quota.
	if _, err := cp.CreateDatabase("tenant", "team", 520); err != nil {
		t.Fatal(err)
	}
	tbl, err := cp.CreateTable("tenant", lst.TableConfig{Name: "events"})
	if err != nil {
		t.Fatal(err)
	}

	// Untuned writers burn the quota with small files until inserts
	// start failing — the paper's "frequent breaches of user HDFS
	// namespace quotas".
	var failed bool
	writes := 0
	for i := 0; i < 40 && !failed; i++ {
		res := eng.Exec(engine.Query{
			App: "ingest", Table: tbl, Kind: engine.Insert,
			Bytes: 512 << 20, Parallelism: 50,
		})
		writes++
		if res.Failed() {
			if !errors.Is(res.Err, storage.ErrQuotaExceeded) {
				t.Fatalf("unexpected failure: %v", res.Err)
			}
			failed = true
		}
	}
	if !failed {
		t.Fatal("quota never breached")
	}
	// The atomic pre-check rejects the batch that would overflow, so
	// the namespace sits just under its ceiling.
	q, _ := fs.QuotaFor("tenant")
	if q.Utilization() < 0.85 {
		t.Fatalf("quota utilization = %.2f at breach", q.Utilization())
	}

	// AutoComp with quota-adaptive weights steps in.
	clock.Advance(48 * time.Hour)
	spec := minTableAge(topK(5), "1h")
	spec.QuotaAdaptive = true
	svc, err := New(cp, compCl, spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesReduced == 0 {
		t.Fatalf("compaction reduced nothing: %+v", rep)
	}

	// The namespace has headroom again and writes succeed.
	q, _ = fs.QuotaFor("tenant")
	if q.Utilization() > 0.6 {
		t.Fatalf("quota still pressured after compaction: %.2f", q.Utilization())
	}
	res := eng.Exec(engine.Query{
		App: "ingest", Table: tbl, Kind: engine.Insert,
		Bytes: 512 << 20, Parallelism: 50,
	})
	if res.Failed() {
		t.Fatalf("write still failing after compaction: %v", res.Err)
	}
}

func TestPeriodicServiceKeepsLakeHealthy(t *testing.T) {
	lake := testkit.NewLake(5)
	clock, cp := lake.Clock, lake.CP
	compCl, eng := lake.CompactionCluster, lake.Engine
	events := sim.NewEventQueue(clock)

	cp.CreateDatabase("db", "team", 0)
	tbl, err := cp.CreateTable("db", lst.TableConfig{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}

	svc, err := New(cp, compCl, minTableAge(topK(5), "1m"))
	if err != nil {
		t.Fatal(err)
	}

	// Hourly ingestion of small files for a simulated day, with the
	// periodic trigger compacting every 2 hours.
	for h := 1; h <= 24; h++ {
		h := h
		events.ScheduleAt(time.Duration(h)*time.Hour, func() {
			eng.Exec(engine.Query{
				App: "ingest", Table: tbl, Kind: engine.Insert,
				Bytes: 64 << 20, Parallelism: 64,
			})
		})
	}
	reports := 0
	trigger := &core.PeriodicTrigger{
		Service: svc,
		Every:   2 * time.Hour,
		Until:   25 * time.Hour,
		OnReport: func(rep *Report, err error) {
			if err != nil {
				t.Fatal(err)
			}
			reports++
		},
	}
	trigger.Install(events)
	events.RunUntil(26 * time.Hour)

	if reports != 12 {
		t.Fatalf("trigger fired %d times, want 12", reports)
	}
	// Without compaction the table would hold ~24×64 files; the
	// periodic service keeps it near the packed minimum.
	if got := tbl.FileCount(); got > 200 {
		t.Fatalf("file count = %d, lake not kept healthy", got)
	}
	if compCl.TotalGBHr() <= 0 {
		t.Fatal("no compaction work accounted")
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() (int, float64) {
		lake := testkit.NewLake(11)
		clock, cp := lake.Clock, lake.CP
		compCl, eng := lake.CompactionCluster, lake.Engine
		cp.CreateDatabase("db", "t", 0)
		for i := 0; i < 5; i++ {
			tbl, _ := cp.CreateTable("db", lst.TableConfig{Name: "t" + string(rune('a'+i))})
			eng.Exec(engine.Query{App: "load", Table: tbl, Kind: engine.Insert,
				Bytes: 1 << 30, Parallelism: 100})
		}
		clock.Advance(48 * time.Hour)
		svc, err := New(cp, compCl, topK(3))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := svc.RunOnce()
		if err != nil {
			t.Fatal(err)
		}
		return rep.FilesReduced, rep.ActualGBHr
	}
	f1, g1 := run()
	f2, g2 := run()
	if f1 != f2 || g1 != g2 {
		t.Fatalf("non-deterministic: (%d, %v) vs (%d, %v)", f1, g1, f2, g2)
	}
	if f1 == 0 {
		t.Fatal("nothing compacted")
	}
}
