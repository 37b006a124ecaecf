package changefeed_test

import (
	"fmt"
	"testing"
	"time"

	"autocomp/internal/catalog"
	"autocomp/internal/changefeed"
	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/lst"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// stubTable is a minimal versioned core.Table for cache and feed tests.
type stubTable struct {
	db, name   string
	version    int64
	smallFiles int
}

func (t *stubTable) Database() string                       { return t.db }
func (t *stubTable) Name() string                           { return t.name }
func (t *stubTable) FullName() string                       { return t.db + "." + t.name }
func (t *stubTable) Spec() lst.PartitionSpec                { return lst.PartitionSpec{} }
func (t *stubTable) Mode() lst.WriteMode                    { return lst.CopyOnWrite }
func (t *stubTable) Prop(string) string                     { return "" }
func (t *stubTable) Created() time.Duration                 { return 0 }
func (t *stubTable) LastWrite() time.Duration               { return 0 }
func (t *stubTable) WriteCount() int64                      { return t.version }
func (t *stubTable) FileCount() int                         { return t.smallFiles }
func (t *stubTable) TotalBytes() int64                      { return int64(t.smallFiles) * storage.MB }
func (t *stubTable) Partitions() []string                   { return nil }
func (t *stubTable) LiveFiles() []lst.DataFile              { return nil }
func (t *stubTable) FilesInPartition(string) []lst.DataFile { return nil }
func (t *stubTable) Version() int64                         { return t.version }

// stubObserver counts expensive observations.
type stubObserver struct{ calls int }

func (o *stubObserver) Observe(c *core.Candidate) (core.Stats, error) {
	o.calls++
	st := c.Table.(*stubTable)
	return core.Stats{SmallFiles: st.smallFiles, FileCount: st.smallFiles}, nil
}

func event(t *stubTable, commits, bytes int64, maint bool) changefeed.Event {
	return changefeed.Event{
		Table: t.FullName(), Ref: t, Version: t.version,
		Commits: commits, Bytes: bytes, Maintenance: maint,
	}
}

func TestIncrementalTrackerTriggers(t *testing.T) {
	tbl := &stubTable{db: "d", name: "a"}
	tr := changefeed.NewTracker(changefeed.StaticTriggers(
		changefeed.TriggerPolicy{EveryCommits: 3, BytesWritten: 100}))

	// Commits accumulate until the count trigger fires.
	tr.HandleEvent(event(tbl, 1, 10, false))
	tr.HandleEvent(event(tbl, 1, 10, false))
	if got := tr.DirtyCount(); got != 0 {
		t.Fatalf("dirty after 2/3 commits = %d, want 0", got)
	}
	tr.HandleEvent(event(tbl, 1, 10, false))
	if got := tr.DirtyCount(); got != 1 {
		t.Fatalf("dirty after 3/3 commits = %d, want 1", got)
	}

	// TakeDirty consumes the dirt and resets accumulation.
	took := tr.TakeDirty()
	if len(took) != 1 || took[0].FullName() != "d.a" {
		t.Fatalf("TakeDirty = %v", took)
	}
	if tr.DirtyCount() != 0 {
		t.Fatal("dirty not consumed")
	}

	// The byte threshold fires ahead of the commit counter.
	tr.HandleEvent(event(tbl, 1, 150, false))
	if got := tr.DirtyCount(); got != 1 {
		t.Fatalf("dirty after byte burst = %d, want 1", got)
	}
	tr.TakeDirty()

	// Maintenance events dirty immediately, bypassing the trigger.
	tr.HandleEvent(event(tbl, 0, 0, true))
	if got := tr.DirtyCount(); got != 1 {
		t.Fatalf("dirty after maintenance event = %d, want 1", got)
	}
	tr.TakeDirty()

	// Redirty marks a known table without any event.
	tr.Redirty("d.a")
	if got := tr.DirtyCount(); got != 1 {
		t.Fatalf("dirty after Redirty = %d, want 1", got)
	}
}

func TestIncrementalStatsCacheAccounting(t *testing.T) {
	sc := changefeed.NewStatsCache()
	s := core.Stats{SmallFiles: 7}

	if _, hit := sc.Get("d.a", "d.a", 1); hit {
		t.Fatal("hit on empty cache")
	}
	sc.Put("d.a", "d.a", 1, s)
	got, hit := sc.Get("d.a", "d.a", 1)
	if !hit || got.SmallFiles != 7 {
		t.Fatalf("get = %+v hit=%v", got, hit)
	}
	// A version advance misses even without an invalidation.
	if _, hit := sc.Get("d.a", "d.a", 2); hit {
		t.Fatal("hit at advanced version")
	}
	// Invalidation drops all of the table's entries.
	sc.Put("d.a", "d.a#snapshot-expiry", 1, s)
	sc.InvalidateTable("d.a")
	if _, hit := sc.Get("d.a", "d.a", 1); hit {
		t.Fatal("hit after invalidation")
	}

	cc := sc.Counters()
	if cc.Hits != 1 || cc.Misses != 3 || cc.Invalidations != 1 || cc.Entries != 0 {
		t.Fatalf("counters = %+v", cc)
	}
}

// feedPipeline builds a tiny incremental service over stub tables.
func feedPipeline(tables []*stubTable, reconcileEvery int) (*core.Service, *changefeed.Feed, *stubObserver, error) {
	list := make([]core.Table, len(tables))
	for i, t := range tables {
		list[i] = t
	}
	obs := &stubObserver{}
	feed := changefeed.NewFeed(nil, reconcileEvery)
	cfg := core.Config{
		Connector: feed.Connector(core.StaticConnector{TableList: list}),
		Generator: feed.Generator(core.TableScopeGenerator{}),
		Observer:  feed.Observer(obs, nil),
		Traits:    []core.Trait{core.FileCountReduction{}},
		Ranker:    core.ThresholdPolicy{Trait: core.FileCountReduction{}, Threshold: 0},
	}
	svc, err := core.NewService(cfg)
	return svc, feed, obs, err
}

func TestIncrementalCacheInvalidationOnCommit(t *testing.T) {
	tables := []*stubTable{
		{db: "d", name: "a", smallFiles: 10},
		{db: "d", name: "b", smallFiles: 20},
		{db: "d", name: "c", smallFiles: 30},
	}
	svc, feed, obs, err := feedPipeline(tables, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Cold start observes the whole lake.
	if _, err := svc.Decide(); err != nil {
		t.Fatal(err)
	}
	if obs.calls != 3 {
		t.Fatalf("cold start observes = %d, want 3", obs.calls)
	}

	// A quiet cycle observes nothing: every table answers from cache.
	d, err := svc.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if obs.calls != 3 {
		t.Fatalf("quiet cycle observes = %d, want 3 (all cached)", obs.calls)
	}
	if d.Generated != 3 {
		t.Fatalf("retained pool = %d, want 3", d.Generated)
	}

	// One commit invalidates exactly that table.
	tables[1].version++
	tables[1].smallFiles = 25
	feed.Bus.Publish(event(tables[1], 1, storage.MB, false))
	d, err = svc.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if obs.calls != 4 {
		t.Fatalf("post-commit observes = %d, want 4 (one re-observation)", obs.calls)
	}
	for _, c := range d.Ranked {
		if c.Table.FullName() == "d.b" && c.Stats.SmallFiles != 25 {
			t.Fatalf("d.b stats stale: %d small files, want 25", c.Stats.SmallFiles)
		}
	}

	cc := feed.Cache.Counters()
	if cc.Hits != 5 { // 3 quiet + 2 clean tables on the commit cycle
		t.Fatalf("cache hits = %d, want 5", cc.Hits)
	}
}

// mutableConnector serves a table list the test can grow mid-run.
type mutableConnector struct{ tables *[]core.Table }

func (c mutableConnector) Tables() []core.Table            { return *c.tables }
func (c mutableConnector) QuotaUtilization(string) float64 { return 0 }
func (c mutableConnector) Now() time.Duration              { return 0 }

func TestIncrementalReconcilerCatchesDroppedEvent(t *testing.T) {
	a := &stubTable{db: "d", name: "a", smallFiles: 10}
	b := &stubTable{db: "d", name: "b", smallFiles: 20}
	list := []core.Table{a, b}
	obs := &stubObserver{}
	feed := changefeed.NewFeed(nil, 3) // cycles 3, 6, ... reconcile
	svc, err := core.NewService(core.Config{
		Connector: feed.Connector(mutableConnector{tables: &list}),
		Generator: feed.Generator(core.TableScopeGenerator{}),
		Observer:  feed.Observer(obs, nil),
		Traits:    []core.Trait{core.FileCountReduction{}},
		Ranker:    core.ThresholdPolicy{Trait: core.FileCountReduction{}, Threshold: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Decide(); err != nil { // cycle 1: cold start
		t.Fatal(err)
	}
	if obs.calls != 2 {
		t.Fatalf("cold start observes = %d, want 2", obs.calls)
	}

	// A silent version-advancing change (dropped commit event) is
	// self-healed by the version-keyed cache: the retained candidate's
	// lookup misses at the new version and re-observes immediately.
	a.version++
	a.smallFiles = 99
	d, err := svc.Decide() // cycle 2: dirty-only
	if err != nil {
		t.Fatal(err)
	}
	if obs.calls != 3 {
		t.Fatalf("cycle-2 observes = %d, want 3 (version-keyed self-heal)", obs.calls)
	}
	for _, c := range d.Ranked {
		if c.Table.FullName() == "d.a" && c.Stats.SmallFiles != 99 {
			t.Fatalf("version-keyed cache served stale stats: %d", c.Stats.SmallFiles)
		}
	}

	// An enumeration-level drop — a new table whose onboarding event was
	// lost — is invisible to the dirty set and the cache: only the
	// reconciling full scan can discover it.
	c := &stubTable{db: "d", name: "c", smallFiles: 30}
	list = append(list, c)
	if d.Generated != 2 {
		t.Fatalf("pool before discovery = %d, want 2", d.Generated)
	}

	d, err = svc.Decide() // cycle 3: reconcile
	if err != nil {
		t.Fatal(err)
	}
	scan := feed.LastScan()
	if !scan.Full {
		t.Fatalf("cycle 3 not a full scan: %+v", scan)
	}
	if d.Generated != 3 {
		t.Fatalf("reconciled pool = %d, want 3 (dropped table discovered)", d.Generated)
	}
	if obs.calls != 4 {
		t.Fatalf("reconcile observes = %d, want 4 (only the new table misses)", obs.calls)
	}
	found := false
	for _, cand := range d.Ranked {
		if cand.Table.FullName() == "d.c" {
			found = true
			if cand.Stats.SmallFiles != 30 {
				t.Fatalf("discovered table stats = %d, want 30", cand.Stats.SmallFiles)
			}
		}
	}
	if !found {
		t.Fatal("d.c missing from reconciled pool")
	}
}

func TestIncrementalLSTAndCatalogPublish(t *testing.T) {
	clock := sim.NewClock()
	rng := sim.NewRNG(7)
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, rng)
	cp := catalog.New(fs, clock)
	if _, err := cp.CreateDatabase("d", "tenant", 0); err != nil {
		t.Fatal(err)
	}
	tbl, err := cp.CreateTable("d", lst.TableConfig{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}

	bus := changefeed.NewBus()
	var got []changefeed.Event
	bus.Subscribe(func(e changefeed.Event) { got = append(got, e) })
	changefeed.AttachCatalog(bus, cp)

	// A commit publishes a writer event with the snapshot's bytes.
	if _, err := tbl.AppendFiles([]lst.FileSpec{{SizeBytes: 4 * storage.MB}}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Maintenance || got[0].Table != "d.a" || got[0].Bytes != 4*storage.MB {
		t.Fatalf("commit event = %+v", got)
	}
	if got[0].Version != tbl.Version() {
		t.Fatalf("event version %d != table version %d", got[0].Version, tbl.Version())
	}

	// Tables created after attachment publish too.
	tbl2, err := cp.CreateTable("d", lst.TableConfig{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl2.AppendFiles([]lst.FileSpec{{SizeBytes: storage.MB}}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Table != "d.b" {
		t.Fatalf("post-attach table did not publish: %+v", got)
	}

	// Maintenance operations publish maintenance events.
	for i := 0; i < 5; i++ {
		if _, err := tbl.AppendFiles([]lst.FileSpec{{SizeBytes: storage.MB}}); err != nil {
			t.Fatal(err)
		}
	}
	n := len(got)
	if _, err := tbl.ExpireSnapshots(1); err != nil {
		t.Fatal(err)
	}
	if len(got) != n+1 || !got[n].Maintenance {
		t.Fatalf("expiry event missing: %+v", got[len(got)-1])
	}
}

func TestIncrementalFleetParity(t *testing.T) {
	// Two identically seeded fleets, one full-scan and one incremental,
	// must select byte-identical plans every cycle and therefore evolve
	// in lockstep — the experiment's parity property at unit-test scale.
	cfg := fleet.DefaultConfig()
	cfg.InitialTables = 120
	cfg.DailyWriteProb = 0.1
	model := fleet.DefaultModel(512 * storage.MB)
	fullSpec := policy.DefaultSpec()
	fullSpec.Selector = policy.TopKSelector(15)
	fullSpec.Execution = nil
	incrSpec := fullSpec.Clone()
	incrSpec.Trigger = &policy.TriggerSpec{EveryCommits: 1}

	fFull := fleet.New(cfg, sim.NewClock())
	fIncr := fleet.New(cfg, sim.NewClock())
	fullSS, err := fFull.ServiceFromSpec(fullSpec, model, fleet.SpecRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	incrSS, err := fIncr.ServiceFromSpec(incrSpec, model, fleet.SpecRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full, incr, feed := fullSS.Svc, incrSS.Svc, incrSS.Feed

	plan := func(d *core.Decision) string {
		out := ""
		for _, c := range d.Selected {
			out += c.ID() + ","
		}
		return out
	}
	for cycle := 1; cycle <= 5; cycle++ {
		fFull.AdvanceDay()
		fIncr.AdvanceDay()
		dFull, err := full.Decide()
		if err != nil {
			t.Fatal(err)
		}
		dIncr, err := incr.Decide()
		if err != nil {
			t.Fatal(err)
		}
		if pf, pi := plan(dFull), plan(dIncr); pf != pi {
			t.Fatalf("cycle %d plans diverged:\nfull: %s\nincr: %s", cycle, pf, pi)
		}
		if dFull.Generated != dIncr.Generated {
			t.Fatalf("cycle %d pool sizes diverged: %d vs %d", cycle, dFull.Generated, dIncr.Generated)
		}
		if _, err := full.Act(dFull); err != nil {
			t.Fatal(err)
		}
		if _, err := incr.Act(dIncr); err != nil {
			t.Fatal(err)
		}
		if cycle > 1 {
			scan := feed.LastScan()
			if scan.Full {
				t.Fatalf("cycle %d unexpectedly full-scanned", cycle)
			}
			if scan.Scanned >= fIncr.TableCount() {
				t.Fatalf("cycle %d scanned the whole fleet (%d tables)", cycle, scan.Scanned)
			}
		}
	}
	if fFull.TotalFiles() != fIncr.TotalFiles() {
		t.Fatalf("fleets diverged: %d vs %d files", fFull.TotalFiles(), fIncr.TotalFiles())
	}
}

func TestIncrementalDroppedTableForgotten(t *testing.T) {
	clock := sim.NewClock()
	rng := sim.NewRNG(11)
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, rng)
	cp := catalog.New(fs, clock)
	if _, err := cp.CreateDatabase("d", "tenant", 0); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		tbl, err := cp.CreateTable("d", lst.TableConfig{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.AppendFiles([]lst.FileSpec{{SizeBytes: storage.MB}, {SizeBytes: storage.MB}}); err != nil {
			t.Fatal(err)
		}
	}
	feed := changefeed.NewFeed(nil, 0)
	changefeed.AttachCatalog(feed.Bus, cp)
	svc, err := core.NewService(core.Config{
		Connector: feed.Connector(core.CatalogConnector{CP: cp}),
		Generator: feed.Generator(core.TableScopeGenerator{}),
		Observer:  feed.Observer(core.StatsObserver{TargetFileSize: 64 * storage.MB}, nil),
		Traits:    []core.Trait{core.FileCountReduction{}},
		Ranker:    core.ThresholdPolicy{Trait: core.FileCountReduction{}, Threshold: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Decide(); err != nil { // cold start retains both
		t.Fatal(err)
	}
	if feed.RetainedCount() != 2 || feed.Tracker.KnownCount() != 2 {
		t.Fatalf("retained=%d known=%d, want 2/2", feed.RetainedCount(), feed.Tracker.KnownCount())
	}

	// Dropping the table must purge it from the whole incremental
	// plane: retained pool, tracker, and cache.
	if err := cp.DropTable("d", "a"); err != nil {
		t.Fatal(err)
	}
	if feed.Tracker.KnownCount() != 1 {
		t.Fatalf("tracker still knows the dropped table: %d", feed.Tracker.KnownCount())
	}
	d, err := svc.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if d.Generated != 1 {
		t.Fatalf("pool after drop = %d, want 1", d.Generated)
	}
	for _, c := range d.Ranked {
		if c.Table.FullName() == "d.a" {
			t.Fatal("dropped table still in the candidate pool")
		}
	}

	// A commit event that raced the drop (publisher read the hook
	// before detachment) must not resurrect the dropped table.
	feed.Bus.Publish(changefeed.Event{Table: "d.a", Version: 3, Commits: 1})
	if feed.Tracker.KnownCount() != 1 || feed.Tracker.DirtyCount() != 0 {
		t.Fatalf("racing commit resurrected dropped table: known=%d dirty=%d",
			feed.Tracker.KnownCount(), feed.Tracker.DirtyCount())
	}
}

func TestIncrementalBusCounts(t *testing.T) {
	bus := changefeed.NewBus()
	n := 0
	bus.Subscribe(func(changefeed.Event) { n++ })
	for i := 0; i < 3; i++ {
		bus.Publish(changefeed.Event{Table: fmt.Sprintf("d.t%d", i)})
	}
	if n != 3 || bus.Published() != 3 {
		t.Fatalf("delivered=%d published=%d", n, bus.Published())
	}
}
