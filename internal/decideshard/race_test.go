package decideshard_test

// Concurrency battery for the sharded decide plane, meant to run under
// -race: commit events and table drops hammer the striped changefeed
// from writer goroutines while sharded decide cycles run, and a mid-run
// policy hot-reload swaps in a fresh feed and engine with a different
// shard count at a cycle boundary — the only point shard counts may
// change, because recompiling a policy builds both from scratch.

import (
	"sync"
	"sync/atomic"
	"testing"

	"autocomp/internal/changefeed"
	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/scenario/testkit"
	"autocomp/internal/sim"
)

func TestShardDecideRaceConcurrentFeed(t *testing.T) {
	f := fleet.New(testkit.FleetConfig(5, 120), sim.NewClock())

	// mk compiles a policy: a fresh striped feed and a fresh decide
	// engine, partition counts aligned.
	mk := func(shards int) (*core.Service, *changefeed.Feed) {
		spec := maintenanceSpec(20)
		spec.Trigger = &policy.TriggerSpec{EveryCommits: 1, ReconcileEvery: 3}
		spec.Execution = &policy.ExecutionSpec{Workers: 1, DecideShards: shards, DecideWorkers: 2}
		ss, err := f.ServiceFromSpec(spec, testkit.Model(), fleet.SpecRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return ss.Svc, ss.Feed
	}
	svc, feed := mk(4)
	var cur atomic.Pointer[changefeed.Feed]
	cur.Store(feed)

	tables := fleet.Connector{Fleet: f}.Tables()
	if len(tables) == 0 {
		t.Fatal("no tables")
	}

	// Writer goroutines: synthetic commit events (and the occasional
	// drop) against whichever feed is current, racing the decide cycles
	// below and each other across tracker/cache stripes.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sim.Child(int64(w+1), "race-hammer-writer")
			for i := int64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tb := tables[rng.Intn(len(tables))]
				fd := cur.Load()
				fd.Bus.Publish(changefeed.Event{
					Table: tb.FullName(), Ref: tb, Version: i, Commits: 1, Bytes: 4096,
				})
				if rng.Bernoulli(0.02) {
					fd.Bus.Publish(changefeed.Event{Table: tb.FullName(), Dropped: true})
				}
			}
		}(w)
	}

	for day := 0; day < 10; day++ {
		if day == 5 {
			// Mid-run hot-reload: new shard count takes effect here and
			// only here. The old feed keeps absorbing stray events until
			// the writers observe the swap; it is simply garbage after.
			svc, feed = mk(8)
			cur.Store(feed)
		}
		f.AdvanceDay()
		d, err := svc.Decide()
		if err != nil {
			t.Fatalf("day %d: decide: %v", day, err)
		}
		// Decisions race the event stream, so their content is not
		// reproducible — but they must stay well-formed: ranked order
		// intact, selection within the ranking, funnel monotone.
		for i := 1; i < len(d.Ranked); i++ {
			if core.RankLess(d.Ranked[i], d.Ranked[i-1]) {
				t.Fatalf("day %d: ranked order violated at position %d", day, i)
			}
		}
		if len(d.Selected) > len(d.Ranked) {
			t.Fatalf("day %d: selected %d > ranked %d", day, len(d.Selected), len(d.Ranked))
		}
		if d.AfterTraitFilter > d.Generated {
			t.Fatalf("day %d: funnel not monotone: %d survived of %d generated",
				day, d.AfterTraitFilter, d.Generated)
		}
		if _, err := svc.Act(d); err != nil {
			t.Fatalf("day %d: act: %v", day, err)
		}
	}
	close(stop)
	wg.Wait()
	if feed.Tracker.Events() == 0 {
		t.Fatal("tracker saw no events")
	}
}
