package fleet

import (
	"testing"

	"autocomp/internal/policy"
)

// TestServiceFromSpecDetachesChangefeed pins ServiceFromSpec's ownership
// of the fleet's changefeed attachment: rebuilding a fleet's service
// from a non-incremental spec (a hot reload away from incremental mode)
// must stop the old feed from receiving the fleet's commit events.
func TestServiceFromSpecDetachesChangefeed(t *testing.T) {
	f, _ := smallFleet(5)
	incremental := policy.DefaultSpec()
	incremental.Execution = nil
	incremental.Trigger = &policy.TriggerSpec{EveryCommits: 1}
	old := specService(t, f, incremental, policy.TopKSelector(10), SpecRunOptions{})
	if old.Feed == nil {
		t.Fatal("trigger section did not enable the observation plane")
	}
	f.AdvanceDay()
	before := old.Feed.Tracker.Events()
	if before == 0 {
		t.Fatal("attached feed saw no commit events")
	}

	full := policy.DefaultSpec()
	full.Execution = nil
	if ss := specService(t, f, full, policy.TopKSelector(10), SpecRunOptions{}); ss.Feed != nil {
		t.Fatal("non-incremental spec built an observation plane")
	}
	f.AdvanceDay()
	if got := old.Feed.Tracker.Events(); got != before {
		t.Fatalf("detached feed received %d commit events after the swap", got-before)
	}
}
