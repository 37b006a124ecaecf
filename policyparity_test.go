package autocomp

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/scenario/testkit"
	"autocomp/internal/sim"
)

// The parity goldens pin what the spec-compiled pipelines decide to what
// the hand-wired fleet constructors they replaced decided: one line per
// (seed, day) holding the sha256 of the day's testkit.DecisionFingerprint
// and its funnel line. The goldens were recorded from the hand-wired
// side; regenerate only after an intentional decision change, with
//
//	go test . -run Parity -update
//
// and review the golden diff like any other code change.
var update = flag.Bool("update", false, "regenerate the parity goldens under testdata/parity")

func parityFleetConfig(seed int64) fleet.Config {
	return testkit.FleetConfig(seed, 300)
}

// parityLine renders one day's decision as a golden line.
func parityLine(seed int64, day int, d *core.Decision) string {
	fp := testkit.DecisionFingerprint(d)
	funnel, _, _ := strings.Cut(fp, "\n")
	return fmt.Sprintf("seed=%d day=%d sha256=%x %s\n", seed, day, sha256.Sum256([]byte(fp)), funnel)
}

// checkParityGolden ages one fleet per seed under the service compiled
// from spec, deciding and acting every day, and compares each day's
// decision line with testdata/parity/<name>.golden.
func checkParityGolden(t *testing.T, name string, seeds []int64, days int,
	cfg func(seed int64) fleet.Config, spec *policy.Spec) {
	t.Helper()
	model := testkit.Model()
	var got strings.Builder
	for _, seed := range seeds {
		f := fleet.New(cfg(seed), sim.NewClock())
		ss, err := f.ServiceFromSpec(spec.Clone(), model, fleet.SpecRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if spec.Trigger != nil && ss.Feed == nil {
			t.Fatal("trigger section did not enable the observation plane")
		}
		for day := 1; day <= days; day++ {
			f.AdvanceDay()
			d, err := ss.Svc.Decide()
			if err != nil {
				t.Fatal(err)
			}
			got.WriteString(parityLine(seed, day, d))
			if _, err := ss.Svc.Act(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join("testdata", "parity", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing parity golden (regenerate with -update): %v", err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got.String(), "\n")
	for i := range wantLines {
		if i >= len(gotLines) || gotLines[i] != wantLines[i] {
			g := "(missing)"
			if i < len(gotLines) {
				g = gotLines[i]
			}
			t.Fatalf("%s line %d: decisions diverge from the golden\nwant: %s\ngot:  %s", path, i+1, wantLines[i], g)
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d lines, golden has %d", path, len(gotLines), len(wantLines))
	}
}

// TestDefaultSpecFileParity is the acceptance check: the spec compiled
// from examples/policies/default.json decides, cycle after cycle, as the
// hand-wired default pipeline did (unified maintenance with the default
// policy and the 50 TBHr budget selector).
func TestDefaultSpecFileParity(t *testing.T) {
	loaded, err := policy.LoadFile(filepath.Join("examples", "policies", "default.json"))
	if err != nil {
		t.Fatal(err)
	}
	checkParityGolden(t, "default-spec", []int64{1, 7, 42}, 6, parityFleetConfig, loaded)
}

// TestDefaultSpecFileMatchesBuiltin pins the shipped default.json to
// policy.DefaultSpec(): editing one without the other fails here.
func TestDefaultSpecFileMatchesBuiltin(t *testing.T) {
	loaded, err := policy.LoadFile(filepath.Join("examples", "policies", "default.json"))
	if err != nil {
		t.Fatal(err)
	}
	if d := policy.Diff(loaded, policy.DefaultSpec()); len(d) != 0 {
		t.Fatalf("default.json diverges from policy.DefaultSpec():\n%s", strings.Join(d, "\n"))
	}
}

// TestDataSpecParity covers the data-only pipeline: the quota-adaptive
// data spec with a 50 TBHr budget selector decides as the hand-wired
// data-only service did.
func TestDataSpecParity(t *testing.T) {
	s := policy.DefaultDataSpec(true)
	s.Selector = policy.BudgetSelector(50 * 1024)
	checkParityGolden(t, "data-spec", []int64{3}, 6, parityFleetConfig, s)
}

// TestIncrementalSpecParity covers the observation plane: a spec with an
// every-commit trigger decides as the hand-wired incremental maintenance
// service did.
func TestIncrementalSpecParity(t *testing.T) {
	spec := policy.DefaultSpec()
	spec.Execution = nil
	spec.Selector = policy.TopKSelector(40)
	spec.Trigger = &policy.TriggerSpec{EveryCommits: 1}
	checkParityGolden(t, "incremental-spec", []int64{5}, 6, func(seed int64) fleet.Config {
		cfg := parityFleetConfig(seed)
		cfg.DailyWriteProb = 0.3
		return cfg
	}, spec)
}

// TestHotReloadBetweenCycles exercises the acceptance flow end to end:
// a running fleet service is rebuilt from an edited spec file between
// cycles, and the new policy (a tighter selector) takes effect on the
// next decision.
func TestHotReloadBetweenCycles(t *testing.T) {
	model := testkit.Model()
	f := fleet.New(parityFleetConfig(2), sim.NewClock())

	dir := t.TempDir()
	path := filepath.Join(dir, "policy.json")
	writeSpec := func(s *policy.Spec) {
		b, err := s.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base := policy.DefaultSpec()
	base.Execution = nil
	writeSpec(base)

	w, spec, err := policy.NewWatcher(path, f.PolicyEnv(model))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := f.ServiceFromSpec(spec, model, fleet.SpecRunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Cycle 1 under the budget selector: many tables selected.
	f.AdvanceDay()
	rep, _, err := svc.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Decision.Selected) <= 2 {
		t.Fatalf("budget cycle selected %d, want > 2", len(rep.Decision.Selected))
	}

	// Edit the file between cycles: top-k 2.
	edited := policy.DefaultSpec()
	edited.Execution = nil
	edited.Selector = &policy.Component{Name: "top-k", Params: map[string]any{"k": float64(2)}}
	writeSpec(edited)
	newSpec, changed, err := w.Poll()
	if err != nil || !changed {
		t.Fatalf("poll = %v, %v", changed, err)
	}
	svc, err = f.ServiceFromSpec(newSpec, model, fleet.SpecRunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Cycle 2 runs under the new policy without restarting anything.
	f.AdvanceDay()
	rep, _, err = svc.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Decision.Selected) != 2 {
		t.Fatalf("reloaded cycle selected %d, want 2", len(rep.Decision.Selected))
	}
}
