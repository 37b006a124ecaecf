// Command linkedin replays the paper's §7 production story on the fleet
// simulator: months of unmanaged growth, the manual top-100 compaction
// era, then AutoComp — first with a conservative fixed k, then with a
// budget-driven dynamic k and quota-adaptive MOOP weights.
package main

import (
	"flag"
	"fmt"
	"log"

	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	tables := flag.Int("tables", 2000, "initial fleet size")
	budgetTBHr := flag.Float64("budget-tbhr", 226, "daily compaction budget (TBHr)")
	flag.Parse()

	clock := sim.NewClock()
	cfg := fleet.DefaultConfig()
	cfg.Seed = *seed
	cfg.InitialTables = *tables
	f := fleet.New(cfg, clock)
	model := fleet.DefaultModel(512 * storage.MB)
	runner := fleet.Runner{Fleet: f, Model: model}
	// service compiles the §7 data-compaction spec (quota-adaptive ΔF vs
	// GBHr) with the given selector.
	service := func(selector *policy.Component) *core.Service {
		spec := policy.DefaultDataSpec(true)
		spec.Selector = selector
		ss, err := f.ServiceFromSpec(spec, model, fleet.SpecRunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		return ss.Svc
	}

	report := func(era string) {
		h := f.Histogram()
		total := h[0] + h[1] + h[2]
		fmt.Printf("%-28s tables=%5d files=%9d  <128MB=%4.0f%%  <512MB=%4.0f%%\n",
			era, f.TableCount(), total,
			100*f.TinyFileFraction(), 100*f.SmallFileFraction())
	}

	// Era 1: unmanaged growth.
	for d := 0; d < 60; d++ {
		f.AdvanceDay()
	}
	report("after 2 months unmanaged:")

	// Era 2: manual compaction of a fixed susceptible set, daily.
	manualSet := f.MostFragmented(100)
	var manualFiles int64
	var manualTBHr float64
	for d := 0; d < 60; d++ {
		f.AdvanceDay()
		fr, g := runner.CompactTables(manualSet)
		manualFiles += fr
		manualTBHr += g / 1024
	}
	report("after 2 months manual k=100:")
	fmt.Printf("    manual era: %d files reduced, %.1f TBHr\n", manualFiles, manualTBHr)

	// Era 3: AutoComp, conservative fixed k = 10.
	svc := service(policy.TopKSelector(10))
	var autoFiles int64
	var autoTBHr float64
	for d := 0; d < 30; d++ {
		f.AdvanceDay()
		rep, err := svc.RunOnce()
		if err != nil {
			log.Fatal(err)
		}
		autoFiles += int64(rep.FilesReduced)
		autoTBHr += rep.ActualGBHr / 1024
	}
	report("after 1 month auto k=10:")
	fmt.Printf("    auto-k10 era: %d files reduced, %.1f TBHr\n", autoFiles, autoTBHr)

	// Era 4: dynamic k under a daily compute budget.
	budgetSvc := service(policy.BudgetSelector(*budgetTBHr * 1024))
	var ks int
	for d := 0; d < 30; d++ {
		f.AdvanceDay()
		rep, err := budgetSvc.RunOnce()
		if err != nil {
			log.Fatal(err)
		}
		ks += len(rep.Decision.Selected)
	}
	report(fmt.Sprintf("after 1 month budget %.0fTBHr:", *budgetTBHr))
	fmt.Printf("    dynamic k averaged %d tables/day\n", ks/30)
}
