// Command quickstart is the smallest end-to-end AutoComp run: build a
// simulated lake, fragment a few tables with untuned writers, run one
// compaction cycle, and print what the framework decided and achieved.
package main

import (
	"fmt"
	"log"
	"time"

	"autocomp"
	"autocomp/internal/catalog"
	"autocomp/internal/cluster"
	"autocomp/internal/engine"
	"autocomp/internal/lst"
	"autocomp/internal/metrics"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

func main() {
	// A lake: virtual clock, HDFS-like storage, OpenHouse-like catalog,
	// one query cluster and one dedicated compaction cluster.
	clock := sim.NewClock()
	rng := sim.NewRNG(42)
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, rng.Fork())
	cp := catalog.New(fs, clock)
	queryCl := cluster.New(cluster.QueryClusterConfig(), clock)
	compCl := cluster.New(cluster.CompactionClusterConfig(), clock)
	eng := engine.New(engine.DefaultConfig(), queryCl, fs, clock, rng.Fork())

	// Three user tables written by untuned jobs (default 200 shuffle
	// partitions → hundreds of small files).
	if _, err := cp.CreateDatabase("analytics", "growth", 50_000); err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"events", "sessions", "clicks"} {
		tbl, err := cp.CreateTable("analytics", lst.TableConfig{Name: name})
		if err != nil {
			log.Fatal(err)
		}
		res := eng.Exec(engine.Query{
			App: "user-job", Table: tbl, Kind: engine.Insert, Bytes: 4 * storage.GB,
		})
		if res.Failed() {
			log.Fatal(res.Err)
		}
		fmt.Printf("loaded %-20s %4d files, %s\n",
			tbl.FullName(), tbl.FileCount(), metrics.FormatBytes(tbl.TotalBytes()))
	}
	clock.Advance(48 * time.Hour) // age past the recent-creation filter

	// AutoComp with the production defaults: ΔF + GBHr traits, MOOP
	// 0.7/0.3, top-k selection.
	spec := autocomp.DefaultSpec()
	spec.Selector = autocomp.TopKSelector(10)
	ledger := &autocomp.EstimatorLedger{}
	svc, err := autocomp.New(cp, compCl, spec, ledger.Observe)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := svc.RunOnce()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncandidates: %d generated, %d after filters, %d selected\n",
		rep.Decision.Generated, rep.Decision.AfterStatsFilter, len(rep.Decision.Selected))
	for _, cr := range rep.Results {
		fmt.Printf("  %-22s est ΔF %.0f  actual %d  %.3f GBHr  %v\n",
			cr.Candidate.ID(), cr.EstimatedReduction, cr.Result.Reduction(),
			cr.Result.GBHr, cr.Result.Duration.Round(time.Millisecond))
	}
	fmt.Printf("total: %d files reduced, %s rewritten, %.3f GBHr\n",
		rep.FilesReduced, metrics.FormatBytes(rep.BytesRewritten), rep.ActualGBHr)

	for _, tbl := range cp.AllTables() {
		fmt.Printf("after: %-20s %4d files\n", tbl.FullName(), tbl.FileCount())
	}
}
