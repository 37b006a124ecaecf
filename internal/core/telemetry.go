package core

import (
	"autocomp/internal/telemetry"
)

// Runtime metrics of the decision pipeline, published to the default
// telemetry registry. Instrumentation is strictly passive: it records
// what Decide/Act did and never influences them, so scenario golden
// traces are byte-identical with or without a scraper attached.
var (
	mCycles = telemetry.Default().Counter(
		"autocomp_core_cycles_total",
		"Observe-decide cycles run (Decide calls).")
	mCycleLatency = telemetry.Default().Histogram(
		"autocomp_core_decide_latency_seconds",
		"Latency of the decide phase (generation through planning), on the configured clock (virtual under simulation).",
		telemetry.ExpBuckets(0.0005, 4, 10))
	mGenerated = telemetry.Default().Counter(
		"autocomp_core_candidates_generated_total",
		"Candidates emitted by the generator before any refinement.")
	mFiltered = telemetry.Default().CounterVec(
		"autocomp_core_candidates_filtered_total",
		"Candidates removed at each refinement point.",
		"stage")
	mRanked = telemetry.Default().Counter(
		"autocomp_core_candidates_ranked_total",
		"Candidates that reached the ranker.")
	mSelected = telemetry.Default().Counter(
		"autocomp_core_candidates_selected_total",
		"Candidates the selector admitted to the plan.")
	mObserve = telemetry.Default().Counter(
		"autocomp_core_observe_calls_total",
		"Observer invocations (cache hits included; see changefeed for misses).")
	mObserveErrors = telemetry.Default().Counter(
		"autocomp_core_observe_errors_total",
		"Observer invocations that failed and aborted the cycle.")
	mMOOPScore = telemetry.Default().GaugeVec(
		"autocomp_core_moop_selected_score",
		"MOOP objective score over the last cycle's selected candidates.",
		"stat")
	mActions = telemetry.Default().CounterVec(
		"autocomp_core_actions_total",
		"Executed candidate results folded into reports, by action type and outcome.",
		"action", "outcome")
	mFilesReduced = telemetry.Default().Counter(
		"autocomp_core_files_reduced_total",
		"Net data-file reduction achieved by executed compactions.")
	mMetadataReduced = telemetry.Default().Counter(
		"autocomp_core_metadata_reduced_total",
		"Net metadata-object reduction achieved by maintenance actions.")
	mBytesRewritten = telemetry.Default().Counter(
		"autocomp_core_bytes_rewritten_total",
		"Bytes rewritten by executed actions.")
	mGBHrSpent = telemetry.Default().Counter(
		"autocomp_core_gbhr_spent_total",
		"Compute spent by executed actions (GB-hours), wasted retry work included.")

	// The sharded decide pass's families; a one-shard pass records none.
	mDecides = telemetry.Default().Counter(
		"autocomp_decideshard_decides_total",
		"Decide cycles run across more than one shard.")
	mShardSeconds = telemetry.Default().HistogramVec(
		"autocomp_decideshard_shard_seconds",
		"Per-shard wall time of one decide cycle, by stage: the "+
			"generate-through-trait-filter pipeline and the rank pass.",
		telemetry.ExpBuckets(0.0001, 4, 10),
		"stage")
	mShardCandidates = telemetry.Default().Histogram(
		"autocomp_decideshard_shard_candidates",
		"Candidates one shard generated in one decide cycle.",
		telemetry.ExpBuckets(1, 4, 12))
	mMergeSeconds = telemetry.Default().Histogram(
		"autocomp_decideshard_merge_seconds",
		"Wall time of the deterministic k-way merge of ranked shards.",
		telemetry.ExpBuckets(0.00001, 4, 10))
	mShardsGauge = telemetry.Default().Gauge(
		"autocomp_decideshard_shards",
		"Decide shards of the most recent sharded decide cycle.")
	mWorkersGauge = telemetry.Default().Gauge(
		"autocomp_decideshard_workers",
		"Worker-pool size of the most recent sharded decide cycle.")
	mFallbacks = telemetry.Default().CounterVec(
		"autocomp_decideshard_serial_fallbacks_total",
		"Decide stages that fell back to the serial path, by reason: "+
			"'generate' (generator neither sharded nor table-local) or "+
			"'rank' (ranker does not factor across shards).",
		"stage")
)

// noteDecision records the funnel counts and score spread of one decision.
func noteDecision(d *Decision, wallSeconds float64) {
	mCycles.Inc()
	mCycleLatency.Observe(wallSeconds)
	mGenerated.Add(float64(d.Generated))
	mFiltered.With("pre").Add(float64(d.Generated - d.AfterPreFilters))
	mFiltered.With("stats").Add(float64(d.AfterPreFilters - d.AfterStatsFilter))
	mFiltered.With("trait").Add(float64(d.AfterStatsFilter - d.AfterTraitFilter))
	mRanked.Add(float64(len(d.Ranked)))
	mSelected.Add(float64(len(d.Selected)))
	if len(d.Selected) > 0 {
		min, max, sum := d.Selected[0].Score, d.Selected[0].Score, 0.0
		for _, c := range d.Selected {
			if c.Score < min {
				min = c.Score
			}
			if c.Score > max {
				max = c.Score
			}
			sum += c.Score
		}
		mMOOPScore.With("min").Set(min)
		mMOOPScore.With("max").Set(max)
		mMOOPScore.With("mean").Set(sum / float64(len(d.Selected)))
	}
}

// noteResult records one executed candidate result.
func noteResult(cr CandidateResult) {
	outcome := "done"
	switch {
	case cr.Result.Conflict:
		outcome = "conflicted"
	case cr.Result.Err != nil:
		outcome = "failed"
	case cr.Result.Skipped:
		outcome = "skipped"
	}
	mActions.With(cr.Candidate.Action.String(), outcome).Inc()
	mGBHrSpent.Add(cr.Result.GBHr)
	if outcome == "done" {
		mBytesRewritten.Add(float64(cr.Result.BytesRewritten))
		if cr.Candidate.Action == ActionDataCompaction {
			mFilesReduced.Add(float64(cr.Result.Reduction()))
		} else {
			mMetadataReduced.Add(float64(cr.Result.Reduction()))
		}
	}
}
