package runtime

import (
	fr "nab/internal/flight"
	"nab/internal/metrics"
)

// Scheduler instruments. All are passive observers of decisions the
// scheduler already made — the launch/commit/barrier sequence (and thus
// the differential equivalence with the lockstep runner) is unaffected.
var (
	mInflight = metrics.NewGauge("nab_runtime_inflight",
		"Instance executions currently in flight.")
	mBarriers = metrics.NewCounter("nab_runtime_barriers_total",
		"Dispute-control barriers raised by committed MISMATCH instances.")
	mReplays = metrics.NewCounter("nab_runtime_replays_total",
		"Speculative executions discarded at dispute-control barriers.")
	mCommitLatency = metrics.NewHistogram("nab_runtime_commit_latency_seconds",
		"Launch-to-commit latency per instance execution.", metrics.LatencyBuckets)

	framesDropped = metrics.NewCounterVec("nab_runtime_frames_dropped_total",
		"Inbound frames no instance execution consumed, by drop path.", "reason")
	// mFramesDropped holds framesDropped's children, indexed by flight.Drop* code.
	mFramesDropped [fr.DropRestoreFlush + 1]*metrics.Counter
)

func init() {
	for code := range mFramesDropped {
		mFramesDropped[code] = framesDropped.With(fr.DropName(uint64(code)))
	}
}
