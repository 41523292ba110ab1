package server

import (
	"linconstraint/internal/metrics"
	"linconstraint/internal/planner"
)

// serverMetrics holds the front-end's instruments: registered once at
// New, observed with single atomic operations on the serving path. A
// nil *serverMetrics (no registry configured) disables them all.
type serverMetrics struct {
	requests   *metrics.CounterVec // by op, arrivals including sheds
	shed       *metrics.Counter
	batches    *metrics.Counter
	queueDepth *metrics.Gauge
	batchSize  *metrics.Histogram

	queueWaitWin *metrics.WindowedHistogram
	totalWin     *metrics.WindowedHistogram
}

func newServerMetrics(reg *metrics.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	return &serverMetrics{
		requests: reg.CounterVec("server_requests_total",
			"queries received by the serving front-end (including shed ones)",
			"op", planner.OpLabels()),
		shed: reg.Counter("server_shed_total",
			"requests rejected 429 because every stripe's admission ring was full"),
		batches: reg.Counter("server_batches_total",
			"stripe flushes run as single engine batches"),
		queueDepth: reg.Gauge("server_queue_depth",
			"requests currently waiting in admission rings across all stripes"),
		batchSize: reg.Histogram("server_batch_size",
			"requests per flushed stripe batch"),
		queueWaitWin: reg.WindowedHistogram("server_queue_wait_ns_win",
			"time in the admission ring before a flusher collected the request"),
		totalWin: reg.WindowedHistogram("server_request_ns_win",
			"end-to-end request latency, admission to demux"),
	}
}
