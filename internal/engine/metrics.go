package engine

// Engine observability (DESIGN.md §9). The engine owns every instrument
// that observes its hot path: all are created once at construction
// (newEngineMetrics), so a steady-state query run records its timings,
// plan verdicts and per-shard visit counts with nothing but atomic
// operations — no label formatting, no map lookups, no allocation. The
// zero-alloc regression tests run with metrics and the flight recorder
// enabled, so instrumentation can never quietly re-introduce a heap
// allocation on the query path.
//
// Runs are captured by one mechanism only: the flight recorder
// (flight.go), whose slow ring keeps the runs that tripped an anomaly
// bound, read out into caller-owned slices by Engine.SlowQueries.
//
// The per-shard read rollup is deliberately NOT a hot-path instrument:
// it is a scrape-time metrics.Collector over Engine.Stats, so the query
// path pays nothing for it and the exported numbers are exactly the
// Stats the engine already reports.

import (
	"sync/atomic"

	"linconstraint/internal/eio"
	"linconstraint/internal/metrics"
	"linconstraint/internal/planner"
)

// Trace is one query-run record, the body of a flight-recorder
// SlowTrace: where the run's wall-clock went (plan / fan-out / wait /
// merge), what the planner decided, and the block I/O the run caused
// summed over every shard it visited (SlowTrace.PerShard holds the
// per-shard deltas). A batch of scalar queries yields one Trace per
// run of consecutive query ops, so single-query batches record per
// query.
type Trace struct {
	// Seq numbers the captured runs (1, 2, ...), so a consumer polling
	// the slow ring can tell new records from ones it has already seen.
	Seq int64
	// Queries is the number of query ops in the run; Op is the op of
	// the run's first query (runs are usually homogeneous).
	Queries int
	Op      Op
	// ShardsVisited and ShardsPruned sum the run's plan verdicts;
	// PlansShared counts the queries that reused an earlier query's
	// plan (operand dedup).
	ShardsVisited int
	ShardsPruned  int
	PlansShared   int
	// PlanNs is the sequential plan-and-layout phase; ExecNs spans
	// dispatch through the last shard's finish line (WaitNs is the tail
	// of that after the first wave's dispatch returned: the awaits, and a
	// k-NN run's second wave); MergeNs is the loser-tree merge; TotalNs
	// the whole run.
	PlanNs, ExecNs, WaitNs, MergeNs, TotalNs int64
	// IO is the run's block-I/O delta summed over visited shards.
	IO eio.Stats
}

// engineMetrics is the engine's pre-registered instrument set plus the
// flight recorder and watchdog state. nil when the engine is built
// without Options.Metrics, FlightRecorder and Watchdog — every hot-path
// site guards with one nil check, so an uninstrumented engine pays
// nothing at all. Every series has a reader: the bench ledger (the run
// phase histograms), the engine itself (the windowed views), a test, or
// the CI scrape smoke (the rest).
type engineMetrics struct {
	reg *metrics.Registry

	// Run timing, one observation per query run.
	planNs, execNs, waitNs, mergeNs, totalNs *metrics.Histogram

	// shardVisits counts (query, shard) visits per shard; planVerdicts
	// is the (op × verdict) matrix of shard plan outcomes — which bound
	// pruned, per op (explain.go). arenaFresh counts batch arenas
	// allocated rather than reused (a growing count at steady state
	// means the reuse contract broke).
	shardVisits  *metrics.CounterVec
	planVerdicts *metrics.CounterVec2
	arenaFresh   *metrics.Counter

	// Robustness instruments (DESIGN.md §12): hedged dispatches issued
	// and won, runs that blew their deadline (strict or not) and runs
	// that returned degraded, and breaker trips.
	hedges         *metrics.Counter
	hedgeWins      *metrics.Counter
	deadlineMisses *metrics.Counter
	degradedRuns   *metrics.Counter
	breakerTrips   *metrics.Counter

	// Windowed views (DESIGN.md §11): time-resolved run latency and
	// per-query fan-out. The hedge delay and the watchdog's SLO bounds
	// read these, and the exposition publishes their quantiles as gauges.
	totalNsWin *metrics.WindowedHistogram
	visitedWin *metrics.WindowedHistogram

	// Flight recorder (flight.go): slow is nil when no bound is set,
	// which is what call sites and the arena gate on.
	flight  FlightRecorderConfig
	slow    *metrics.Ring[SlowTrace]
	slowSeq atomic.Int64

	// Watchdog instruments (watchdog.go): nil unless Options.Watchdog;
	// sloEvals is nil unless an SLO bound is set.
	health      *metrics.Ring[HealthEvent]
	healthTotal *metrics.CounterVec
	wdTicks     *metrics.Counter
	sloEvals    *metrics.Counter

	// shardLabels caches the per-shard label values for the collector.
	shardLabels []string
}

// ringSize is the capacity of the slow-run and health-event rings.
const ringSize = 64

// newEngineMetrics builds the instrument set, or returns nil when the
// options ask for no instrumentation. With the flight recorder or the
// watchdog on but no registry, instruments land in a private registry —
// neither must force the caller to provide one.
func newEngineMetrics(opt Options, shards int) *engineMetrics {
	if opt.Metrics == nil && !opt.FlightRecorder.enabled() && opt.Watchdog == nil {
		return nil
	}
	reg := opt.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	shardLabels := metrics.ShardLabels(shards)
	m := &engineMetrics{
		reg: reg,

		planNs:  reg.Histogram("engine_run_plan_ns", "per-run plan-and-layout phase duration"),
		execNs:  reg.Histogram("engine_run_exec_ns", "per-run dispatch-to-last-worker duration"),
		waitNs:  reg.Histogram("engine_run_wait_ns", "per-run tail wait for shard workers"),
		mergeNs: reg.Histogram("engine_run_merge_ns", "per-run merge phase duration"),
		totalNs: reg.Histogram("engine_run_total_ns", "per-run end-to-end duration"),

		shardVisits: reg.CounterVec("engine_shard_visits_total", "query visits per shard", "shard", shardLabels),
		planVerdicts: reg.CounterVec2("engine_plan_verdicts_total",
			"shard plan outcomes by op and verdict (which bound pruned)",
			"op", "verdict", planner.OpLabels(), planner.VerdictLabels()),
		arenaFresh: reg.Counter("engine_arena_fresh_total", "batch arenas freshly allocated"),

		hedges:         reg.Counter("engine_hedges_total", "hedged replica dispatches issued"),
		hedgeWins:      reg.Counter("engine_hedge_wins_total", "hedged dispatches that answered before the primary"),
		deadlineMisses: reg.Counter("engine_deadline_misses_total", "query runs that exceeded Options.Deadline"),
		degradedRuns:   reg.Counter("engine_degraded_runs_total", "runs returned partial past their deadline (Strict=false)"),
		breakerTrips:   reg.Counter("engine_breaker_trips_total", "replica circuit breakers opened"),

		totalNsWin: reg.WindowedHistogram("engine_run_total_ns_win", "per-run end-to-end duration over the trailing window"),
		visitedWin: reg.WindowedHistogram("engine_query_shards_visited_win", "shards visited per query over the trailing window"),

		shardLabels: shardLabels,
	}
	if opt.FlightRecorder.enabled() {
		m.flight = opt.FlightRecorder
		buf := make([]SlowTrace, ringSize)
		for i := range buf {
			buf[i].PerShard = make([]ShardTrace, 0, shards)
		}
		m.slow = metrics.NewRing(buf)
	}
	if w := opt.Watchdog; w != nil {
		m.health = metrics.NewRing(make([]HealthEvent, ringSize))
		m.healthTotal = reg.CounterVec("engine_health_events_total",
			"watchdog health events by kind", "kind", healthLabels[:])
		m.wdTicks = reg.Counter("engine_watchdog_ticks_total", "watchdog sampling rounds")
		if w.LatencyP99Ns > 0 || w.MeanShardsVisited > 0 {
			m.sloEvals = reg.Counter("engine_slo_evals_total", "SLO evaluation rounds")
		}
	}
	return m
}

// healthEvent records one health observation — a watchdog rule that
// crossed its bound, a breaker trip, a Repair actuation — into the
// event ring and its kind's counter, so Engine.Health interleaves the
// actuators' story with the watchdog's. Safe on a nil receiver and on
// engines built without a watchdog — the event ring then doesn't exist
// and the event is dropped (engine_breaker_trips_total still counts a
// trip).
func (m *engineMetrics) healthEvent(kind HealthKind, now int64, shard int, value, bound float64) {
	if m == nil || m.health == nil {
		return
	}
	m.healthTotal.Inc(int(kind))
	m.health.Put(func(ev *HealthEvent) {
		*ev = HealthEvent{Kind: kind, UnixNano: now, Shard: shard, Value: value, Bound: bound}
	})
}

// collectShardIO is the scrape-time collector: it exports each shard's
// block reads from one consistent Engine.Stats snapshot, plus the count
// of open breakers per shard when breakers are armed. Registered on the
// engine's registry at construction; costs nothing until something
// scrapes.
func (e *Engine) collectShardIO(emit func(kind metrics.Kind, name, labelKey, labelVal string, v float64)) {
	st := e.Stats()
	for si := range st.PerShard {
		emit(metrics.KindCounter, "engine_shard_io_reads_total", "shard", e.met.shardLabels[si], float64(st.PerShard[si].IO.Reads))
	}
	if e.brkCfg != nil {
		// Per-shard count of open breakers (half-open copies are
		// routable, so they count as healthy here): non-zero means the
		// shard is routing around at least one sick copy.
		e.migMu.RLock()
		for si, sh := range e.shards {
			var open int
			for _, rep := range sh.reps {
				if BreakerState(rep.brk.state.Load()) == BreakerOpen {
					open++
				}
			}
			emit(metrics.KindGauge, "engine_breaker_state", "shard", e.met.shardLabels[si], float64(open))
		}
		e.migMu.RUnlock()
	}
}

// Metrics returns the registry holding the engine's instruments: the
// one passed in Options.Metrics, or the engine's private registry when
// only the flight recorder or watchdog is enabled. Nil for an
// uninstrumented engine.
func (e *Engine) Metrics() *metrics.Registry {
	if e.met == nil {
		return nil
	}
	return e.met.reg
}
