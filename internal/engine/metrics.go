package engine

// Engine observability (DESIGN.md §9). The engine owns every instrument
// that observes its hot path: all are created once at construction
// (newEngineMetrics), so a steady-state query run records its timings,
// plan verdicts and per-shard visit counts with nothing but atomic
// operations — no label formatting, no map lookups, no allocation. The
// zero-alloc regression tests run with metrics and trace sampling
// enabled, so instrumentation can never quietly re-introduce a heap
// allocation on the query path.
//
// Two record streams ride along in fixed rings: sampled per-run query
// traces (Options.TraceEvery) and rebalance phase events. Both are
// value structs put into metrics.Ring buffers — a Put is a mutex-guarded
// struct copy, and Traces/RebalanceEvents snapshot them out into
// caller-owned slices.
//
// Per-shard device rollups (reads/writes/hits/stall per shard) are
// deliberately NOT hot-path instruments: they are a scrape-time
// metrics.Collector over Engine.Stats, so the query path pays nothing
// for them and the exported numbers are exactly the Stats the engine
// already reports.

import (
	"sync/atomic"
	"time"

	"linconstraint/internal/eio"
	"linconstraint/internal/metrics"
	"linconstraint/internal/planner"
)

// Trace is one sampled query-run record: where the run's wall-clock
// went (plan / fan-out / wait / merge), what the planner decided, and
// the block I/O the run caused across every shard it visited (the sum
// of the run's per-shard capture — the same before/after device-counter
// deltas the flight recorder keeps per shard; a per-shard breakdown here
// would need a slice per trace, which the zero-alloc contract forbids). A batch of scalar queries yields one Trace per
// run of consecutive query ops, so single-query batches trace per
// query.
type Trace struct {
	// Seq numbers the sampled traces (1, 2, ...), so a consumer polling
	// the ring can tell new records from ones it has already seen.
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
	// of that spent blocked in the await after the caller's own k-NN
	// work);
	// MergeNs is the loser-tree merge; TotalNs the whole run.
	PlanNs, ExecNs, WaitNs, MergeNs, TotalNs int64
	// IO is the run's block-I/O delta summed over visited shards.
	IO eio.Stats
}

// RebalanceEvent is one phase of a Rebalance/Retrain call, captured
// into a fixed ring whenever the engine is instrumented.
type RebalanceEvent struct {
	// Phase is one of the Rebal* constants.
	Phase string
	// StartUnixNano is the phase's wall-clock start.
	StartUnixNano int64
	// DurNs is the phase duration.
	DurNs int64
	// Moves counts records moved in this phase (move-batch and rebuild
	// phases; zero otherwise). Deferred is the backlog beyond MaxMoves
	// known at this phase.
	Moves    int
	Deferred int
}

// Rebalance phase names (RebalanceEvent.Phase). Constants so event
// construction never builds a string.
const (
	RebalSnapshot  = "snapshot"
	RebalRetrain   = "retrain"
	RebalMoveBatch = "move-batch"
	RebalShrink    = "shrink"
	RebalRebuild   = "rebuild"
)

// engineMetrics is the engine's pre-registered instrument set plus the
// trace machinery. nil when the engine is built without Options.Metrics
// and without tracing — every hot-path site guards with one nil check,
// so an uninstrumented engine pays nothing at all.
type engineMetrics struct {
	reg *metrics.Registry

	// Run timing, one observation per query run.
	runs                                     *metrics.Counter
	planNs, execNs, waitNs, mergeNs, totalNs *metrics.Histogram
	// workerWaitNs observes each shard worker's semaphore wait (only
	// populated when Options.Workers caps concurrency).
	workerWaitNs *metrics.Histogram

	// ops counts every op entering the engine, by op kind (queries at
	// plan time, updates at Insert/Delete entry).
	ops *metrics.CounterVec
	// planVisited / planPruned accumulate plan verdicts by op kind;
	// shardVisits counts (query, shard) visits per shard.
	planVisited, planPruned *metrics.CounterVec
	shardVisits             *metrics.CounterVec
	// plansShared counts queries that reused a prior query's plan;
	// arenaReuse/arenaFresh watch the batch-arena free list (a growing
	// fresh count at steady state means the reuse contract broke).
	plansShared            *metrics.Counter
	arenaReuse, arenaFresh *metrics.Counter

	// Migration-side instruments: exclusive migMu hold times, rebalance
	// phase durations, and the move/deferred totals.
	migHoldNs     *metrics.Histogram
	rebalPhaseNs  *metrics.Histogram
	rebalRuns     *metrics.Counter
	rebalMoves    *metrics.Counter
	rebalDeferred *metrics.Gauge

	// Replication-side instruments: physical copies alive across all
	// shards, promote/demote counts, and AutoReplicate invocations.
	replicasPhys *metrics.Gauge
	replicaAdds  *metrics.Counter
	replicaDrops *metrics.Counter
	autoRepRuns  *metrics.Counter

	// Robustness instruments (DESIGN.md §12): hedged dispatches issued
	// and won, runs that blew their deadline (strict or not) and runs
	// that returned degraded, breaker trips and Repair actuations.
	hedges         *metrics.Counter
	hedgeWins      *metrics.Counter
	deadlineMisses *metrics.Counter
	degradedRuns   *metrics.Counter
	breakerTrips   *metrics.Counter
	repairs        *metrics.Counter

	// Explain counters (explain.go): shard plan outcomes as a dense
	// (op × verdict) matrix — which bound pruned, per op.
	planVerdicts *metrics.CounterVec2

	// Windowed views (DESIGN.md §11): time-resolved run latency and
	// per-query fan-out. The watchdog evaluates its SLOs against these,
	// and the exposition publishes their quantiles as gauges.
	totalNsWin *metrics.WindowedHistogram
	visitedWin *metrics.WindowedHistogram

	// Flight recorder (flight.go): slow is nil when no bound is set,
	// which is what call sites and the arena gate on.
	flight    FlightRecorderConfig
	slow      *slowRing
	slowSeq   atomic.Int64
	slowTotal *metrics.Counter

	// Watchdog instruments (watchdog.go): nil unless Options.Watchdog.
	health                          *metrics.Ring[HealthEvent]
	healthTotal                     *metrics.CounterVec
	slo                             *metrics.SLO
	wdTicks                         *metrics.Counter
	wdGoroutines, wdHeap, wdGCPause *metrics.Gauge
	wdSkewMilli, wdSpreadMilli      *metrics.Gauge

	// Trace sampling: sampler is nil when tracing is off (a nil Sampler
	// admits nothing, so call sites need no extra guard).
	sampler *metrics.Sampler
	seq     atomic.Int64
	traces  *metrics.Ring[Trace]
	events  *metrics.Ring[RebalanceEvent]

	// shardLabels caches the per-shard label values for the collector.
	shardLabels []string
}

// newEngineMetrics builds the instrument set, or returns nil when the
// options ask for no instrumentation. With tracing on but no registry,
// instruments land in a private registry — tracing alone must not force
// the caller to provide one.
func newEngineMetrics(opt Options, shards int) *engineMetrics {
	if opt.Metrics == nil && opt.TraceEvery <= 0 &&
		!opt.FlightRecorder.enabled() && opt.Watchdog == nil {
		return nil
	}
	reg := opt.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	opLabels := planner.OpLabels()
	m := &engineMetrics{
		reg: reg,

		runs:         reg.Counter("engine_runs_total", "query runs executed (maximal runs of consecutive query ops)"),
		planNs:       reg.Histogram("engine_run_plan_ns", "per-run plan-and-layout phase duration"),
		execNs:       reg.Histogram("engine_run_exec_ns", "per-run dispatch-to-last-worker duration"),
		waitNs:       reg.Histogram("engine_run_wait_ns", "per-run tail wait for shard workers"),
		mergeNs:      reg.Histogram("engine_run_merge_ns", "per-run merge phase duration"),
		totalNs:      reg.Histogram("engine_run_total_ns", "per-run end-to-end duration"),
		workerWaitNs: reg.Histogram("engine_worker_wait_ns", "shard worker wait for a concurrency slot"),

		ops:         reg.CounterVec("engine_ops_total", "ops entering the engine by kind", "op", opLabels),
		planVisited: reg.CounterVec("engine_plan_visited_total", "shards visited by op kind", "op", opLabels),
		planPruned:  reg.CounterVec("engine_plan_pruned_total", "shards pruned by op kind", "op", opLabels),
		shardVisits: reg.CounterVec("engine_shard_visits_total", "query visits per shard", "shard", metrics.ShardLabels(shards)),
		plansShared: reg.Counter("engine_plans_shared_total", "queries that reused an earlier query's plan"),
		arenaReuse:  reg.Counter("engine_arena_reuse_total", "batch arenas served from the free list"),
		arenaFresh:  reg.Counter("engine_arena_fresh_total", "batch arenas freshly allocated"),

		migHoldNs:     reg.Histogram("engine_miglock_hold_ns", "exclusive migration-lock hold duration"),
		rebalPhaseNs:  reg.Histogram("engine_rebalance_phase_ns", "rebalance phase duration"),
		rebalRuns:     reg.Counter("engine_rebalance_runs_total", "Rebalance calls"),
		rebalMoves:    reg.Counter("engine_rebalance_moves_total", "records migrated between shards"),
		rebalDeferred: reg.Gauge("engine_rebalance_deferred", "moves deferred beyond the last call's budget"),

		replicasPhys: reg.Gauge("engine_replicas_physical", "physical index copies across all shards"),
		replicaAdds:  reg.Counter("engine_replica_adds_total", "replicas created by Replicate"),
		replicaDrops: reg.Counter("engine_replica_drops_total", "replicas removed by Drop"),
		autoRepRuns:  reg.Counter("engine_autoreplicate_runs_total", "AutoReplicate calls"),

		hedges:         reg.Counter("engine_hedges_total", "hedged replica dispatches issued"),
		hedgeWins:      reg.Counter("engine_hedge_wins_total", "hedged dispatches that answered before the primary"),
		deadlineMisses: reg.Counter("engine_deadline_misses_total", "query runs that exceeded Options.Deadline"),
		degradedRuns:   reg.Counter("engine_degraded_runs_total", "runs returned partial past their deadline (Strict=false)"),
		breakerTrips:   reg.Counter("engine_breaker_trips_total", "replica circuit breakers opened"),
		repairs:        reg.Counter("engine_repairs_total", "replicas rebuilt or healed by Engine.Repair"),

		events:      metrics.NewRing[RebalanceEvent](64),
		shardLabels: metrics.ShardLabels(shards),
	}
	m.planVerdicts = reg.CounterVec2("engine_plan_verdicts_total",
		"shard plan outcomes by op and verdict (which bound pruned)",
		"op", "verdict", opLabels, planner.VerdictLabels())
	winSlots := opt.WindowSlots
	if winSlots <= 0 {
		winSlots = 6
	}
	winInterval := opt.WindowInterval
	if winInterval <= 0 {
		winInterval = 10 * time.Second
	}
	m.totalNsWin = reg.WindowedHistogram("engine_run_total_ns_win",
		"per-run end-to-end duration over the trailing window", winSlots, winInterval)
	m.visitedWin = reg.WindowedHistogram("engine_query_shards_visited_win",
		"shards visited per query over the trailing window", winSlots, winInterval)
	if opt.FlightRecorder.enabled() {
		m.flight = opt.FlightRecorder
		buf := m.flight.Buf
		if buf <= 0 {
			buf = 64
		}
		m.slow = newSlowRing(buf, shards)
		m.slowTotal = reg.Counter("engine_slow_captures_total",
			"anomalous runs captured by the flight recorder")
	}
	if opt.Watchdog != nil {
		buf := opt.Watchdog.Buf
		if buf <= 0 {
			buf = 64
		}
		m.health = metrics.NewRing[HealthEvent](buf)
		m.healthTotal = reg.CounterVec("engine_health_events_total",
			"watchdog health events by kind", "kind", HealthKindLabels())
		m.wdTicks = reg.Counter("engine_watchdog_ticks_total", "watchdog sampling rounds")
		m.wdGoroutines = reg.Gauge("engine_watchdog_goroutines", "goroutines at the last watchdog tick")
		m.wdHeap = reg.Gauge("engine_watchdog_heap_bytes", "heap bytes in use at the last watchdog tick")
		m.wdGCPause = reg.Gauge("engine_watchdog_gc_pause_ns", "cumulative GC pause ns at the last watchdog tick")
		m.wdSkewMilli = reg.Gauge("engine_watchdog_skew_milli", "live-count skew (max/mean) in thousandths at the last tick")
		m.wdSpreadMilli = reg.Gauge("engine_watchdog_spread_milli", "summary-box spread in thousandths at the last tick")
		if objs := sloObjectives(opt.Watchdog); objs != nil {
			m.slo = metrics.NewSLO(reg, "engine_slo", objs)
		}
	}
	if opt.TraceEvery > 0 {
		buf := opt.TraceBuf
		if buf <= 0 {
			buf = 256
		}
		m.sampler = metrics.NewSampler(opt.TraceEvery)
		m.traces = metrics.NewRing[Trace](buf)
	}
	return m
}

// phaseDone records one rebalance phase: a duration observation plus
// an event-ring record. Safe on a nil receiver so rebalance code calls
// it unconditionally (that path is cold; the clock reads cost nothing
// worth guarding).
func (m *engineMetrics) phaseDone(phase string, start time.Time, moves, deferred int) {
	if m == nil {
		return
	}
	d := int64(time.Since(start))
	m.rebalPhaseNs.Observe(d)
	m.events.Put(RebalanceEvent{
		Phase: phase, StartUnixNano: start.UnixNano(), DurNs: d,
		Moves: moves, Deferred: deferred,
	})
}

// holdDone records one exclusive migration-lock hold that began at
// start. Safe on a nil receiver.
func (m *engineMetrics) holdDone(start time.Time) {
	if m == nil {
		return
	}
	m.migHoldNs.Observe(int64(time.Since(start)))
}

// healthEvent records a non-watchdog health observation (breaker trips,
// Repair actuations) through the same ring and counter vector the
// watchdog's emits use, so Engine.Health interleaves the actuator's
// story with the sampler's. Safe on a nil receiver and on engines built
// without a watchdog — the event ring then doesn't exist and the event
// is dropped (the dedicated breaker/repair counters still record it).
func (m *engineMetrics) healthEvent(kind HealthKind, now int64, shard int, value, bound float64) {
	if m == nil || m.health == nil {
		return
	}
	m.healthTotal.Inc(int(kind))
	m.health.Put(HealthEvent{Kind: kind, UnixNano: now, Shard: shard, Value: value, Bound: bound})
}

// collectShardIO is the scrape-time collector: it exports each shard's
// device counters (and space/record gauges) from one consistent
// Engine.Stats snapshot. Registered on the engine's registry at
// construction; costs nothing until something scrapes.
func (e *Engine) collectShardIO(emit func(kind metrics.Kind, name, labelKey, labelVal string, v float64)) {
	st := e.Stats()
	for si := range st.PerShard {
		lbl := e.met.shardLabels[si]
		io := st.PerShard[si].IO
		emit(metrics.KindCounter, "engine_shard_io_reads_total", "shard", lbl, float64(io.Reads))
		emit(metrics.KindCounter, "engine_shard_io_writes_total", "shard", lbl, float64(io.Writes))
		emit(metrics.KindCounter, "engine_shard_io_hits_total", "shard", lbl, float64(io.Hits))
		emit(metrics.KindCounter, "engine_shard_io_stall_ns_total", "shard", lbl, float64(io.StallNs))
		emit(metrics.KindCounter, "engine_shard_io_faults_total", "shard", lbl, float64(io.Faults))
		emit(metrics.KindCounter, "engine_shard_io_fault_stall_ns_total", "shard", lbl, float64(io.FaultStallNs))
		emit(metrics.KindGauge, "engine_shard_space_blocks", "shard", lbl, float64(st.PerShard[si].SpaceBlocks))
		emit(metrics.KindGauge, "engine_shard_records", "shard", lbl, float64(e.counts[si].Load()))
		emit(metrics.KindGauge, "engine_shard_replicas", "shard", lbl, float64(st.Replicas[si]))
		var rr int64
		for _, v := range st.ReplicaReads[si] {
			rr += v
		}
		emit(metrics.KindCounter, "engine_shard_replica_reads_total", "shard", lbl, float64(rr))
	}
	emit(metrics.KindGauge, "engine_shards_visited_cum", "", "", float64(st.ShardsVisited))
	emit(metrics.KindGauge, "engine_shards_pruned_cum", "", "", float64(st.ShardsPruned))
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
// only tracing was enabled. Nil for an uninstrumented engine.
func (e *Engine) Metrics() *metrics.Registry {
	if e.met == nil {
		return nil
	}
	return e.met.reg
}

// Traces appends the sampled query traces to dst, oldest first, and
// returns it. Empty unless the engine was built with Options.TraceEvery
// > 0. Pass a reused dst[:0] to keep polling allocation-free.
func (e *Engine) Traces(dst []Trace) []Trace {
	if e.met == nil || e.met.traces == nil {
		return dst
	}
	return e.met.traces.Snapshot(dst)
}

// RebalanceEvents appends the recorded rebalance phase events to dst,
// oldest first, and returns it. Empty for an uninstrumented engine.
func (e *Engine) RebalanceEvents(dst []RebalanceEvent) []RebalanceEvent {
	if e.met == nil {
		return dst
	}
	return e.met.events.Snapshot(dst)
}
