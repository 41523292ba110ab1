package engine

// Health watchdog (DESIGN.md §11). A background goroutine — strictly
// off the hot path — samples the signals an operator would otherwise
// poll by hand: runtime pressure (the GC pause clock), layout
// health (partition.MeasureSkew over the live summaries), traffic
// concentration (the always-on per-shard visit counts), replica
// balance, and the SLO bounds over the windowed histograms. A signal
// crossing its configured bound becomes a typed HealthEvent in a fixed
// ring (Engine.Health) and a bump of engine_health_events_total{kind=...},
// both through engineMetrics.healthEvent; an SLO breach is the
// p99_burn or visited_burn event, and engine_slo_evals_total counts
// the rounds that judged the bounds, so the burn rate is the ratio of
// the two.
//
// Every tick is allocation-free at steady state (reused MemStats and
// skew scratch, atomic reads, stack-buffer quantiles), because the
// zero-alloc regression tests run with the watchdog ticking: the
// component that polices the latency contract must not violate it.
// Lifecycle: started by newEngine when Options.Watchdog is set,
// stopped synchronously by the first Close before the workers drain.

import (
	"runtime"
	"time"

	"linconstraint/internal/partition"
)

// WatchdogConfig configures the health watchdog. A zero bound disables
// that check; the interval defaults when zero. The event ring holds the
// last 64 events.
type WatchdogConfig struct {
	// Interval between sampling ticks (default 1s).
	Interval time.Duration

	// MaxSkew trips HealthSkew when the live-count skew (max/mean,
	// partition.SkewStats.Skew) exceeds it. Typical 1.5.
	MaxSkew float64
	// MaxSpread trips HealthSkew when the summary-box spread
	// (partition.SkewStats.Spread) exceeds it. Typical S/2.
	MaxSpread float64
	// HotShardShare trips HealthHotShard when one shard's share of the
	// recent planned visits exceeds it (0..1; e.g. 0.5).
	HotShardShare float64
	// GCPauseNs trips HealthGCStall when the GC pause accumulated over
	// one interval exceeds it.
	GCPauseNs int64
	// ReplicaImbalance trips HealthReplicaImbalance when, within a
	// replicated shard, the busiest replica's share of the interval's
	// reads exceeds this multiple of a fair share (1 = perfectly even;
	// e.g. 2 means one copy served double its fair share).
	ReplicaImbalance float64

	// LatencyP99Ns is the SLO bound on the windowed p99 run latency;
	// a breach trips HealthLatencyBurn.
	LatencyP99Ns int64
	// MeanShardsVisited is the SLO bound on the windowed mean shards
	// visited per query; a breach trips HealthVisitedBurn.
	MeanShardsVisited float64
}

// HealthKind identifies what a HealthEvent observed.
type HealthKind uint8

const (
	// HealthSkew: the layout drifted (count skew or box spread over
	// bound) — a rebalance is due.
	HealthSkew HealthKind = iota
	// HealthHotShard: one shard concentrates the traffic — a replica
	// promotion is due.
	HealthHotShard
	// HealthLatencyBurn: the windowed p99 run latency breached the SLO.
	HealthLatencyBurn
	// HealthVisitedBurn: the windowed mean shards-visited breached the
	// SLO (pruning stopped working).
	HealthVisitedBurn
	// HealthGCStall: GC pause over one interval exceeded its budget.
	HealthGCStall
	// HealthReplicaImbalance: one replica of a shard serves far more
	// than its fair share of reads.
	HealthReplicaImbalance
	// HealthBreakerTrip: a replica's circuit breaker opened (consecutive
	// faulted sub-batches — see breaker.go). Value is the consecutive
	// fault count, Bound the configured threshold.
	HealthBreakerTrip
	// HealthRepair: Engine.Repair rebuilt or healed a shard's sick
	// replicas. Value is how many copies it repaired.
	HealthRepair

	numHealthKinds = int(HealthRepair) + 1
)

var healthLabels = [numHealthKinds]string{
	"skew", "hot_shard", "p99_burn", "visited_burn", "gc_stall", "replica_imbalance",
	"breaker_trip", "repair",
}

// String returns the kind's metric label.
func (k HealthKind) String() string {
	if int(k) < len(healthLabels) {
		return healthLabels[k]
	}
	return "unknown"
}

// HealthEvent is one watchdog observation that crossed its bound.
type HealthEvent struct {
	Kind HealthKind
	// UnixNano is the tick's wall-clock time.
	UnixNano int64
	// Shard names the offending shard, -1 for engine-wide events.
	Shard int
	// Value is the observed signal; Bound the configured limit it
	// crossed.
	Value, Bound float64
}

// watchdog is the background sampler's state. All scratch is
// preallocated at start so a steady-state tick never allocates.
type watchdog struct {
	e   *Engine
	cfg WatchdogConfig
	// stop is closed by Close; done is closed by the loop on exit, so
	// Close can wait for the final tick to finish before tearing the
	// workers down.
	stop chan struct{}
	done chan struct{}

	mem         runtime.MemStats
	gcSeen      bool
	lastGCPause uint64
	skew        partition.SkewScratch
	// lastReads[si][ri] is replica ri of shard si's cumulative read
	// count at the previous tick; the per-interval deltas feed the
	// imbalance check. Re-sized (an allocation) only when Replicate/
	// Drop changes a replica set — a cold, already-locking path.
	lastReads [][]int64
}

// startWatchdog launches the sampler; the engine's instrument set must
// already exist.
func startWatchdog(e *Engine, cfg WatchdogConfig) *watchdog {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	w := &watchdog{
		e:         e,
		cfg:       cfg,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		lastReads: make([][]int64, len(e.shards)),
	}
	for si := range w.lastReads {
		w.lastReads[si] = make([]int64, 0, 4)
	}
	go w.loop()
	return w
}

func (w *watchdog) loop() {
	defer close(w.done)
	tick := time.NewTicker(w.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			w.tick()
		}
	}
}

// tick samples every signal once. Allocation-free at steady state.
func (w *watchdog) tick() {
	e, m, cfg := w.e, w.e.met, &w.cfg
	now := time.Now().UnixNano()
	m.wdTicks.Inc()

	// GC pressure. ReadMemStats stops the world briefly; at the default
	// 1s interval that is noise, and it is the only way to see the GC
	// pause clock.
	runtime.ReadMemStats(&w.mem)
	if w.gcSeen && cfg.GCPauseNs > 0 {
		if d := int64(w.mem.PauseTotalNs - w.lastGCPause); d > cfg.GCPauseNs {
			m.healthEvent(HealthGCStall, now, -1, float64(d), float64(cfg.GCPauseNs))
		}
	}
	w.lastGCPause, w.gcSeen = w.mem.PauseTotalNs, true

	// Layout health: measure under the same lock order a query run
	// uses (shared migMu, then sumsMu), so the watchdog can never
	// deadlock against a rebalance.
	e.migMu.RLock()
	e.sumsMu.RLock()
	st := partition.MeasureSkewInto(e.sums, &w.skew)
	maxSi := -1
	for si := range e.sums {
		if e.sums[si].Count == st.MaxCount {
			maxSi = si
			break
		}
	}
	e.sumsMu.RUnlock()
	if (cfg.MaxSkew > 0 && st.Skew > cfg.MaxSkew) ||
		(cfg.MaxSpread > 0 && st.Spread > cfg.MaxSpread) {
		m.healthEvent(HealthSkew, now, maxSi, st.Skew, cfg.MaxSkew)
	}

	// Traffic concentration, from the always-on visit counts.
	if cfg.HotShardShare > 0 && len(e.shards) > 1 {
		var tot, max uint64
		hotSi := -1
		for si := range e.shards {
			c := e.traffic.Estimate(si)
			tot += c
			if c > max {
				max, hotSi = c, si
			}
		}
		if tot > 0 {
			if share := float64(max) / float64(tot); share > cfg.HotShardShare {
				m.healthEvent(HealthHotShard, now, hotSi, share, cfg.HotShardShare)
			}
		}
	}

	// Replica balance: per-interval read deltas within each shard's
	// replica set. A set whose size changed since the last tick is
	// re-snapshotted and judged next tick.
	if cfg.ReplicaImbalance > 0 {
		for si, sh := range e.shards {
			reps := sh.reps
			last := w.lastReads[si]
			if len(last) != len(reps) {
				last = last[:0]
				for _, rep := range reps {
					last = append(last, rep.reads.Load())
				}
				w.lastReads[si] = last
				continue
			}
			var sum, max int64
			for ri, rep := range reps {
				cur := rep.reads.Load()
				d := cur - last[ri]
				last[ri] = cur
				sum += d
				if d > max {
					max = d
				}
			}
			if len(reps) > 1 && sum > 0 {
				ratio := float64(max) * float64(len(reps)) / float64(sum)
				if ratio > cfg.ReplicaImbalance {
					m.healthEvent(HealthReplicaImbalance, now, si, ratio, cfg.ReplicaImbalance)
				}
			}
		}
	}
	e.migMu.RUnlock()

	// SLO bounds, over the windowed views (stack-buffer merges).
	if m.sloEvals != nil {
		m.sloEvals.Inc()
		if bound := float64(cfg.LatencyP99Ns); bound > 0 {
			if p99, n := m.totalNsWin.Quantile(0.99); n > 0 && p99 > bound {
				m.healthEvent(HealthLatencyBurn, now, -1, p99, bound)
			}
		}
		if bound := cfg.MeanShardsVisited; bound > 0 {
			if mean, n := m.visitedWin.Mean(); n > 0 && mean > bound {
				m.healthEvent(HealthVisitedBurn, now, -1, mean, bound)
			}
		}
	}
}

// Health appends the watchdog's recorded events to dst, oldest first,
// and returns it. Empty unless the engine was built with
// Options.Watchdog. Pass a reused dst[:0] to poll without allocating.
func (e *Engine) Health(dst []HealthEvent) []HealthEvent {
	if e.met == nil || e.met.health == nil {
		return dst
	}
	return e.met.health.Snapshot(dst, nil)
}
