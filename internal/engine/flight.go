package engine

// Flight recorder (DESIGN.md §11), the engine's only run capture. The
// aggregate instruments (metrics.go) answer "what does a typical run
// look like"; the flight recorder answers the other question an
// operator has — "what did the *bad* runs do" — by capturing every run
// that crosses a configured anomaly bound, no matter how rare. A slow run can only be recognized after it has
// finished, so a flight-enabled engine records per-shard evidence on
// every run: each shard's block-I/O delta, the replica index its visits
// were routed to, and how many of the run's queries reached each plan
// verdict for it. All of it lives in preallocated atomics inside the
// batch arena (shard workers write their own shard's cells
// concurrently), so the always-on capture keeps the
// steady-state query path allocation-free. When the finished run trips
// a bound, the accumulated evidence is copied into the slow ring (a
// metrics.Ring whose slots own their PerShard storage), read by
// Engine.SlowQueries.

import (
	"sync/atomic"

	"linconstraint/internal/eio"
	"linconstraint/internal/planner"
)

// FlightRecorderConfig bounds what the engine considers an anomalous
// run. A bound of zero disables that trigger; the recorder is off when
// every trigger is disabled. The slow ring holds the last 64 captures.
type FlightRecorderConfig struct {
	// TotalNs trips on a run whose end-to-end latency exceeds it.
	TotalNs int64
	// ShardIOs trips on a run during which any single shard performed
	// more than this many block transfers (reads + writes) — the
	// critical-path signal: one overloaded disk, not the sum.
	ShardIOs int64
	// ShardsVisited trips on a run whose queries visited more than this
	// many shards in total (a fan-out anomaly: the planner stopped
	// pruning, e.g. after a layout went stale).
	ShardsVisited int
}

func (c FlightRecorderConfig) enabled() bool {
	return c.TotalNs > 0 || c.ShardIOs > 0 || c.ShardsVisited > 0
}

// SlowReason is a bitmask of the bounds a captured run tripped.
type SlowReason uint8

const (
	// SlowTotalNs: the run's end-to-end latency exceeded TotalNs.
	SlowTotalNs SlowReason = 1 << iota
	// SlowShardIO: some shard's block transfers exceeded ShardIOs.
	SlowShardIO
	// SlowFanout: the run's total shard visits exceeded ShardsVisited.
	SlowFanout
	// SlowHedged: at least one shard's dispatch went unanswered past the
	// hedge delay and was re-dispatched (rare by construction — the
	// delay tracks the p99 — so every hedged run is captured).
	SlowHedged
	// SlowDegraded: the run blew its deadline and returned partial
	// results (Options.Deadline, Strict=false).
	SlowDegraded
)

var slowLabels = [...]string{"total_ns", "shard_io", "fanout", "hedged", "degraded"}

// String renders the bitmask as a fixed vocabulary ("total_ns|fanout").
func (r SlowReason) String() string {
	s := ""
	for i, l := range slowLabels {
		if r&(1<<i) == 0 {
			continue
		}
		if s != "" {
			s += "|"
		}
		s += l
	}
	if s == "" {
		s = "none"
	}
	return s
}

// ShardTrace is one shard's share of a captured run.
type ShardTrace struct {
	// Shard is the shard index; Replica the replica index the run's
	// visits were routed to, -1 when the shard answered nothing.
	Shard   int
	Replica int
	// Hedged reports that this shard's sub-batch was re-dispatched to a
	// second replica at the hedge delay (the I/O below then sums both
	// copies' work).
	Hedged bool
	// Verdicts counts how many of the run's queries reached each plan
	// verdict for this shard (planner.Verdict order, the k-NN
	// kth-distance cutoff included).
	Verdicts [planner.NumVerdicts]int32
	// IO is the shard's block-I/O delta for the run.
	IO eio.Stats
}

// SlowTrace is one anomalous run: its Trace (phase timings, plan
// verdicts, summed I/O), plus when it started, which bounds it tripped,
// and the complete per-shard evidence.
type SlowTrace struct {
	Trace
	// StartUnixNano is the run's wall-clock start.
	StartUnixNano int64
	// Reason is the set of tripped bounds.
	Reason SlowReason
	// PerShard holds one entry per shard (all of them, pruned shards
	// included — a prune verdict is evidence too), in shard order.
	PerShard []ShardTrace
}

// shardCapture is one shard's per-run flight accumulator. Atomics
// throughout: the shard's worker writes the I/O cells, the dispatching
// goroutine the replica cell, and the merging goroutine the verdict
// cells — all concurrently with each other across shards (a degraded
// run's stragglers may still be adding I/O).
type shardCapture struct {
	reads, writes, hits, stall atomic.Int64
	faults, faultStall         atomic.Int64
	replica                    atomic.Int32
	hedged                     atomic.Bool
	verdicts                   [planner.NumVerdicts]atomic.Int32
}

// reset prepares the capture for a new run.
func (c *shardCapture) reset() {
	c.reads.Store(0)
	c.writes.Store(0)
	c.hits.Store(0)
	c.stall.Store(0)
	c.faults.Store(0)
	c.faultStall.Store(0)
	c.replica.Store(-1)
	c.hedged.Store(false)
	for i := range c.verdicts {
		c.verdicts[i].Store(0)
	}
}

// addIO folds one visit's device-counter delta into the capture.
func (c *shardCapture) addIO(d eio.Stats) {
	c.reads.Add(d.Reads)
	c.writes.Add(d.Writes)
	c.hits.Add(d.Hits)
	c.stall.Add(d.StallNs)
	c.faults.Add(d.Faults)
	c.faultStall.Add(d.FaultStallNs)
}

// io reads the accumulated delta back out.
func (c *shardCapture) io() eio.Stats {
	return eio.Stats{
		Reads: c.reads.Load(), Writes: c.writes.Load(),
		Hits: c.hits.Load(), StallNs: c.stall.Load(),
		Faults: c.faults.Load(), FaultStallNs: c.faultStall.Load(),
	}
}

// trace reads shard si's accumulated evidence back out.
func (c *shardCapture) trace(si int) ShardTrace {
	st := ShardTrace{Shard: si, Replica: int(c.replica.Load()), Hedged: c.hedged.Load(), IO: c.io()}
	for v := range st.Verdicts {
		st.Verdicts[v] = c.verdicts[v].Load()
	}
	return st
}

// copySlowTrace deep-copies src into dst, reusing dst's PerShard
// capacity, so a snapshot never aliases ring memory.
func copySlowTrace(dst, src *SlowTrace) {
	ps := append(dst.PerShard[:0], src.PerShard...)
	*dst = *src
	dst.PerShard = ps
}

// SlowQueries appends the flight recorder's captured runs to dst,
// oldest first, and returns it. Empty unless Options.FlightRecorder
// set at least one bound. Pass a reused dst[:0] to poll without
// allocating (each entry's PerShard capacity is reused too).
func (e *Engine) SlowQueries(dst []SlowTrace) []SlowTrace {
	if e.met == nil || e.met.slow == nil {
		return dst
	}
	return e.met.slow.Snapshot(dst, copySlowTrace)
}
