package engine

import (
	"linconstraint/internal/eio"
	"linconstraint/internal/index"
)

// ShardStats is one logical shard's device snapshot: the per-replica
// index.Stats summed over the shard's physical copies (construction,
// query, rebuild and clone work included).
type ShardStats = index.Stats

// Stats is an aggregated snapshot across all shards. Total sums the
// counters (the paper's bounds apply per shard, so summed I/O is at
// most S times the single-index bound); MaxShardIOs is the worst single
// logical shard — the critical-path cost a parallel disk farm would
// wait for — and WorstShard its index. Replicated shards aggregate
// their copies into their logical shard's entry, so the per-shard view
// stays stable while replication churns; Replicas and ReplicaReads
// expose the physical layout underneath.
type Stats struct {
	Shards, Workers int

	Total       eio.Stats
	SpaceBlocks int64

	MaxShardIOs int64
	WorstShard  int

	// ShardsVisited and ShardsPruned accumulate the planner's verdicts
	// over all queries since the last reset: how many (query, shard)
	// visits actually ran and how many the planner (or the k-NN
	// kth-distance cutoff) skipped. Visited+Pruned grows by the shard
	// count per query; Pruned stays 0 under full fan-out (round-robin
	// layout or Options.NoPlanner).
	ShardsVisited int64
	ShardsPruned  int64

	PerShard []ShardStats

	// Replicas[si] is shard si's physical copy count (1 when
	// unreplicated); ReplicaReads[si][ri] counts the queries replica ri
	// has served since the last reset — the dispatch balance across a
	// hot shard's copies.
	Replicas     []int
	ReplicaReads [][]int64
}

// Worst returns a snapshot of the busiest shard's counters, or the
// zero ShardStats when the snapshot carries no per-shard data (a
// zero-value Stats, or one whose PerShard was dropped before
// serialization) — an aggregate someone saved and reloaded should not
// panic a dashboard.
func (s Stats) Worst() ShardStats {
	if len(s.PerShard) == 0 || s.WorstShard < 0 || s.WorstShard >= len(s.PerShard) {
		return ShardStats{}
	}
	return s.PerShard[s.WorstShard]
}

// Stats aggregates every replica's counters and space under the
// engine's stats mutex (plus the shared migration lock, which pins the
// replica sets, and each replica's own lock), so the snapshot is
// consistent even while queries, updates or replication churn are in
// flight on other goroutines.
func (e *Engine) Stats() Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.migMu.RLock()
	defer e.migMu.RUnlock()
	out := Stats{
		Shards:        len(e.shards),
		Workers:       e.workers,
		ShardsVisited: e.visited.Load(),
		ShardsPruned:  e.pruned.Load(),
		PerShard:      make([]ShardStats, len(e.shards)),
		Replicas:      make([]int, len(e.shards)),
		ReplicaReads:  make([][]int64, len(e.shards)),
	}
	for si, sh := range e.shards {
		out.Replicas[si] = len(sh.reps)
		var agg ShardStats
		rr := make([]int64, 0, len(sh.reps))
		for _, rep := range sh.reps {
			rep.mu.Lock()
			st := rep.idx.Stats()
			rep.mu.Unlock()
			agg.IO = agg.IO.Add(st.IO)
			agg.SpaceBlocks += st.SpaceBlocks
			rr = append(rr, rep.reads.Load())
		}
		out.ReplicaReads[si] = rr
		out.PerShard[si] = agg
		out.Total = out.Total.Add(agg.IO)
		out.SpaceBlocks += agg.SpaceBlocks
		if ios := agg.IO.IOs(); ios > out.MaxShardIOs {
			out.MaxShardIOs = ios
			out.WorstShard = si
		}
	}
	return out
}

// ResetStats zeroes every replica's counters (and the planner and
// replica-read counters) and drops its cache. The traffic counts are
// deliberately untouched: it tracks workload heat, not measurement
// windows, and replication decisions should survive a stats reset.
func (e *Engine) ResetStats() {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.migMu.RLock()
	defer e.migMu.RUnlock()
	e.visited.Store(0)
	e.pruned.Store(0)
	for _, sh := range e.shards {
		for _, rep := range sh.reps {
			rep.mu.Lock()
			rep.idx.ResetStats()
			rep.mu.Unlock()
			rep.reads.Store(0)
		}
	}
}
