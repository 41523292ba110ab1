package engine

// Plan explain (DESIGN.md §11). Two surfaces share the planner's
// verdict vocabulary (internal/planner): the always-on explain counters
// — a dense (op × verdict) counter matrix every planned query flushes
// into, so the exposition answers "which bound is doing the pruning" in
// aggregate — and the on-demand ExplainInto, which plans a query
// against the live summaries without executing it and reports the
// verdict the planner reached for every shard.

import (
	"linconstraint/internal/index"
	"linconstraint/internal/partition"
	"linconstraint/internal/planner"
)

// Explain is ExplainInto's reusable answer: the planner's per-shard
// decision for one query, without running it. A reused Explain keeps
// its buffers, so polling explain endpoints stays allocation-free.
type Explain struct {
	// Op is the explained query's op.
	Op Op
	// Err is set, wrapping index.ErrNonFinite, when an operand has a NaN
	// or infinite coordinate: Batch rejects such a query without
	// visiting any shard, so the explain plans none and Verdicts and
	// MinDist2 stay empty.
	Err error
	// Verdicts[si] is the planner's decision for shard si (visited, or
	// which bound pruned it). The k-NN runtime cutoff never appears —
	// it depends on the data seen while running, which an explain
	// deliberately does not do.
	Verdicts []planner.Verdict
	// MinDist2[si] is the k-NN visit-order key (squared box distance)
	// for shard si; empty for non-k-NN ops.
	MinDist2 []float64

	// Scratch (reused across calls).
	plan planner.Plan
	sums []partition.ShardSummary
}

// ExplainInto plans q against the engine's current shard summaries and
// fills ex with the per-shard verdicts, without visiting any shard. On
// a NoPlanner engine it still reports what the planner *would* decide —
// the explain exists to show what pruning is available, and the engine
// ignoring it is itself worth seeing.
func (e *Engine) ExplainInto(q Query, ex *Explain) {
	ex.Op = q.Op
	ex.Verdicts, ex.MinDist2 = ex.Verdicts[:0], ex.MinDist2[:0]
	if ex.Err = index.CheckOperands(&q); ex.Err != nil {
		return
	}
	e.migMu.RLock()
	defer e.migMu.RUnlock()
	sums := e.snapshotSums(ex.sums)
	if e.mutable {
		// Keep only a copy buffer: a reused Explain may serve another
		// engine next, and must never write into one's live summaries.
		ex.sums = sums
	}
	planner.PlanQueryInto(q, sums, &ex.plan)
	ex.Verdicts = append(ex.Verdicts, ex.plan.Verdicts...)
	if q.Op == OpKNN {
		// MinDist2 is parallel to the plan's visit order; re-key it by
		// shard so Verdicts and MinDist2 index the same way.
		for range ex.Verdicts {
			ex.MinDist2 = append(ex.MinDist2, -1)
		}
		for j, si := range ex.plan.Shards {
			ex.MinDist2[si] = ex.plan.MinDist2[j]
		}
	}
}

// explainPlan flushes one planned query's verdicts into the explain
// counters and, when the run is captured (the flight recorder is
// armed), the arena's per-shard verdict captures. It runs
// after the run's last wave, so a k-NN plan already carries its
// kth-distance cutoffs (cutKNN).
func (e *Engine) explainPlan(a *batchArena, op Op, pl *planner.Plan) {
	var cnt [planner.NumVerdicts]int32
	for si, v := range pl.Verdicts {
		cnt[v]++
		if a.capture {
			a.caps[si].verdicts[v].Add(1)
		}
	}
	k := planner.OpIndex(op)
	for v := range cnt {
		if cnt[v] != 0 {
			e.met.planVerdicts.Add(k, v, int64(cnt[v]))
		}
	}
}
