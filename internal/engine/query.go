package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"linconstraint/internal/chan3d"
	"linconstraint/internal/eio"
	"linconstraint/internal/index"
	"linconstraint/internal/partition"
	"linconstraint/internal/planner"
)

// The engine's operation surface is defined by internal/index; the
// aliases keep one vocabulary across the layers.
type (
	// Op selects a query or update family; see the index package.
	Op = index.Op
	// Query is one element of a batch.
	Query = index.Query
	// Constraint is one linear constraint of a conjunction query.
	Constraint = index.Constraint
	// Record is one record of a mutable engine.
	Record = index.Record
)

// Re-exported ops. An engine answers whatever ops its index family
// serves; Batch reports a per-query error on a mismatch.
const (
	OpHalfplane   = index.OpHalfplane
	OpHalfspace3  = index.OpHalfspace3
	OpHalfspaceD  = index.OpHalfspaceD
	OpConjunction = index.OpConjunction
	OpKNN         = index.OpKNN
	OpInsert      = index.OpInsert
	OpDelete      = index.OpDelete
)

// Result is the answer to one batch op. Static reporting ops fill IDs
// with sorted global record indices; mutable-engine reporting ops fill
// Recs with the matching records in canonical order; OpKNN fills
// Neighbors (global IDs, closest first); OpDelete sets Deleted when a
// record was removed. Err is non-nil when the op is outside the
// engine's capability, its operand has another dimension than the
// engine's points, or an operand coordinate is infinite or NaN (the
// error wraps index.ErrNonFinite), and the other fields are empty.
//
// ShardsVisited and ShardsPruned are the query's plan stats: how many
// shards answered it and how many the planner (plus, for OpKNN, the
// run-time kth-distance cutoff) proved unable to contribute. They sum
// to the engine's shard count on every planned query; update ops leave
// both zero.
type Result struct {
	IDs       []int
	Recs      []Record
	Neighbors []chan3d.Neighbor
	Deleted   bool
	Err       error

	ShardsVisited int
	ShardsPruned  int

	// Degraded marks an answer the run's deadline truncated
	// (Options.Deadline with Strict=false): the shards in Missing were
	// abandoned still pending, so the answer is the exact union of the
	// shards that did report — correct but possibly incomplete. Both
	// stay zero on every completed run.
	Degraded bool
	Missing  []int
}

// reset clears r for refill, retaining slice capacity (the BatchInto
// reuse contract).
func (r *Result) reset() {
	r.IDs = r.IDs[:0]
	r.Recs = r.Recs[:0]
	r.Neighbors = r.Neighbors[:0]
	r.Deleted = false
	r.Err = nil
	r.ShardsVisited = 0
	r.ShardsPruned = 0
	r.Degraded = false
	r.Missing = r.Missing[:0]
}

// partial is one shard's contribution to one query.
type partial struct {
	ans index.Answer
	err error
}

// reset clears p for refill, retaining slice capacity.
func (p *partial) reset() {
	p.ans.IDs = p.ans.IDs[:0]
	p.ans.Recs = p.ans.Recs[:0]
	p.ans.Neighbors = p.ans.Neighbors[:0]
	p.err = nil
}

// shardSlot is one (query, shard) work unit of a run: answer query qi
// into arena partial part.
type shardSlot struct {
	qi   int32
	part int32
}

// batchArena holds every piece of per-run scratch one Batch call needs:
// plans, per-wave shard job lists, per-(query, shard) answer slots and
// merge cursors. Arenas are recycled through the engine's free list, and
// every slice in them is reused at its high-water capacity, so a
// steady-state batch allocates nothing. An arena belongs to exactly one
// Batch call at a time (and, past that call's return, to the stragglers
// it left behind — see refs); the shard workers it is dispatched to only
// touch disjoint parts of it (their own wave's jobs list and the slots it
// names).
type batchArena struct {
	// refs counts who may still touch the arena: the caller that took it
	// off the free list, plus one per sub-batch handed to a replica
	// worker and not yet finished. Whoever drops it to zero — the caller,
	// or the last straggler of a run that returned early — releases the
	// arena to the free list (unref).
	refs atomic.Int32

	// The current run: qs is the arena's private copy of the caller's
	// queries, with their operand slices copied into coefs and cons, so a
	// straggler finishing after BatchInto returned never reads memory the
	// caller may reuse; res is the caller's result storage, touched on the
	// caller's side of the fence only and cleared on release.
	qs    []Query
	coefs []float64
	cons  []Constraint
	res   []Result

	// Plans, deduplicated per distinct operand: plans[0:nplans] are the
	// distinct plans of the run, planRep[pi] the first query that needed
	// plans[pi] (the representative whose operand later queries are
	// compared against), planOf[qi] the plan of query qi (-1: errored,
	// no plan), order the queue order the run plans in (orderRun).
	plans   []planner.Plan
	planRep []int32
	nplans  int
	planOf  []int32
	order   []int32

	// sums is the once-per-run snapshot of the shard summaries a mutable
	// engine plans against (unused for static engines, whose summaries
	// are immutable and used in place).
	sums []partition.ShardSummary

	// waves are the run's dispatch rounds (the second is used by k-NN
	// only); parts[0:nparts] are the answer slots, laid out per query at
	// partOff[qi] in queue order, a wave's slots disjoint from the other's.
	// All slots are allocated before any dispatch: workers index a stable
	// slice.
	waves   [2]wave
	parts   []partial
	nparts  int
	partOff []int32

	// Merge scratch: loser-tree cursors and the per-query run tables
	// (used by the caller goroutine's merge phase only).
	heads, loser []int32
	idRuns       [][]int
	recRuns      [][]Record
	nbRuns       [][]chan3d.Neighbor

	// Run capture (flight.go). capture is set when the flight recorder
	// is armed — whether a run was anomalous is only known once it has
	// finished: every shard visit then accumulates its device-counter
	// delta, replica routing and verdict counts into caps (one
	// preallocated atomic cell block per shard; shard workers write their
	// own shard's cells concurrently). plansShared counts operand-dedup
	// hits for the run (caller goroutine only).
	capture     bool
	plansShared int
	caps        []shardCapture

	// The await machinery. A primary dispatch answers into parts, a hedge
	// re-dispatch into the shadow hparts (grown when a hedge is first
	// sent); each wave's sdone cells decide which side the merge reads.
	// left counts the wave's shards whose decider has not reported yet (a
	// winning worker reports after it has let go of the arena, the waiter
	// when it abandons); exactly one report zeroes it, and when that is a
	// worker's it posts the wave's one token on allDone, which the wave's
	// await always takes before it returns — so the channel is empty
	// between waves and left is free for the next (a losing straggler
	// touches neither). missed records that the run's deadline has fired.
	// The timers are armed only for runs with a hedge delay or a deadline,
	// and are stopped and drained between uses.
	hparts     []partial
	left       atomic.Int32
	allDone    chan struct{}
	missed     bool
	nhedges    int
	hedgeTimer *time.Timer
	dlTimer    *time.Timer
}

// wave is one dispatch round's per-shard cells: jobs[si] lists the slots
// shard si answers in the wave, sdone[si] is the shard's finish line (sd*
// states) the first finisher CASes — the merge reads whichever side won,
// so losers scribble into slots nobody looks at — and prim[si] is the
// replica the primary dispatch went to. Each wave owns its cells because
// a first-wave straggler (a hedge loser, a sub-batch abandoned at the
// deadline) still reads its jobs and CASes its finish line while the
// second wave runs.
type wave struct {
	jobs  [][]shardSlot
	sdone []atomic.Int32
	prim  []int32
}

// sdone states: the per-shard winner race of a wave. sdIdle, the zero
// value, is a shard this arena has never dispatched. Only shards the wave
// gave work are ever read, and dispatch stores every one of those first
// (sdAbandoned, then sdPending or, on the inline route, the decided
// sdPrimary), so the cells carry over between runs unreset.
const (
	sdIdle int32 = iota
	sdPending
	sdPrimary
	sdHedge
	sdAbandoned
)

// reset empties the wave's job lists for a run over n shards, making its
// cells on the arena's first run.
func (wv *wave) reset(n int) {
	if wv.jobs == nil {
		wv.jobs, wv.sdone, wv.prim = make([][]shardSlot, n), make([]atomic.Int32, n), make([]int32, n)
	}
	for si := range wv.jobs {
		wv.jobs[si] = wv.jobs[si][:0]
	}
}

// beginRun prepares the arena for one run of queries. The caller holds
// the only reference, so no worker of an earlier run is still inside.
func (a *batchArena) beginRun(e *Engine, qs []Query, res []Result) {
	a.qs, a.res = append(a.qs[:0], qs...), res
	a.coefs, a.cons = a.coefs[:0], a.cons[:0]
	for i := range a.qs {
		q := &a.qs[i]
		q.Coef = a.own(q.Coef)
		n := len(a.cons)
		for _, c := range q.Constraints {
			a.cons = append(a.cons, Constraint{Coef: a.own(c.Coef), Below: c.Below})
		}
		q.Constraints = a.cons[n:len(a.cons):len(a.cons)]
	}
	if a.allDone == nil {
		a.allDone = make(chan struct{}, 1)
	}
	a.nhedges, a.nplans, a.nparts, a.plansShared, a.missed = 0, 0, 0, 0, false
	a.planOf = resetInt32(a.planOf, len(qs))
	a.partOff = resetInt32(a.partOff, len(qs))
	for w := range a.waves {
		a.waves[w].reset(len(e.shards))
	}
	a.capture = e.met != nil && e.met.slow != nil
	if a.capture {
		if a.caps == nil {
			a.caps = make([]shardCapture, len(e.shards))
		}
		for i := range a.caps {
			a.caps[i].reset()
		}
	}
}

// own copies an operand slice into the arena's coefficient buffer. A
// reallocating append leaves the slices handed out earlier in this run on
// the old backing array, whose contents stay intact, so every operand
// remains valid; once warm, the buffer never reallocates.
func (a *batchArena) own(xs []float64) []float64 {
	n := len(a.coefs)
	a.coefs = append(a.coefs, xs...)
	return a.coefs[n:len(a.coefs):len(a.coefs)]
}

// unref drops one reference; the holder of the last one clears the
// arena's references to caller memory (the result storage, and whatever
// else the query copies carried in) and returns it to the engine's free
// list. Nothing may touch the arena after its own unref (the one
// exception, a winning worker's report to left and allDone, is covered
// by the waiter's reference — see replicaWorker).
func (a *batchArena) unref(e *Engine) {
	if a.refs.Add(-1) != 0 {
		return
	}
	clear(a.qs)
	a.res = nil
	e.arenaMu.Lock()
	e.arenas = append(e.arenas, a)
	e.arenaMu.Unlock()
}

// planWindow bounds the operand-dedup scan: a query is compared
// against at most this many of the run's most recent distinct plans.
// Repeated-operand batches (the fan-in case plan sharing exists for)
// repeat within a short distance; without the bound, an all-distinct
// batch of Q queries would pay Q²/2 operand comparisons for nothing.
const planWindow = 16

// plan returns the index of the (possibly shared) plan for query qi,
// computing it if no recent query of the run has the same operand.
// Planning once per distinct operand makes repeated-operand batches
// (the common case for fan-in services) pay the snapshot and the
// geometry once.
func (a *batchArena) plan(e *Engine, qi int) int32 {
	q := a.qs[qi]
	lo := 0
	if a.nplans > planWindow {
		lo = a.nplans - planWindow
	}
	for pi := lo; pi < a.nplans; pi++ {
		if sameOperand(q, a.qs[a.planRep[pi]]) {
			a.plansShared++
			return int32(pi)
		}
	}
	pi := a.nplans
	a.nplans++
	if pi == len(a.plans) {
		a.plans = append(a.plans, planner.Plan{})
		a.planRep = append(a.planRep, 0)
	}
	a.planRep[pi] = int32(qi)
	pl := &a.plans[pi]
	if e.noPlan {
		pl.Shards = pl.Shards[:0]
		pl.MinDist2 = pl.MinDist2[:0]
		pl.Verdicts = pl.Verdicts[:0]
		pl.Pruned = 0
		for si := range e.shards {
			pl.Shards = append(pl.Shards, si)
		}
		return int32(pi)
	}
	planner.PlanQueryInto(q, a.sums, pl)
	return int32(pi)
}

// firstWave returns how many of pl's shards the run's first wave
// visits: all of them, except for a planned k-NN query — the one plan
// with a visit-order key — whose first wave is the shards at box distance
// 0 from the query point or, failing any, the nearest one (MinDist2 is
// ascending, so either way a prefix of the plan). The rest wait for the
// kth-distance cutoff the first wave's answers give (cutKNN).
func firstWave(pl *planner.Plan) int {
	if len(pl.MinDist2) == 0 {
		return len(pl.Shards)
	}
	n := 1
	for n < len(pl.MinDist2) && pl.MinDist2[n] == 0 {
		n++
	}
	return n
}

// sameOperand reports whether two queries ask the same thing — same op,
// same parameters — so their plans are interchangeable within one run.
// NaN parameters never compare equal; such queries just plan
// individually.
func sameOperand(x, y Query) bool {
	if x.Op != y.Op {
		return false
	}
	switch x.Op {
	case OpHalfplane:
		return x.A == y.A && x.B == y.B
	case OpHalfspace3:
		return x.A == y.A && x.B == y.B && x.C == y.C
	case OpHalfspaceD:
		return floatsEqual(x.Coef, y.Coef)
	case OpConjunction:
		if len(x.Constraints) != len(y.Constraints) {
			return false
		}
		for i := range x.Constraints {
			if x.Constraints[i].Below != y.Constraints[i].Below ||
				!floatsEqual(x.Constraints[i].Coef, y.Constraints[i].Coef) {
				return false
			}
		}
		return true
	case OpKNN:
		return x.K == y.K && x.Pt == y.Pt
	}
	return false
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Batch executes ops in batch order and returns freshly allocated
// results: update ops (OpInsert, OpDelete) apply at their position in
// the batch, and each maximal run of consecutive query ops fans out
// concurrently through the persistent shard workers. A pure-query batch
// therefore pipelines fully, while a mixed batch sees each query
// observe precisely the updates that precede it. The returned slice is
// parallel to qs. Batch is safe for concurrent use (batches running
// concurrently interleave at shard granularity).
func (e *Engine) Batch(qs []Query) []Result {
	return e.BatchInto(qs, nil)
}

// BatchInto is Batch with caller-owned result storage: results is
// resized to len(qs) — reusing its capacity and each Result's slices —
// filled, and returned. A caller that reuses both the query and result
// slices across calls runs the engine's allocation-free hot path: on a
// static engine a steady-state query batch performs zero heap
// allocations end to end.
//
// Ownership: the returned Results' slices belong to the caller (they
// are the ones passed in, refilled); the engine keeps no reference to
// them. They are overwritten by the caller's next BatchInto call with
// the same storage — copy out anything that must outlive it. See
// DESIGN.md §7.
func (e *Engine) BatchInto(qs []Query, results []Result) []Result {
	// Re-expose dormant entries up to capacity before growing: a caller
	// passing results[:0] gets back the same warmed Result buffers, not
	// zero values (overwriting them would throw away every reused
	// slice's capacity — the whole point of BatchInto).
	results = results[:cap(results)]
	for len(results) < len(qs) {
		results = append(results, Result{})
	}
	results = results[:len(qs)]
	var a *batchArena
	for i := 0; i < len(qs); {
		if op := qs[i].Op; op == OpInsert || op == OpDelete {
			e.applyUpdate(qs[i], &results[i])
			i++
			continue
		}
		j := i + 1
		for j < len(qs) && qs[j].Op != OpInsert && qs[j].Op != OpDelete {
			j++
		}
		// Between the runs of one batch the arena is reused iff this
		// goroutine holds the only reference; one with stragglers (a
		// degraded run's abandoned sub-batches, a hedge loser) is left to
		// its last straggler and the next run takes another.
		if a != nil && a.refs.Load() != 1 {
			a.unref(e)
			a = nil
		}
		if a == nil {
			a = e.getArena()
		}
		e.runQueries(a, qs[i:j], results[i:j])
		i = j
	}
	if a != nil {
		a.unref(e)
	}
	return results
}

// applyUpdate executes one update op into r, resetting r in place so a
// reused Result keeps its warmed slice capacity even at batch positions
// that alternate between queries and updates.
func (e *Engine) applyUpdate(q Query, r *Result) {
	r.reset()
	if q.Op == OpInsert {
		r.Err = e.Insert(q.Rec)
		return
	}
	r.Deleted, r.Err = e.Delete(q.Rec)
}

// snapshotSums returns the shard summaries one run (or one explain)
// plans against. A static engine's summaries change only under the
// exclusive migration lock (rebuildStatic's in-place copy), and every
// caller holds the shared side, so the live slice is returned as-is —
// valid for exactly this run, no longer; a mutable engine's keep growing
// in place under sumsMu, so they are deep-copied into buf (reused at
// capacity), a snapshot that stays valid after the lock is released. One
// snapshot serves the whole run: while queries can observe them,
// summaries only grow (shrinks happen under the exclusive lock, between
// runs), so every plan drawn from it is sound for queries of this run
// (see the monotonicity argument in DESIGN.md §6 and the shrink rules in
// §8).
func (e *Engine) snapshotSums(buf []partition.ShardSummary) []partition.ShardSummary {
	if !e.mutable {
		return e.sums
	}
	if cap(buf) < len(e.sums) {
		buf = make([]partition.ShardSummary, len(e.sums))
	}
	buf = buf[:len(e.sums)]
	e.sumsMu.RLock()
	defer e.sumsMu.RUnlock()
	for i := range e.sums {
		e.sums[i].CloneInto(&buf[i])
	}
	return buf
}

// runQueries executes one run of query ops through the engine's one
// pipeline: plan each query (sharing plans across equal operands) and
// group the (query, shard) work shard-major, dispatch each shard's whole
// sub-batch to one persistent replica worker (a lone shard's is answered
// right here instead — see dispatch), await the last shard's finish line
// (or the deadline), loser-tree-merge the per-shard answers into
// results, and record the run. A planned k-NN query takes the dispatch →
// await step twice: its first wave answers the shards nearest the query
// point, and the second every shard the first wave's kth distance cannot
// rule out (cutKNN).
func (e *Engine) runQueries(a *batchArena, qs []Query, results []Result) {
	// Shared against migration for the whole run: the summary snapshot,
	// every shard visit and the merge all observe either none or all of
	// a rebalance move batch, so answers stay byte-identical while
	// records are in flight (DESIGN.md §8). Held shared, so concurrent
	// runs and updates still proceed in parallel.
	e.migMu.RLock()
	defer e.migMu.RUnlock()
	if e.closed.Load() {
		for i := range results {
			results[i].reset()
			results[i].Err = ErrClosed
		}
		return
	}
	// Only instrumented runs read the clock — and deadline runs once,
	// for the start the deadline measures from. A zero stamp is unused.
	m := e.met
	var t0, t1, tw, t2 time.Time
	if m != nil || e.deadlineNs > 0 {
		t0 = time.Now()
	}
	a.beginRun(e, qs, results)
	e.planRun(a)
	if m != nil {
		t1 = time.Now()
	}
	nd, tdisp := e.dispatch(a, 0)
	if m != nil {
		tw = time.Now()
	}
	degraded := e.await(a, 0, nd, t0, tdisp)
	if e.cutKNN(a) {
		nd, tdisp = e.dispatch(a, 1)
		degraded = e.await(a, 1, nd, t0, tdisp) || degraded
	}
	if m != nil {
		t2 = time.Now()
	}
	e.mergeRun(a)
	if m != nil {
		e.recordRun(a, degraded, t0, t1, tw, t2)
	}
}

// planRun is the sequential plan phase: plan every query of the run in
// queue order and lay out every answer slot. Workers index a.parts
// concurrently later, so all of its growth happens here. Ops outside the
// family's capability (probed on shard 0 — capability is constant per
// family, so no lock is needed) and operands with an infinite or NaN
// coordinate error without fanning out to any shard.
func (e *Engine) planRun(a *batchArena) {
	if !e.noPlan {
		// An arena only ever serves one engine, so a static engine's live
		// slice kept here is never mistaken for a mutable engine's buffer.
		a.sums = e.snapshotSums(a.sums)
	}
	e.orderRun(a)
	for _, q := range a.order {
		qi := int(q)
		op := a.qs[qi].Op
		a.res[qi].reset()
		if !e.shards[0].reps[0].idx.Supports(op) {
			a.res[qi].Err = fmt.Errorf("engine: index family: %w %v", index.ErrUnsupported, op)
			a.planOf[qi] = -1
			continue
		}
		if err := index.CheckOperands(&a.qs[qi]); err != nil {
			a.res[qi].Err = err
			a.planOf[qi] = -1
			continue
		}
		pi := a.plan(e, qi)
		a.planOf[qi] = pi
		a.partOff[qi] = int32(a.nparts)
		e.queue(a, 0, qi)
		a.nparts += len(a.plans[pi].Shards)
	}
	for len(a.parts) < a.nparts {
		a.parts = append(a.parts, partial{})
	}
}

// orderRun fixes the run's queue order: arrival order, or on a family
// with a locality key (index.Ordered) ascending key, ties in arrival
// order, so queries that read the same blocks reach each shard back to
// back and meet them in its cache. It is fixed before any dispatch, as a
// hedge and the primary read one job list concurrently.
func (e *Engine) orderRun(a *batchArena) {
	a.order = a.order[:0]
	for qi := range a.qs {
		a.order = append(a.order, int32(qi))
	}
	if e.ordered {
		// The current primary's: a static Rebalance replaces the indexes.
		loc := e.shards[0].reps[0].idx.(index.Ordered)
		slices.SortStableFunc(a.order, func(x, y int32) int {
			return cmp.Compare(loc.Locality(a.qs[x]), loc.Locality(a.qs[y]))
		})
	}
}

// queue adds query qi's share of wave w to the wave's shard job lists —
// the first wave's prefix of its plan (firstWave), or the second wave's
// rest — and reports whether that share was non-empty. Every dispatched
// (query, shard) job, in either wave, feeds the traffic counts here (pure
// atomics), so replication decisions see exactly the load the run routed,
// pruned and cut-off shards excluded.
func (e *Engine) queue(a *batchArena, w, qi int) bool {
	pl := &a.plans[a.planOf[qi]]
	lo, hi := 0, firstWave(pl)
	if w == 1 {
		lo, hi = hi, len(pl.Shards)
	}
	jobs := a.waves[w].jobs
	for j := lo; j < hi; j++ {
		si := pl.Shards[j]
		jobs[si] = append(jobs[si], shardSlot{qi: int32(qi), part: a.partOff[qi] + int32(j)})
		e.traffic.Touch(uint64(si))
		if m := e.met; m != nil {
			m.shardVisits.Inc(si)
		}
	}
	return lo < hi
}

// cutKNN closes the first wave of the run's planned k-NN queries. Each
// plan whose first wave left shards unvisited takes the kth distance of
// its first-wave answers, merged, and keeps the remaining shards whose
// box is not strictly farther than it: no point of a farther box can
// displace a held candidate (box distance lower-bounds every member's
// distance, exactly, even in floats), while a tied point with a smaller
// id could still win the merge's tie-break. With fewer than K candidates,
// or K <= 0, every remaining shard stays. The plan is truncated there,
// the cut shards marked VerdictPrunedKNNCutoff — once per shared plan,
// identically for every query that shares it — and the survivors are
// queued as the second wave. Reports whether it queued anything. The
// answers are byte-identical to full fan-out.
func (e *Engine) cutKNN(a *batchArena) (more bool) {
	for pi := 0; pi < a.nplans; pi++ {
		pl := &a.plans[pi]
		qi, lo := int(a.planRep[pi]), firstWave(pl)
		k := a.qs[qi].K
		if lo == len(pl.Shards) || k <= 0 {
			continue
		}
		// The representative's result is merge scratch here; mergeRun
		// refills it.
		nb := mergeSlots(a, qi, lo, &a.nbRuns, answerNeighbors, a.res[qi].Neighbors[:0], neighborLess, k)
		if a.res[qi].Neighbors = nb; len(nb) < k {
			continue
		}
		end := lo
		for end < len(pl.Shards) && pl.MinDist2[end] <= nb[k-1].Dist2 {
			end++
		}
		for _, si := range pl.Shards[end:] {
			pl.Verdicts[si] = planner.VerdictPrunedKNNCutoff
		}
		pl.Pruned += len(pl.Shards) - end
		pl.Shards, pl.MinDist2 = pl.Shards[:end], pl.MinDist2[:end]
	}
	for _, qi := range a.order {
		if a.planOf[qi] >= 0 && e.queue(a, 1, int(qi)) {
			more = true
		}
	}
	return more
}

// dispatch wakes each shard with work in wave w once, routed to the
// shard's least-loaded routable replica, and returns how many shards it
// woke and the dispatch instant a hedging engine measures its hedge delay
// from (zero otherwise). left is stored before the first send — a worker
// that finishes before the later shards dispatch must not see the count
// hit zero early.
//
// A wave with work for exactly one shard has nothing to overlap, so it
// skips the hand-off: this goroutine does the worker's half — the visit
// under the Options.Workers cap, inflight bracketing it so concurrent
// dispatch sees it, the shard decided for the merge — and no shard is
// woken (nd = 0, await returns at once; no arena reference, no left, no
// token). Only an engine that arms no timer takes that route — a hedge or
// a deadline must be able to walk away from the visit, which takes a
// worker to leave it with.
//
// Every shard with work starts out abandoned. A wave whose run a spent
// deadline has already degraded leaves it so and sends nothing — the
// merge reports those shards missing; otherwise the send or the inline
// visit overwrites the cell before anything reads it.
func (e *Engine) dispatch(a *batchArena, w int) (nd int32, tdisp time.Time) {
	wv := &a.waves[w]
	for si := range wv.jobs {
		if len(wv.jobs[si]) > 0 {
			nd++
			wv.sdone[si].Store(sdAbandoned)
		}
	}
	if a.missed && !e.strict {
		return 0, tdisp
	}
	inline := nd == 1 && !e.hedging && e.deadlineNs == 0
	a.left.Store(nd)
	for si := range wv.jobs {
		if len(wv.jobs[si]) == 0 {
			continue
		}
		rep, ri := e.pickReplica(si)
		if a.capture {
			a.caps[si].replica.Store(int32(ri))
		}
		wv.prim[si] = int32(ri)
		if inline {
			rep.inflight.Add(1)
			e.acquireWorker()
			e.visit(a, si, rep, wv.jobs[si], a.parts)
			e.releaseWorker()
			rep.inflight.Add(-1)
			wv.sdone[si].Store(sdPrimary)
			return 0, tdisp
		}
		wv.sdone[si].Store(sdPending)
		a.send(rep, w, false)
	}
	if e.hedging {
		tdisp = time.Now()
	}
	return nd, tdisp
}

// send hands wave w's sub-batch for rep's shard to rep's worker, which
// holds a reference on the arena until it has finished. inflight is
// bumped before the send so a second run dispatching concurrently sees
// this sub-batch and spreads to another copy.
func (a *batchArena) send(rep *replica, w int, hedge bool) {
	a.refs.Add(1)
	rep.inflight.Add(1)
	rep.work <- workItem{a: a, wave: uint8(w), hedge: hedge}
}

// mergeRun merges every planned query's per-shard answers into its
// result and accounts the plan outcomes.
func (e *Engine) mergeRun(a *batchArena) {
	m := e.met
	for qi := range a.qs {
		op := a.qs[qi].Op
		r := &a.res[qi]
		if r.Err != nil {
			continue
		}
		pl := &a.plans[a.planOf[qi]]
		if m != nil && !e.noPlan {
			// Explain: flush this query's plan verdicts (per shared plan
			// they repeat — each query visited those shards).
			e.explainPlan(a, op, pl)
		}
		e.mergeInto(a, qi, r)
		r.ShardsVisited = len(pl.Shards)
		r.ShardsPruned = pl.Pruned
		e.visited.Add(int64(r.ShardsVisited))
		e.pruned.Add(int64(r.ShardsPruned))
		if m != nil {
			m.visitedWin.Observe(int64(r.ShardsVisited))
		}
	}
}

// recordRun observes one finished run's stage timings (instrumented
// engines only) and, when the run was captured, puts it into the slow
// ring if it tripped an anomaly bound.
func (e *Engine) recordRun(a *batchArena, degraded bool, t0, t1, tw, t2 time.Time) {
	m := e.met
	t3 := time.Now()
	tr := Trace{
		Queries:     len(a.qs),
		Op:          a.qs[0].Op,
		PlansShared: a.plansShared,
		PlanNs:      int64(t1.Sub(t0)),
		ExecNs:      int64(t2.Sub(t1)),
		WaitNs:      int64(t2.Sub(tw)),
		MergeNs:     int64(t3.Sub(t2)),
		TotalNs:     int64(t3.Sub(t0)),
	}
	if degraded {
		m.degradedRuns.Inc()
	}
	m.planNs.Observe(tr.PlanNs)
	m.execNs.Observe(tr.ExecNs)
	m.waitNs.Observe(tr.WaitNs)
	m.mergeNs.Observe(tr.MergeNs)
	m.totalNs.Observe(tr.TotalNs)
	m.totalNsWin.Observe(tr.TotalNs)
	if !a.capture {
		return
	}
	for qi := range a.res {
		tr.ShardsVisited += a.res[qi].ShardsVisited
		tr.ShardsPruned += a.res[qi].ShardsPruned
	}
	// Worst single shard for the I/O bound: the critical-path disk, not
	// the sum.
	var worstIOs int64
	for si := range a.caps {
		d := a.caps[si].io()
		tr.IO = tr.IO.Add(d)
		worstIOs = max(worstIOs, d.IOs())
	}
	var reason SlowReason
	if m.flight.TotalNs > 0 && tr.TotalNs > m.flight.TotalNs {
		reason |= SlowTotalNs
	}
	if m.flight.ShardIOs > 0 && worstIOs > m.flight.ShardIOs {
		reason |= SlowShardIO
	}
	if m.flight.ShardsVisited > 0 && tr.ShardsVisited > m.flight.ShardsVisited {
		reason |= SlowFanout
	}
	// Hedged and degraded runs are anomalous by definition — both are
	// rare by construction (a hedge fires past the p99-ish delay), so
	// the recorder captures every one.
	if a.nhedges > 0 {
		reason |= SlowHedged
	}
	if degraded {
		reason |= SlowDegraded
	}
	if reason != 0 {
		tr.Seq = m.slowSeq.Add(1)
		m.slow.Put(func(s *SlowTrace) {
			s.Trace, s.StartUnixNano, s.Reason = tr, t0.UnixNano(), reason
			s.PerShard = s.PerShard[:0]
			for si := range a.caps {
				s.PerShard = append(s.PerShard, a.caps[si].trace(si))
			}
		})
	}
}

// execReplica is a replica worker's half of a wave: answer the shard's
// sub-batch against this copy, then race for the shard's finish line in
// the wave that dispatched it. A hedge dispatch answers into the shadow
// hparts slots, so the primary and the hedge never share memory; the
// first finisher CASes the finish line and the loser's answers are
// simply never read. Reports whether this finisher won — the worker then
// owes the run one decrement of left (replicaWorker).
func (e *Engine) execReplica(si int, rep *replica, w workItem) (won bool) {
	a, wv := w.a, &w.a.waves[w.wave]
	dst, win := a.parts, sdPrimary
	if w.hedge {
		dst, win = a.hparts, sdHedge
	}
	e.visit(a, si, rep, wv.jobs[si], dst)
	won = wv.sdone[si].CompareAndSwap(sdPending, win)
	if won && w.hedge {
		if m := e.met; m != nil {
			m.hedgeWins.Inc()
		}
	}
	return won
}

// visit is the engine's one shard visit: answer every slot of jobs
// against this copy of shard si into dst under one lock acquisition,
// translating local record indices to global ones in place. The lock
// also upholds the eio single-owner invariant (one request in service
// per "disk"). Captured and breaker-armed runs bracket the visit with
// the replica's own device counters: the delta is exactly this run's
// I/O on this copy (the lock excludes everything else), and the index
// Stats snapshots are plain struct reads, so the capture stays
// allocation-free.
func (e *Engine) visit(a *batchArena, si int, rep *replica, jobs []shardSlot, dst []partial) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	brk := e.brkCfg != nil
	var before eio.Stats
	if a.capture || brk {
		before = rep.idx.Stats().IO
	}
	for _, s := range jobs {
		p := &dst[s.part]
		p.reset()
		if err := rep.idx.QueryInto(a.qs[s.qi], &p.ans); err != nil {
			p.err = err
			continue
		}
		e.toGlobal(si, &p.ans)
	}
	rep.reads.Add(int64(len(jobs)))
	if a.capture || brk {
		d := rep.idx.Stats().IO.Sub(before)
		if a.capture {
			a.caps[si].addIO(d)
		}
		if brk {
			// Injected faults during the visit are this copy's breaker
			// evidence; a clean visit resets it.
			e.replicaOutcome(si, rep, d.Faults > 0)
		}
	}
}

// resetTimer arms t for d, allocating it on first use (arena warm-up);
// the callers maintain the stopped-and-drained invariant between uses.
func resetTimer(t *time.Timer, d time.Duration) *time.Timer {
	if t == nil {
		return time.NewTimer(d)
	}
	t.Reset(d)
	return t
}

// stopDrain stops a timer whose channel this round has NOT received
// from, draining the fire that may have landed between the last select
// and the Stop. Only safe under that not-received condition: a fired
// timer's value sits in the buffered channel until read, so the receive
// below never blocks.
func stopDrain(t *time.Timer) {
	if !t.Stop() {
		<-t.C
	}
}

// await is the wave's one wait: it blocks until every one of the nd
// shards wave w dispatched is decided, on a select over the completion
// token and the hedge and deadline timer channels — which stay nil, and
// so never fire, on an engine with no hedge delay or deadline. The hedge
// timer (measured from the dispatch instant) fires the wave's one hedge
// round; the deadline timer (measured from the run's start, and armed
// until it has fired once in the run) either abandons the still-pending
// shards (Strict=false) or just counts the miss and waits on
// (Strict=true). It returns only after taking the token of a wave a
// worker closed, so no token outlives its wave. Reports whether the wave
// degraded. Timers are per-arena and reused, so the steady state
// allocates nothing.
func (e *Engine) await(a *batchArena, w int, nd int32, t0, tdisp time.Time) bool {
	if nd == 0 {
		return false
	}
	m := e.met
	var hedgeC, dlC <-chan time.Time
	if e.hedging {
		now := time.Now()
		if hns := e.currentHedgeNs(now.UnixNano()); hns > 0 {
			if rem := time.Duration(hns) - now.Sub(tdisp); rem > 0 {
				a.hedgeTimer = resetTimer(a.hedgeTimer, rem)
				hedgeC = a.hedgeTimer.C
			} else {
				e.dispatchHedges(a, w)
			}
		}
	}
	if e.deadlineNs > 0 && !a.missed {
		// Already past the deadline (planning or the first wave ate it
		// all) arms a timer that fires at once.
		a.dlTimer = resetTimer(a.dlTimer, time.Duration(e.deadlineNs)-time.Since(t0))
		dlC = a.dlTimer.C
	}
	degraded, done := false, false
	for !done {
		select {
		case <-a.allDone:
			done = true
		case <-hedgeC:
			// A nil channel never fires, so a spent (or unarmed) timer
			// case simply drops out of the race.
			hedgeC = nil
			e.dispatchHedges(a, w)
		case <-dlC:
			dlC, a.missed = nil, true
			if m != nil {
				m.deadlineMisses.Inc()
			}
			if !e.strict {
				if !e.abandonPending(a, w) {
					// A winning worker closes the run instead: its token
					// is posted or nanoseconds away.
					<-a.allDone
				}
				degraded, done = true, true
			}
		}
	}
	if hedgeC != nil {
		stopDrain(a.hedgeTimer)
	}
	if dlC != nil {
		stopDrain(a.dlTimer)
	}
	return degraded
}

// dispatchHedges issues wave w's single hedge round: every shard still
// pending has its whole sub-batch re-dispatched to the next-best
// replica — never the copy already serving it — and the first answer
// wins, byte-identical either way (replicas hold identical multisets).
// Runs on the waiting goroutine under the run's shared migMu, so the
// replica set is stable and work channels cannot close mid-send.
func (e *Engine) dispatchHedges(a *batchArena, w int) {
	m := e.met
	wv := &a.waves[w]
	for si := range wv.jobs {
		if len(wv.jobs[si]) == 0 || wv.sdone[si].Load() != sdPending {
			continue
		}
		rep, _ := e.pickReplicaNot(si, int(wv.prim[si]))
		if rep == nil {
			continue // unreplicated shard, or breakers rule the rest out
		}
		a.nhedges++
		if m != nil {
			m.hedges.Inc()
		}
		if a.capture {
			a.caps[si].hedged.Store(true)
		}
		// Shadow slots exist only on arenas that have hedged; they are
		// grown here, before the send that lets a worker index them.
		for len(a.hparts) < a.nparts {
			a.hparts = append(a.hparts, partial{})
		}
		a.send(rep, w, true)
	}
}

// abandonPending marks every still-pending shard of wave w abandoned at
// the deadline and reports whether that closed the wave. A lost CAS
// means the shard answered concurrently (its finisher decrements left);
// a won CAS decrements here, so if the count is not zero when the loop
// ends, a winning worker is about to close the wave and the caller takes
// its token. The run returns without waiting for the abandoned
// sub-batches, its stragglers drain in the background, and the primary
// copy that sat on the sub-batch is charged breaker evidence (a deadline
// miss is a fault from the router's point of view).
func (e *Engine) abandonPending(a *batchArena, w int) (closed bool) {
	wv := &a.waves[w]
	for si := range wv.jobs {
		if len(wv.jobs[si]) == 0 {
			continue
		}
		if wv.sdone[si].CompareAndSwap(sdPending, sdAbandoned) {
			closed = a.left.Add(-1) == 0
			e.replicaOutcome(si, e.shards[si].reps[wv.prim[si]], true)
		}
	}
	return closed
}

// currentHedgeNs returns the run's hedge delay in nanoseconds: the
// fixed Options.HedgeAfter, or (HedgeAuto) the cached windowed p99 run
// latency. The cache refreshes at most every hedgeRefreshNs behind a
// CAS, so the hot path pays one atomic load and the occasional loser
// of the refresh race just uses the previous value; zero (auto mode
// before the window holds hedgeMinSamples runs) disables hedging for
// the run.
func (e *Engine) currentHedgeNs(now int64) int64 {
	if e.hedgeFixedNs > 0 {
		return e.hedgeFixedNs
	}
	last := e.hedgeRefreshAt.Load()
	if now >= last && e.hedgeRefreshAt.CompareAndSwap(last, now+hedgeRefreshNs) {
		if p99, n := e.met.totalNsWin.Quantile(0.99); n >= hedgeMinSamples {
			e.hedgeNs.Store(int64(p99))
		}
	}
	return e.hedgeNs.Load()
}

const (
	hedgeRefreshNs  = int64(100 * time.Millisecond)
	hedgeMinSamples = 16
)

// toGlobal maps a shard's local answer indices to build-set indices.
// Local indices are sorted ascending (each index sorts its output), and
// globals[si] is strictly increasing, so the ids stay sorted.
func (e *Engine) toGlobal(si int, ans *index.Answer) {
	if e.globals == nil {
		return
	}
	g := e.globals[si]
	for i := range ans.IDs {
		ans.IDs[i] = g[ans.IDs[i]]
	}
	for i := range ans.Neighbors {
		ans.Neighbors[i].ID = g[ans.Neighbors[i].ID]
	}
}

// slotFor resolves which side of its shard's race holds query qi's
// answer from the ith shard of its plan, in the wave that dispatched it
// (the plan's first-wave prefix, or the second wave's rest): the
// primary's parts slot, the hedge's hparts shadow, or nil when the
// deadline abandoned the shard (the caller records it as missing).
func (a *batchArena) slotFor(qi, i int) *partial {
	pi, off := a.planOf[qi], int(a.partOff[qi])+i
	wv := &a.waves[0]
	if i >= firstWave(&a.plans[pi]) {
		wv = &a.waves[1]
	}
	switch wv.sdone[a.plans[pi].Shards[i]].Load() {
	case sdHedge:
		return &a.hparts[off]
	case sdAbandoned:
		return nil
	}
	return &a.parts[off]
}

// mergeInto combines query qi's per-shard answers (one per shard of its
// plan, each read from whichever replica won its shard's race) into r
// with the loser-tree merge. Any shard error (an unsupported op or a
// rejected operand — every shard runs the same family, so all agree)
// becomes the query's error; a shard abandoned at the deadline marks the
// result Degraded and joins its Missing set instead of merging.
func (e *Engine) mergeInto(a *batchArena, qi int, r *Result) {
	q, pl := a.qs[qi], &a.plans[a.planOf[qi]]
	n := len(pl.Shards)
	for i := 0; i < n; i++ {
		p := a.slotFor(qi, i)
		if p == nil {
			r.Degraded = true
			r.Missing = append(r.Missing, pl.Shards[i])
			continue
		}
		if err := p.err; err != nil {
			r.reset()
			r.Err = err
			return
		}
	}
	switch {
	case q.Op == OpKNN:
		r.Neighbors = mergeSlots(a, qi, n, &a.nbRuns, answerNeighbors, r.Neighbors[:0], neighborLess, q.K)
	case e.mutable:
		r.Recs = mergeSlots(a, qi, n, &a.recRuns, answerRecs, r.Recs[:0], recLess, -1)
	default:
		r.IDs = mergeSlots(a, qi, n, &a.idRuns, answerIDs, r.IDs[:0], intLess, -1)
	}
}

// mergeSlots loser-tree-merges one answer field of the first n shards of
// query qi's plan — those that reported; abandoned ones are skipped —
// into dst, keeping at most limit elements (limit < 0: all). runs is the
// field's reused run table.
func mergeSlots[T any](a *batchArena, qi, n int, runs *[][]T, field func(*index.Answer) []T, dst []T, less func(x, y T) bool, limit int) []T {
	*runs = (*runs)[:0]
	for i := 0; i < n; i++ {
		if p := a.slotFor(qi, i); p != nil {
			*runs = append(*runs, field(&p.ans))
		}
	}
	return loserMerge(dst, *runs, &a.heads, &a.loser, less, limit)
}
