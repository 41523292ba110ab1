package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"linconstraint/internal/chan3d"
	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
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
// engine's capability, and the other fields are empty.
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
// plans, per-shard job lists, per-(query, shard) answer slots, merge
// cursors and the k-NN double buffers. Arenas are recycled through the
// engine's free list, and every slice in them is reused at its high-
// water capacity, so a steady-state batch allocates nothing. An arena
// belongs to exactly one Batch call at a time (and, past that call's
// return, to the stragglers it left behind — see refs); the shard
// workers it is dispatched to only touch disjoint parts of it (their
// own jobs list and the slots it names).
type batchArena struct {
	// refs counts who may still touch the arena: the caller that took it
	// off the free list, plus one per sub-batch handed to a replica
	// worker and not yet finished. Whoever drops it to zero — the caller,
	// or the last straggler of a run that returned early — releases the
	// arena to the free list (unref).
	refs atomic.Int32

	// The current run: qs is the arena's private copy of the caller's
	// queries, so a straggler finishing after BatchInto returned never
	// reads the caller's reusable query slice; res is the caller's result
	// storage, touched on the caller's side of the fence only. Both are
	// cleared on release so the free list never pins caller memory.
	qs  []Query
	res []Result

	// Plans, deduplicated per distinct operand: plans[0:nplans] are the
	// distinct plans of the run, planRep[pi] the first query that needed
	// plans[pi] (the representative whose operand later queries are
	// compared against), planOf[qi] the plan of query qi (-1: errored,
	// no plan).
	plans   []planner.Plan
	planRep []int32
	nplans  int
	planOf  []int32

	// sums is the once-per-run snapshot of the shard summaries a mutable
	// engine plans against (unused for static engines, whose summaries
	// are immutable and used in place).
	sums []partition.ShardSummary

	// jobs[si] lists the slots shard si answers this run; parts[0:nparts]
	// are the answer slots, laid out per query at partOff[qi] in plan
	// order (k-NN incremental queries use a single slot as visit
	// scratch). All slots are allocated before any dispatch: workers
	// index a stable slice.
	jobs    [][]shardSlot
	parts   []partial
	nparts  int
	partOff []int32

	// knn lists the queries of the run that take the incremental
	// shard-sequential k-NN path (planned OpKNN); they run on the
	// caller's goroutine while the shard workers chew the fan-out jobs.
	knn []int32

	// Merge scratch: loser-tree cursors and the per-query run tables
	// (used by the caller goroutine's merge phase only).
	heads, loser []int32
	idRuns       [][]int
	recRuns      [][]Record
	nbRuns       [][]chan3d.Neighbor

	// knnBufs[i] is the private scratch of the run's i-th incremental
	// k-NN query, so multiple k-NN queries of one run can execute
	// concurrently.
	knnBufs []knnScratch

	// Run capture (metrics.go, flight.go). capture is set when the run
	// was picked by the trace sampler (sampled) or the flight recorder is
	// armed — whether a run was anomalous is only known once it has
	// finished: every shard visit then accumulates its device-counter
	// delta, replica routing and verdict counts into caps (one
	// preallocated atomic cell block per shard; shard workers and the
	// k-NN goroutines write their own shard's cells concurrently). The
	// one capture feeds both rings. plansShared counts operand-dedup hits
	// for the run (caller goroutine only).
	capture, sampled bool
	plansShared      int
	caps             []shardCapture

	// The await machinery. Each shard's sub-batch is a race with one
	// finish line: the primary dispatch answers into parts, a hedge
	// re-dispatch into the shadow hparts (grown when a hedge is first
	// sent), and sdone[si] is the per-shard finish line (sd* states) the
	// first finisher CASes — the merge reads whichever side won, so losers
	// scribble into slots nobody looks at. prim[si] is the replica the
	// primary dispatch went to. left counts the shards whose decider has
	// not reported yet (a winning worker reports after it has let go of
	// the arena, the waiter when it abandons); exactly one report zeroes
	// it, and when that is a worker's it posts the run's one token on
	// allDone, which the run's await always takes before it returns — so
	// the channel is empty between runs. kwg joins
	// the run's k-NN goroutines — those run on the caller's side of the
	// fence and are never abandoned. The timers are armed only for runs
	// with a hedge delay or a deadline, and are stopped and drained
	// between uses.
	hparts     []partial
	sdone      []atomic.Int32
	prim       []int32
	left       atomic.Int32
	allDone    chan struct{}
	kwg        sync.WaitGroup
	nhedges    int
	hedgeTimer *time.Timer
	dlTimer    *time.Timer
}

// sdone states: the per-shard winner race of a run. sdIdle, the zero
// value, is a shard this arena has never dispatched. Only shards the run
// gave work are ever read, and dispatch stores sdPending (or, on the
// inline route, the decided sdPrimary) first, so the cells carry over
// between runs unreset.
const (
	sdIdle int32 = iota
	sdPending
	sdPrimary
	sdHedge
	sdAbandoned
)

// knnScratch is one incremental k-NN query's private buffers: the
// double-buffered accumulated candidate list and its merge cursors.
type knnScratch struct {
	cur, spare   []chan3d.Neighbor
	heads, loser []int32
}

// beginRun prepares the arena for one run of queries. The caller holds
// the only reference, so no worker of an earlier run is still inside.
func (a *batchArena) beginRun(e *Engine, qs []Query, res []Result) {
	a.qs, a.res = append(a.qs[:0], qs...), res
	if a.allDone == nil {
		a.allDone = make(chan struct{}, 1)
		a.sdone = make([]atomic.Int32, len(e.shards))
		a.prim = make([]int32, len(e.shards))
		a.jobs = make([][]shardSlot, len(e.shards))
	}
	a.nhedges = 0
	a.nplans = 0
	a.nparts = 0
	a.plansShared = 0
	a.knn = a.knn[:0]
	a.planOf = resetInt32(a.planOf, len(qs))
	a.partOff = resetInt32(a.partOff, len(qs))
	for si := range a.jobs {
		a.jobs[si] = a.jobs[si][:0]
	}
	// A nil sampler admits nothing, so sampled is false whenever tracing
	// is off.
	m := e.met
	a.sampled = m != nil && m.sampler.Hit()
	a.capture = a.sampled || (m != nil && m.slow != nil)
	if a.capture {
		if a.caps == nil {
			a.caps = make([]shardCapture, len(e.shards))
		}
		for i := range a.caps {
			a.caps[i].reset()
		}
	}
}

// unref drops one reference; the holder of the last one clears the
// arena's references to caller memory (the query copies hold
// caller-owned operand slices) and returns it to the engine's free
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
	if e.closed.Load() {
		panic("engine: BatchInto after Close")
	}
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

// snapshotSumsInto refreshes the arena's summary snapshot for one run.
// A static engine's summaries change only under the exclusive
// migration lock (rebuildStatic's in-place copy), and every run holds
// the shared side, so the live slice is aliased as-is — valid for
// exactly this run, no longer; a mutable engine's keep growing in
// place under sumsMu, so the arena gets a deep copy (into reused
// buffers) that stays valid after the lock is released. One snapshot
// serves the whole run: while queries can observe them, summaries only
// grow (shrinks happen under the exclusive lock, between runs), so
// every plan drawn from it is sound for queries of this run (see the
// monotonicity argument in DESIGN.md §6 and the shrink rules in §8).
func (e *Engine) snapshotSumsInto(a *batchArena) {
	if !e.mutable {
		// Safe to alias under the run's shared migMu: writes are
		// excluded, and an arena only ever serves one engine, so the
		// slice can never be mistaken for a mutable engine's copy
		// buffer.
		a.sums = e.sums
		return
	}
	if cap(a.sums) < len(e.sums) {
		a.sums = make([]partition.ShardSummary, len(e.sums))
	}
	a.sums = a.sums[:len(e.sums)]
	e.sumsMu.RLock()
	defer e.sumsMu.RUnlock()
	for i := range e.sums {
		e.sums[i].CloneInto(&a.sums[i])
	}
}

// runQueries executes one run of query ops through the engine's one
// pipeline: plan each query (sharing plans across equal operands) and
// group the (query, shard) work shard-major, dispatch each shard's whole
// sub-batch to one persistent replica worker (a lone shard's is answered
// right here instead — see dispatch), run the incremental k-NN queries
// on this side of the fence meanwhile, await the last shard's
// finish line (or the deadline), loser-tree-merge the per-shard answers
// into results, and record the run.
func (e *Engine) runQueries(a *batchArena, qs []Query, results []Result) {
	// Shared against migration for the whole run: the summary snapshot,
	// every shard visit and the merge all observe either none or all of
	// a rebalance move batch, so answers stay byte-identical while
	// records are in flight (DESIGN.md §8). Held shared, so concurrent
	// runs and updates still proceed in parallel.
	e.migMu.RLock()
	defer e.migMu.RUnlock()
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
	nd, tdisp := e.dispatch(a)
	e.runKNN(a)
	if m != nil {
		tw = time.Now()
	}
	// The k-NN goroutines run on the caller's side of the deadline fence
	// — incremental visits from this goroutine's plan, never abandoned —
	// so they are always joined first.
	a.kwg.Wait()
	degraded := e.await(a, nd, t0, tdisp)
	if m != nil {
		t2 = time.Now()
	}
	e.mergeRun(a)
	if m != nil {
		e.recordRun(a, degraded, t0, t1, tw, t2)
	}
}

// planRun is the sequential plan phase: plan every query of the run and
// lay out every answer slot. Workers index a.parts concurrently later,
// so all of its growth happens here. Ops outside the family's capability
// (probed on shard 0 — capability is constant per family, so no lock is
// needed) error without fanning out to any shard.
func (e *Engine) planRun(a *batchArena) {
	m := e.met
	if !e.noPlan {
		e.snapshotSumsInto(a)
	}
	for qi := range a.qs {
		op := a.qs[qi].Op
		a.res[qi].reset()
		if m != nil {
			m.ops.Inc(planner.OpIndex(op))
		}
		if !e.shards[0].reps[0].idx.Supports(op) {
			a.res[qi].Err = fmt.Errorf("engine: index family: %w %v", index.ErrUnsupported, op)
			a.planOf[qi] = -1
			continue
		}
		pi := a.plan(e, qi)
		a.planOf[qi] = pi
		a.partOff[qi] = int32(a.nparts)
		if m != nil && !e.noPlan {
			// Explain: flush this query's plan verdicts (per shared plan
			// they repeat — each query visited those shards).
			e.explainPlan(a, op, &a.plans[pi])
		}
		if op == OpKNN && !e.noPlan {
			// One scratch slot for the shard-sequential visits.
			a.knn = append(a.knn, int32(qi))
			a.nparts++
			continue
		}
		pl := &a.plans[pi]
		for j, si := range pl.Shards {
			a.jobs[si] = append(a.jobs[si], shardSlot{qi: int32(qi), part: a.partOff[qi] + int32(j)})
			// Every planned visit feeds the traffic sketch (pure
			// atomics), so replication decisions see exactly the load the
			// planner routed, pruned shards excluded.
			e.traffic.Touch(uint64(si))
			if m != nil {
				m.shardVisits.Inc(si)
			}
		}
		a.nparts += len(pl.Shards)
	}
	for len(a.parts) < a.nparts {
		a.parts = append(a.parts, partial{})
	}
}

// dispatch wakes each shard with work once, routed to the shard's
// least-loaded routable replica, and returns how many shards it woke
// and the dispatch instant a hedging engine measures its hedge delay
// from (zero otherwise). left is stored before the first send — a worker
// that finishes before the later shards dispatch must not see the count
// hit zero early.
//
// A run with work for exactly one shard has nothing to overlap, so it
// skips the hand-off: runInline answers it on this goroutine and no
// shard is woken (nd = 0, await returns at once). Only an engine that
// arms no timer takes that route — a hedge or a deadline must be able to
// walk away from the visit, which takes a worker to leave it with.
func (e *Engine) dispatch(a *batchArena) (nd int32, tdisp time.Time) {
	only := -1
	for si := range a.jobs {
		if len(a.jobs[si]) > 0 {
			nd++
			only = si
		}
	}
	if nd == 1 && !e.hedging && e.deadlineNs == 0 {
		e.runInline(a, only)
		return 0, tdisp
	}
	a.left.Store(nd)
	for si := range a.jobs {
		if len(a.jobs[si]) == 0 {
			continue
		}
		rep, ri := e.pickReplica(si)
		if a.capture {
			a.caps[si].replica.Store(int32(ri))
		}
		a.sdone[si].Store(sdPending)
		a.prim[si] = int32(ri)
		a.send(rep, false)
	}
	if e.hedging {
		tdisp = time.Now()
	}
	return nd, tdisp
}

// runInline is a replica worker's half of a run done by the caller:
// pick the copy, answer shard si's whole sub-batch into parts under the
// Options.Workers cap, and mark the shard decided for the merge. The run
// holds migMu shared, so the replica set is stable; inflight brackets the
// visit so concurrent dispatch sees it. No arena reference, no left, no
// token — there is no second goroutine to hand anything to.
func (e *Engine) runInline(a *batchArena, si int) {
	rep, ri := e.pickReplica(si)
	if a.capture {
		a.caps[si].replica.Store(int32(ri))
	}
	a.prim[si] = int32(ri)
	rep.inflight.Add(1)
	e.acquireWorker()
	e.visit(a, si, rep, a.jobs[si], a.parts)
	e.releaseWorker()
	rep.inflight.Add(-1)
	a.sdone[si].Store(sdPrimary)
}

// send hands the run's sub-batch for rep's shard to rep's worker, which
// holds a reference on the arena until it has finished. inflight is
// bumped before the send so a second run dispatching concurrently sees
// this sub-batch and spreads to another copy.
func (a *batchArena) send(rep *replica, hedge bool) {
	a.refs.Add(1)
	rep.inflight.Add(1)
	rep.work <- workItem{a: a, hedge: hedge}
}

// runKNN starts the run's incremental k-NN queries, overlapping the
// workers. A lone k-NN query runs inline on this goroutine (the scalar
// path, kept allocation-free); several spawn one goroutine each (joined
// through kwg) so the queries of the run overlap, as the shard-fanned
// ops do — each has private knnScratch, its own answer slot, and its own
// result, so they share nothing but the shard locks.
func (e *Engine) runKNN(a *batchArena) {
	for len(a.knnBufs) < len(a.knn) {
		a.knnBufs = append(a.knnBufs, knnScratch{})
	}
	if len(a.knn) == 1 {
		e.runKNNPlanned(a, int(a.knn[0]), &a.knnBufs[0])
		return
	}
	for ki, qi := range a.knn {
		a.kwg.Add(1)
		go func(qi, ki int) {
			defer a.kwg.Done()
			e.runKNNPlanned(a, qi, &a.knnBufs[ki])
		}(int(qi), ki)
	}
}

// mergeRun merges every fanned-out query's per-shard answers into its
// result and accounts the plan outcomes (the k-NN incremental path did
// both for its queries already).
func (e *Engine) mergeRun(a *batchArena) {
	m := e.met
	for qi := range a.qs {
		op := a.qs[qi].Op
		r := &a.res[qi]
		if r.Err != nil || (op == OpKNN && !e.noPlan) {
			continue
		}
		pl := &a.plans[a.planOf[qi]]
		e.mergeInto(a, a.qs[qi], pl, int(a.partOff[qi]), r)
		r.ShardsVisited = len(pl.Shards)
		r.ShardsPruned = pl.Pruned
		e.visited.Add(int64(r.ShardsVisited))
		e.pruned.Add(int64(r.ShardsPruned))
		if m != nil {
			k := planner.OpIndex(op)
			m.planVisited.AddAt(k, int64(r.ShardsVisited))
			m.planPruned.AddAt(k, int64(r.ShardsPruned))
			m.visitedWin.Observe(int64(r.ShardsVisited))
		}
	}
}

// recordRun observes one finished run's stage timings (instrumented
// engines only) and, when the run was captured, offers it to the two
// rings: a sampled run goes to the trace ring, and any run of a
// flight-armed engine that tripped an anomaly bound goes to the slow
// ring — one per-shard capture feeds both, and because the rings stay
// separate, sampled traffic never evicts the rare slow runs.
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
	m.runs.Inc()
	if degraded {
		m.degradedRuns.Inc()
	}
	m.planNs.Observe(tr.PlanNs)
	m.execNs.Observe(tr.ExecNs)
	m.waitNs.Observe(tr.WaitNs)
	m.mergeNs.Observe(tr.MergeNs)
	m.totalNs.Observe(tr.TotalNs)
	m.totalNsWin.Observe(tr.TotalNs)
	if a.plansShared > 0 {
		m.plansShared.Add(int64(a.plansShared))
	}
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
	if a.sampled {
		tr.Seq = m.seq.Add(1)
		m.traces.Put(tr)
	}
	if m.slow == nil {
		return
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
		m.slowTotal.Inc()
		m.slow.put(tr, t0.UnixNano(), reason, a.caps)
	}
}

// execReplica is a replica worker's half of a run: answer the shard's
// sub-batch against this copy, then race for the shard's finish line. A
// hedge dispatch answers into the shadow hparts slots, so the primary
// and the hedge never share memory; the first finisher CASes the finish
// line and the loser's answers are simply never read. Reports whether
// this finisher won — the worker then owes the run one decrement of
// left (replicaWorker).
func (e *Engine) execReplica(a *batchArena, si int, rep *replica, hedge bool) (won bool) {
	dst, win := a.parts, sdPrimary
	if hedge {
		dst, win = a.hparts, sdHedge
	}
	e.visit(a, si, rep, a.jobs[si], dst)
	won = a.sdone[si].CompareAndSwap(sdPending, win)
	if won && hedge {
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

// await is the run's one wait: it blocks until every one of the nd
// dispatched shards is decided, on a select over the completion token
// and the hedge and deadline timer channels — which stay nil, and so
// never fire, on an engine with no hedge delay or deadline. The hedge
// timer (measured from the dispatch instant) fires the run's one hedge
// round; the deadline timer (measured from the run's start) either
// abandons the still-pending shards (Strict=false) or just counts the
// miss and waits on (Strict=true). It returns only after taking the
// token of a run a worker closed, so no token outlives its run. Reports
// whether the run degraded. Timers are per-arena and reused, so the
// steady state allocates nothing.
func (e *Engine) await(a *batchArena, nd int32, t0, tdisp time.Time) bool {
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
				e.dispatchHedges(a)
			}
		}
	}
	if e.deadlineNs > 0 {
		// Already past the deadline (planning or k-NN ate it all) arms a
		// timer that fires at once.
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
			e.dispatchHedges(a)
		case <-dlC:
			dlC = nil
			if m != nil {
				m.deadlineMisses.Inc()
			}
			if !e.strict {
				if !e.abandonPending(a) {
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

// dispatchHedges issues the run's single hedge round: every shard still
// pending has its whole sub-batch re-dispatched to the next-best
// replica — never the copy already serving it — and the first answer
// wins, byte-identical either way (replicas hold identical multisets).
// Runs on the waiting goroutine under the run's shared migMu, so the
// replica set is stable and work channels cannot close mid-send.
func (e *Engine) dispatchHedges(a *batchArena) {
	m := e.met
	for si := range a.jobs {
		if len(a.jobs[si]) == 0 || a.sdone[si].Load() != sdPending {
			continue
		}
		rep, _ := e.pickReplicaNot(si, int(a.prim[si]))
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
		a.send(rep, true)
	}
}

// abandonPending marks every still-pending shard abandoned at the
// deadline and reports whether that closed the run. A lost CAS means the
// shard answered concurrently (its finisher decrements left); a won CAS
// decrements here, so if the count is not zero when the loop ends, a
// winning worker is about to close the run and the caller takes its
// token. The run
// returns without waiting for the abandoned sub-batches, its stragglers
// drain in the background, and the primary copy that sat on the
// sub-batch is charged breaker evidence (a deadline miss is a fault from
// the router's point of view).
func (e *Engine) abandonPending(a *batchArena) (closed bool) {
	for si := range a.jobs {
		if len(a.jobs[si]) == 0 {
			continue
		}
		if a.sdone[si].CompareAndSwap(sdPending, sdAbandoned) {
			closed = a.left.Add(-1) == 0
			e.replicaOutcome(si, e.shards[si].reps[a.prim[si]], true)
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

// runLocalInto answers query qi on shard si into arena slot part from
// the caller's goroutine: a one-slot sub-batch through the same visit
// the replica workers run (the k-NN incremental path's visits interleave
// with them under the same mutexes). inflight brackets the call so
// concurrent dispatch sees this visit too.
func (e *Engine) runLocalInto(a *batchArena, si int, qi, part int32) {
	rep, ri := e.pickReplica(si)
	if a.capture {
		a.caps[si].replica.Store(int32(ri))
	}
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	job := [1]shardSlot{{qi: qi, part: part}}
	e.visit(a, si, rep, job[:], a.parts)
}

// runKNNPlanned answers one k-NN query incrementally: shards are
// visited in increasing distance from the query point to their boxes,
// and once k candidates are in hand a shard whose box is strictly
// farther than the current kth distance is skipped — no point of it
// can displace a held candidate (box distance lower-bounds every
// member's distance, exactly, even in floats; ties must still be
// visited because a tied point with a smaller global id would win the
// merge's tie-break). The result is byte-identical to full fan-out.
func (e *Engine) runKNNPlanned(a *batchArena, qi int, ks *knnScratch) {
	q := a.qs[qi]
	r := &a.res[qi]
	pl := &a.plans[a.planOf[qi]]
	p := &a.parts[a.partOff[qi]] // this query's visit scratch
	cur, spare := ks.cur[:0], ks.spare[:0]
	visited := 0
	var runs [2][]chan3d.Neighbor
	for i, si := range pl.Shards {
		if q.K > 0 && len(cur) >= q.K && pl.MinDist2[i] > cur[q.K-1].Dist2 {
			break
		}
		e.runLocalInto(a, si, int32(qi), a.partOff[qi])
		if p.err != nil {
			r.Err = p.err
			break
		}
		e.traffic.Touch(uint64(si))
		if m := e.met; m != nil {
			m.shardVisits.Inc(si)
		}
		runs[0], runs[1] = cur, p.ans.Neighbors
		next := loserMerge(spare[:0], runs[:], &ks.heads, &ks.loser, neighborLess, q.K)
		cur, spare = next, cur
		visited++
	}
	ks.cur, ks.spare = cur, spare
	if r.Err != nil {
		return
	}
	r.Neighbors = append(r.Neighbors[:0], cur...)
	r.ShardsVisited = visited
	r.ShardsPruned = len(e.shards) - visited
	e.visited.Add(int64(visited))
	e.pruned.Add(int64(r.ShardsPruned))
	if m := e.met; m != nil {
		k := planner.OpIndex(q.Op)
		m.planVisited.AddAt(k, int64(visited))
		m.planPruned.AddAt(k, int64(r.ShardsPruned))
		m.visitedWin.Observe(int64(visited))
		// Explain: the plan's k-NN "visited" list was provisional —
		// attribute the runtime decision (visited vs kth-distance
		// cutoff) per candidate shard. explainPlan already flushed the
		// plan-time prunes (empty shards).
		if visited > 0 {
			m.planVerdicts.Add(k, int(planner.VerdictVisited), int64(visited))
		}
		if cut := len(pl.Shards) - visited; cut > 0 {
			m.planVerdicts.Add(k, int(planner.VerdictPrunedKNNCutoff), int64(cut))
		}
	}
	if a.capture {
		for i, si := range pl.Shards {
			v := planner.VerdictVisited
			if i >= visited {
				v = planner.VerdictPrunedKNNCutoff
			}
			a.caps[si].verdicts[v].Add(1)
		}
	}
}

// slotFor resolves which side of the shard's race holds shard
// pl.Shards[i]'s answer for the query at slot offset off: the primary's
// parts slot, the hedge's hparts shadow, or nil when the deadline
// abandoned the shard (the caller records it as missing).
func (a *batchArena) slotFor(pl *planner.Plan, off, i int) *partial {
	switch a.sdone[pl.Shards[i]].Load() {
	case sdHedge:
		return &a.hparts[off+i]
	case sdAbandoned:
		return nil
	}
	return &a.parts[off+i]
}

// mergeInto combines one query's per-shard answers (the slots at
// off...off+len(pl.Shards), each read from whichever replica won its
// shard's race) into r with the loser-tree merge. Any shard error (an
// unsupported op — every shard runs the same family, so all agree)
// becomes the query's error; a shard abandoned at the deadline marks
// the result Degraded and joins its Missing set instead of merging.
func (e *Engine) mergeInto(a *batchArena, q Query, pl *planner.Plan, off int, r *Result) {
	n := len(pl.Shards)
	for i := 0; i < n; i++ {
		p := a.slotFor(pl, off, i)
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
		a.nbRuns = a.nbRuns[:0]
		for i := 0; i < n; i++ {
			if p := a.slotFor(pl, off, i); p != nil {
				a.nbRuns = append(a.nbRuns, p.ans.Neighbors)
			}
		}
		r.Neighbors = loserMerge(r.Neighbors[:0], a.nbRuns, &a.heads, &a.loser, neighborLess, q.K)
	case e.mutable:
		a.recRuns = a.recRuns[:0]
		for i := 0; i < n; i++ {
			if p := a.slotFor(pl, off, i); p != nil {
				a.recRuns = append(a.recRuns, p.ans.Recs)
			}
		}
		r.Recs = loserMerge(r.Recs[:0], a.recRuns, &a.heads, &a.loser, recLess, -1)
	default:
		a.idRuns = a.idRuns[:0]
		for i := 0; i < n; i++ {
			if p := a.slotFor(pl, off, i); p != nil {
				a.idRuns = append(a.idRuns, p.ans.IDs)
			}
		}
		r.IDs = loserMerge(r.IDs[:0], a.idRuns, &a.heads, &a.loser, intLess, -1)
	}
}

// --- scalar conveniences (each is a one-op batch) --------------------------
//
// Unlike Batch, which reports an op/capability mismatch as Result.Err,
// the scalar helpers treat calling the wrong family on an engine as a
// programming error and panic. That includes the id-vs-record answer
// shape: the static families answer with ids, the mutable ones with
// records, and asking a family for the shape it does not produce would
// otherwise return a plausible-looking empty answer.

func (e *Engine) wantStatic(method, recsMethod string) {
	if e.mutable {
		panic("engine: " + method + " returns record ids, but a mutable engine answers with records; use " + recsMethod)
	}
}

func (e *Engine) wantMutable(method, idsMethod string) {
	if !e.mutable {
		panic("engine: " + method + " returns records, but a static engine answers with record ids; use " + idsMethod)
	}
}

// Halfplane reports the global indices of points with y <= a·x + b.
func (e *Engine) Halfplane(a, b float64) []int {
	e.wantStatic("Halfplane", "HalfplaneRecs")
	return e.one(Query{Op: OpHalfplane, A: a, B: b}).IDs
}

// HalfplaneRecs reports the live records with y <= a·x + b of a
// mutable planar engine, in canonical order.
func (e *Engine) HalfplaneRecs(a, b float64) []Record {
	e.wantMutable("HalfplaneRecs", "Halfplane")
	return e.one(Query{Op: OpHalfplane, A: a, B: b}).Recs
}

// Halfspace3 reports the global indices of points with z <= a·x + b·y + c.
func (e *Engine) Halfspace3(a, b, c float64) []int {
	return e.one(Query{Op: OpHalfspace3, A: a, B: b, C: c}).IDs
}

// HalfspaceD reports the global indices of points with x_d <= coef·(x,1).
func (e *Engine) HalfspaceD(coef []float64) []int {
	e.wantStatic("HalfspaceD", "HalfspaceDRecs")
	return e.one(Query{Op: OpHalfspaceD, Coef: coef}).IDs
}

// HalfspaceDRecs reports the live records with x_d <= coef·(x,1) of a
// mutable partition engine, in canonical order.
func (e *Engine) HalfspaceDRecs(coef []float64) []Record {
	e.wantMutable("HalfspaceDRecs", "HalfspaceD")
	return e.one(Query{Op: OpHalfspaceD, Coef: coef}).Recs
}

// Conjunction reports the global indices of points satisfying every
// constraint.
func (e *Engine) Conjunction(cs []Constraint) []int {
	e.wantStatic("Conjunction", "ConjunctionRecs")
	return e.one(Query{Op: OpConjunction, Constraints: cs}).IDs
}

// ConjunctionRecs reports the live records satisfying every constraint
// of a mutable partition engine, in canonical order.
func (e *Engine) ConjunctionRecs(cs []Constraint) []Record {
	e.wantMutable("ConjunctionRecs", "Conjunction")
	return e.one(Query{Op: OpConjunction, Constraints: cs}).Recs
}

// KNN reports the k nearest indexed points to q, closest first, with
// global ids.
func (e *Engine) KNN(k int, q geom.Point2) []chan3d.Neighbor {
	return e.one(Query{Op: OpKNN, K: k, Pt: q}).Neighbors
}

func (e *Engine) one(q Query) Result {
	r := e.Batch([]Query{q})[0]
	if r.Err != nil {
		panic(r.Err)
	}
	return r
}
