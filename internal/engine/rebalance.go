package engine

// Online resharding (DESIGN.md §8). Inserts route by layout and
// deletes remove in place, but without migration a delete-heavy or
// drifting workload hollows out shards and leaves the grow-only
// summaries covering regions their records have long left — balance
// and pruning both degrade. Rebalance is the repair path: snapshot the
// live records, retrain the layout on them, plan a bounded set of
// record moves (internal/partition's PlanRebalance), apply the moves
// in small batches interleaved with serving, and finally shrink every
// shard summary to its live set.
//
// Atomicity is the whole game: the engine merges per-shard answers, so
// a query that saw a record on neither side of a move (or on both)
// would break the byte-identity invariant. Every move batch therefore
// runs under migMu held exclusively, while query runs, Insert and
// Delete hold it shared for their whole duration — a run observes none
// or all of a batch's moves, never half of one. Between batches the
// lock is free and traffic proceeds; the batch size bounds the pause.
// The summary shrink runs under the same exclusive lock, which is what
// makes shrinking sound: planner snapshots are taken and consumed
// entirely under the shared lock, so no plan computed against a
// pre-shrink summary can outlive the shrink (the grow-only
// monotonicity argument of DESIGN.md §6 covers everything else).

import (
	"errors"
	"fmt"
	"sync"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/index"
	"linconstraint/internal/partition"
)

// ErrNotEnumerable is returned by Rebalance and Retrain when the
// engine's index family cannot enumerate its live records.
var ErrNotEnumerable = errors.New("engine: index family does not enumerate records")

// RebalanceOptions tune one Rebalance call.
type RebalanceOptions struct {
	// MaxMoves bounds how many records one call migrates (0: no
	// bound). Moves beyond the budget are reported as Deferred and
	// picked up by a later call. Ignored by static engines, which
	// migrate by rebuilding shards rather than moving records.
	MaxMoves int
	// BatchSize is how many moves are applied per exclusive lock
	// acquisition (default 64): smaller batches interleave migration
	// more finely with serving, larger ones finish sooner.
	BatchSize int
	// Partitioner, when non-nil, replaces the engine's layout before
	// the re-split: records migrate onto the new layout. This is how an
	// engine built with the cheap round-robin layout upgrades to a
	// locality-aware one online. The instance must be fresh (layouts
	// belong to one engine).
	Partitioner partition.Partitioner
}

// RebalanceStats reports what one Rebalance call did.
type RebalanceStats struct {
	// Planned / Moved / Deferred count the migrations the plan wanted,
	// the ones actually applied (a record deleted concurrently between
	// batches skips its move), and the ones beyond MaxMoves.
	Planned, Moved, Deferred int
	// Before and After are the skew measurements around the call;
	// After reflects the shrunk summaries.
	Before, After partition.SkewStats
	// Rebuilt is set on static engines: migration there rebuilds every
	// shard from the re-split build set in one swap.
	Rebuilt bool
}

// Rebalance migrates records onto a layout retrained on the live data.
//
// On a mutable engine it snapshots every shard's live records,
// retrains the layout with one Split over the snapshot, plans at most
// MaxMoves migrations (draining the most overfull shards first),
// applies them in BatchSize batches — each batch atomic with respect
// to queries and updates, traffic interleaving between batches — and
// then shrinks the shard summaries to the live set, so regions cleared
// by deletes prune again. Answers remain byte-identical to an
// unsharded index throughout (the migration-invariance property test
// pins this under -race).
//
// On a static engine it re-splits the retained build set with the
// current layout and rebuilds every shard in parallel on fresh
// devices, swapping indexes, global-id tables, summaries and counts in
// one exclusive section; per-shard I/O counters restart at the
// rebuild's cost. Concurrent Rebalance/Retrain calls serialize.
func (e *Engine) Rebalance(opt RebalanceOptions) (RebalanceStats, error) {
	e.rebalMu.Lock()
	defer e.rebalMu.Unlock()
	if e.closed.Load() {
		return RebalanceStats{}, ErrClosed
	}
	if opt.BatchSize <= 0 {
		opt.BatchSize = 64
	}
	if opt.Partitioner != nil {
		// Concurrent Inserts read the layout through Place under the
		// shared lock; swap it like any other migration write.
		e.migMu.Lock()
		e.part = opt.Partitioner
		e.migMu.Unlock()
	}
	if !e.mutable {
		return e.rebuildStatic()
	}

	// Phase 1: snapshot the live records shard by shard (per-shard
	// locks only — the snapshot needs no cross-shard atomicity because
	// it is advisory: a record that moves or dies after its shard was
	// enumerated just skips its planned move), then retrain the layout
	// on the snapshot. Only the Split takes the exclusive lock — it
	// mutates partitioner state that concurrent Inserts read through
	// Place — so the serving pause here is the layout training, not the
	// O(n) enumeration.
	var st RebalanceStats
	e.sumsMu.RLock()
	st.Before = partition.MeasureSkew(e.sums)
	e.sumsMu.RUnlock()
	recs, cur, err := e.snapshot()
	if err != nil {
		return st, err
	}
	pts := make([]geom.PointD, len(recs))
	for i, r := range recs {
		pts[i] = recPoint(r)
	}
	e.migMu.Lock()
	want := e.part.Split(pts, len(e.shards))
	e.migMu.Unlock()

	plan := partition.PlanRebalance(cur, want, len(e.shards), opt.MaxMoves)
	st.Planned = len(plan.Moves)
	st.Deferred = plan.Deferred

	// Phase 2 (batched): apply the moves, a bounded batch per
	// exclusive section so queries and updates interleave between
	// batches. Concurrent deletes may have removed a record since the
	// snapshot (or a concurrent delete may remove an equal one — moves
	// are by value, like Engine.Delete); its move just skips.
	moves := plan.Moves
	for len(moves) > 0 {
		batch := moves
		if len(batch) > opt.BatchSize {
			batch = batch[:opt.BatchSize]
		}
		moves = moves[len(batch):]
		applied := 0
		e.migMu.Lock()
		for _, m := range batch {
			moved, err := e.moveLocked(recs[m.Idx], m.Src, m.Dst)
			if err != nil {
				e.migMu.Unlock()
				return st, err
			}
			if moved {
				applied++
			}
		}
		e.migMu.Unlock()
		st.Moved += applied
	}

	// Phase 3 (exclusive): shrink the summaries to the live set.
	e.migMu.Lock()
	err = e.shrinkSummariesLocked()
	e.sumsMu.RLock()
	st.After = partition.MeasureSkew(e.sums)
	e.sumsMu.RUnlock()
	e.migMu.Unlock()
	return st, err
}

// Retrain (re)trains a mutable engine's layout without moving any
// records. With a non-empty sample the layout is trained on it
// directly — the facade's hook for engines built empty, same effect
// as Options.PretrainSample after construction; with a nil sample it
// trains on a snapshot of the live records. Training steers future
// Insert placement and the target assignment of a later Rebalance
// (which itself always retrains on the live set first). Static
// engines return an error: nothing there reads trained layout state
// except Rebalance, which re-splits the build set itself — training
// alone would be silently dead work.
func (e *Engine) Retrain(sample []geom.PointD) error {
	e.rebalMu.Lock()
	defer e.rebalMu.Unlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if !e.mutable {
		return errors.New("engine: Retrain has no effect on a static engine; Rebalance retrains and rebuilds")
	}
	if len(sample) == 0 {
		recs, _, err := e.snapshot()
		if err != nil {
			return err
		}
		sample = make([]geom.PointD, len(recs))
		for i, r := range recs {
			sample[i] = recPoint(r)
		}
		if len(sample) == 0 {
			return errors.New("engine: Retrain: no records to train on")
		}
	}
	// Split mutates layout state that concurrent Inserts read through
	// Place; only this step needs the exclusive lock.
	e.migMu.Lock()
	e.part.Split(sample, len(e.shards))
	e.migMu.Unlock()
	return nil
}

// snapshot enumerates every shard's live records and their current
// shard, under the per-shard locks only — no cross-shard consistency
// is needed because the snapshot is advisory (see Rebalance). Caller
// holds rebalMu, so no migration mutates placements concurrently.
func (e *Engine) snapshot() (recs []index.Record, cur []int, err error) {
	for si, sh := range e.shards {
		// The primary alone suffices: replicas are identical multisets.
		rep := sh.reps[0]
		rep.mu.Lock()
		en, ok := rep.idx.(index.Enumerable)
		if !ok {
			rep.mu.Unlock()
			return nil, nil, fmt.Errorf("%w: shard %d", ErrNotEnumerable, si)
		}
		n := len(recs)
		recs = en.AppendRecords(recs)
		rep.mu.Unlock()
		for range recs[n:] {
			cur = append(cur, si)
		}
	}
	return recs, cur, nil
}

// moveLocked migrates one record from src to dst: remove from every
// source replica, insert into every destination replica, and grow the
// destination's summary — between here and the final shrink, summaries
// stay grow-only so every planned region keeps covering its records. A
// record the source no longer holds is skipped (false, nil). Caller
// holds migMu exclusively.
func (e *Engine) moveLocked(r index.Record, src, dst int) (bool, error) {
	ssh := e.shards[src]
	ssh.lockAll()
	ok, err := ssh.deleteLocked(r)
	ssh.unlockAll()
	if err != nil || !ok {
		return false, err
	}
	e.counts[src].Add(-1)
	dsh := e.shards[dst]
	dsh.lockAll()
	err = dsh.insertLocked(r)
	dsh.unlockAll()
	if err != nil {
		// Put the record back where it came from: losing it would break
		// the engine's central multiset invariant.
		ssh.lockAll()
		rerr := ssh.insertLocked(r)
		ssh.unlockAll()
		if rerr != nil {
			return false, fmt.Errorf("engine: record lost in migration: %v (restore failed: %v)", err, rerr)
		}
		e.counts[src].Add(1)
		return false, err
	}
	e.counts[dst].Add(1)
	pd := recPoint(r)
	e.sumsMu.Lock()
	e.sums[src].Count--
	e.sums[dst].Add(pd)
	e.sumsMu.Unlock()
	return true, nil
}

// shrinkSummariesLocked recomputes every shard summary exactly from
// its live records — the one place summaries shrink. Sound because the
// caller holds migMu exclusively: planner snapshots are taken and
// consumed entirely under the shared lock, so no plan computed against
// a pre-shrink summary survives the shrink, and no insert can race the
// recomputation. Caller holds migMu exclusively.
func (e *Engine) shrinkSummariesLocked() error {
	var buf []index.Record
	for si, sh := range e.shards {
		rep := sh.reps[0]
		rep.mu.Lock()
		en, ok := rep.idx.(index.Enumerable)
		if !ok {
			rep.mu.Unlock()
			return fmt.Errorf("%w: shard %d", ErrNotEnumerable, si)
		}
		buf = en.AppendRecords(buf[:0])
		rep.mu.Unlock()
		var sum partition.ShardSummary
		for _, r := range buf {
			sum.Add(recPoint(r))
		}
		e.counts[si].Store(int64(len(buf)))
		e.sumsMu.Lock()
		e.sums[si] = sum
		e.sumsMu.Unlock()
	}
	return nil
}

// rebuildStatic is the static engines' migration path: re-split the
// retained build set under the current layout (retraining it), rebuild
// every shard in parallel on fresh devices, and swap indexes,
// global-id tables, summaries and live counts in one exclusive
// section. The build runs outside the lock — queries serve against the
// old shards meanwhile — so the exclusive pause is just the swap.
func (e *Engine) rebuildStatic() (RebalanceStats, error) {
	st := RebalanceStats{Rebuilt: true}
	st.Before = partition.MeasureSkew(e.sums)
	// Split is safe outside migMu on a static engine: Place is only
	// read by Insert, which static engines reject.
	want := e.part.Split(e.pd, len(e.shards))
	cur := make([]int, len(e.pd))
	for si, ids := range e.globals {
		for _, g := range ids {
			cur[g] = si
		}
	}
	for i := range cur {
		if cur[i] != want[i] {
			st.Planned++
		}
	}
	if st.Planned == 0 {
		st.After = st.Before
		return st, nil
	}
	globals := groupIDs(want, len(e.shards))
	sums := partition.Summarize(e.pd, want, len(e.shards))
	// Rebuild every physical copy at the shard's current replica degree.
	// Degrees are stable here: every replica-set mutation holds rebalMu,
	// which this call holds too.
	idxs := make([][]index.Index, len(e.shards))
	devs := make([][]*eio.Device, len(e.shards))
	var wg sync.WaitGroup
	for si, sh := range e.shards {
		idxs[si] = make([]index.Index, len(sh.reps))
		devs[si] = make([]*eio.Device, len(sh.reps))
		for ri := range sh.reps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dev := eio.NewDevice(e.opt.BlockSize, e.opt.CacheBlocks)
				dev.SetMissLatency(e.opt.IOLatency)
				idxs[si][ri] = e.builder(si, dev, globals[si])
				devs[si][ri] = dev
			}()
		}
	}
	wg.Wait()
	e.migMu.Lock()
	for si, sh := range e.shards {
		for ri, rep := range sh.reps {
			rep.mu.Lock()
			rep.idx = idxs[si][ri]
			rep.dev = devs[si][ri]
			rep.mu.Unlock()
		}
		e.counts[si].Store(int64(len(globals[si])))
	}
	e.globals = globals
	e.sumsMu.Lock()
	copy(e.sums, sums)
	e.sumsMu.Unlock()
	e.migMu.Unlock()
	st.Moved = st.Planned
	st.After = partition.MeasureSkew(sums)
	return st, nil
}
