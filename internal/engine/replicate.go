package engine

// Hot-shard replication (DESIGN.md §10). A skewed workload — most
// queries planning into one shard — serializes on that shard's single
// device while the others idle, so the engine's latency-hiding headroom
// goes unused. Replication is the repair path: clone the hot shard's
// index onto fresh private devices, let the read path spread visits
// across the copies (least in-flight first), and fan every update out
// to all copies so they remain identical multisets. Answers stay
// byte-identical — a replica is indistinguishable from its primary —
// and the per-shard visit counts (traffic.go) recorded on every planned
// visit tell AutoReplicate which shards deserve the copies.
//
// Ownership and locking: a shard's replica slice mutates only under
// migMu held exclusively (plus rebalMu, which serializes whole
// Replicate/Drop/AutoReplicate/Rebalance calls against each other), so
// every reader — query runs, updates, Stats — sees a stable set for its
// whole shared-lock section. Each clone gets its own eio.Device (the
// single-owner invariant extends per copy) and its own persistent
// worker; dropping a replica truncates the set under the exclusive
// lock, then closes the orphan's channel and waits for its worker to
// drain outside it.

import (
	"fmt"

	"linconstraint/internal/eio"
	"linconstraint/internal/index"
)

// Replicate sets shard si's replica degree to n (n >= 1: the primary
// is never dropped), cloning the index onto fresh devices to grow
// (cloneShard) or dropping the highest-numbered copies to shrink.
// Serialized against Rebalance, Retrain, Drop, Repair and AutoReplicate;
// answers are unchanged throughout. A closed engine returns ErrClosed.
func (e *Engine) Replicate(si, n int) error {
	e.rebalMu.Lock()
	defer e.rebalMu.Unlock()
	if e.closed.Load() {
		return ErrClosed
	}
	return e.setDegreeLocked(si, n)
}

// Drop demotes shard si back to a single copy (its primary). It is
// Replicate(si, 1).
func (e *Engine) Drop(si int) error { return e.Replicate(si, 1) }

// Replicas returns the per-shard replica degrees (1 = unreplicated).
func (e *Engine) Replicas() []int {
	e.migMu.RLock()
	defer e.migMu.RUnlock()
	out := make([]int, len(e.shards))
	for si, sh := range e.shards {
		out[si] = len(sh.reps)
	}
	return out
}

// ShardTraffic returns shard si's recent planned visits (exact, halved
// every 2048·S visits), or 0 for a shard out of range.
func (e *Engine) ShardTraffic(si int) uint64 {
	return e.traffic.Estimate(si)
}

// HotShards appends every shard with recent visits to dst, hottest
// first (ties to the lower shard id), and returns it. Pass a reused
// dst[:0] to keep polling allocation-free.
func (e *Engine) HotShards(dst []HotShard) []HotShard {
	return e.traffic.TopInto(dst)
}

// setDegreeLocked grows or shrinks shard si's replica set to n. Caller
// holds rebalMu (so degrees, globals and the builder inputs are
// stable) and has found the engine open under it, so Close waits for
// the change and then closes the new workers with the rest; this
// function takes migMu exclusively for every replica-set mutation.
func (e *Engine) setDegreeLocked(si, n int) error {
	if si < 0 || si >= len(e.shards) {
		return fmt.Errorf("engine: Replicate: shard %d out of range [0,%d)", si, len(e.shards))
	}
	if n < 1 {
		return fmt.Errorf("engine: Replicate: degree %d < 1 (the primary is never dropped)", n)
	}
	sh := e.shards[si]
	cur := len(sh.reps)
	switch {
	case n == cur:
		return nil
	case n < cur:
		e.dropLocked(sh, n)
		return nil
	}
	return e.cloneShard(si, n-cur, func(fresh []*replica) {
		sh.reps = append(sh.reps, fresh...)
	})
}

// dropLocked truncates sh's replica set to n copies under the exclusive
// migration lock, then retires the orphans outside it: the exclusive
// acquisition waits out every in-flight run (runs hold the shared side
// through their last worker), so each orphan's channel is empty and its
// worker idle; no later run can reach them through the truncated slice.
func (e *Engine) dropLocked(sh *shard, n int) {
	e.migMu.Lock()
	dropped := append([]*replica(nil), sh.reps[n:]...)
	sh.reps = sh.reps[:n]
	e.migMu.Unlock()
	for _, rep := range dropped {
		close(rep.work)
		<-rep.stopped
	}
}

// cloneShard is the one way a shard gains a copy (Replicate grows with
// it, Repair replaces with it): build n fresh replicas of shard si's
// primary on devices with the primary's geometry, start their workers,
// and hand them to attach inside an exclusive migration section, so no
// run ever sees a half-updated replica set. Caller holds rebalMu (so
// degrees, globals and the builder inputs are stable).
//
// A static shard is rebuilt from the retained build set (builder + the
// shard's global-id list) outside every lock — queries keep flowing —
// and only the attach is exclusive. A mutable shard is copied under the
// exclusive lock for the whole build: enumerate the primary's exact
// live multiset and replay it into empty indexes minted by the retained
// per-shard constructor — an update that slipped between the
// enumeration and the attach would be missing from the copy forever.
// That pause is proportional to the shard's size, like a rebalance move
// batch covering the whole shard. On error nothing was attached or
// started. Like setDegreeLocked's, its caller has found the engine open
// under rebalMu.
func (e *Engine) cloneShard(si, n int, attach func(fresh []*replica)) error {
	prim := e.shards[si].reps[0]
	fresh := make([]*replica, 0, n)
	if !e.mutable {
		for len(fresh) < n {
			dev := eio.NewDeviceLike(prim.dev)
			fresh = append(fresh, newReplica(e.builder(si, dev, e.globals[si]), dev))
		}
	}
	e.migMu.Lock()
	defer e.migMu.Unlock()
	if e.mutable {
		en, ok := prim.idx.(index.Enumerable)
		if !ok {
			return fmt.Errorf("%w: shard %d (copying a mutable shard needs enumeration)", ErrNotEnumerable, si)
		}
		recs := en.AppendRecords(nil)
		for len(fresh) < n {
			dev := eio.NewDeviceLike(prim.dev)
			idx := e.mkIdx(si, dev)
			mut, ok := idx.(index.Mutable)
			if !ok {
				return fmt.Errorf("engine: shard %d: copied index is not mutable", si)
			}
			for _, r := range recs {
				if err := mut.Insert(r); err != nil {
					return fmt.Errorf("engine: shard %d: replaying record into copy: %w", si, err)
				}
			}
			fresh = append(fresh, newReplica(idx, dev))
		}
	}
	for _, rep := range fresh {
		e.workersWG.Add(1)
		go e.replicaWorker(si, rep)
	}
	attach(fresh)
	return nil
}

// AutoReplicateOptions tune one AutoReplicate call. The zero value
// asks for the defaults.
type AutoReplicateOptions struct {
	// Budget caps the engine's total physical copies, primaries
	// included (default 2·S; clamped to at least S — primaries are
	// never dropped).
	Budget int
	// MaxPerShard caps one shard's replica degree (default 3).
	MaxPerShard int
	// MinShare is the fraction of the engine's total recent traffic
	// a shard must hold to deserve a second copy (default 1.5/S — a
	// uniform workload, where every shard holds 1/S, promotes nothing).
	MinShare float64
}

// AutoReplicateStats reports what one AutoReplicate call did.
type AutoReplicateStats struct {
	// Promoted and Demoted count the physical copies added and removed.
	Promoted, Demoted int
	// Degrees is the per-shard replica degree after the call.
	Degrees []int
}

// AutoReplicate reshapes the replica layout to the traffic counts:
// greedy water-filling gives each extra copy within Budget to the
// shard with the most recent visits per existing copy, subject to
// MaxPerShard and MinShare (ties to the lowest shard id, so the
// outcome is deterministic for given counts); shards above
// their computed degree demote first, freeing budget for promotions.
// Like Rebalance, it is caller-triggered — run it from a ticker or
// after a traffic shift — and serialized against every other layout
// mutation. Answers are unchanged throughout. A closed engine returns
// ErrClosed.
func (e *Engine) AutoReplicate(opt AutoReplicateOptions) (AutoReplicateStats, error) {
	e.rebalMu.Lock()
	defer e.rebalMu.Unlock()
	if e.closed.Load() {
		return AutoReplicateStats{}, ErrClosed
	}
	s := len(e.shards)
	if opt.Budget <= 0 {
		opt.Budget = 2 * s
	}
	if opt.Budget < s {
		opt.Budget = s
	}
	if opt.MaxPerShard <= 0 {
		opt.MaxPerShard = 3
	}
	if opt.MinShare <= 0 {
		opt.MinShare = 1.5 / float64(s)
	}

	est := make([]float64, s)
	var total float64
	for si := 0; si < s; si++ {
		est[si] = float64(e.traffic.Estimate(si))
		total += est[si]
	}
	want := make([]int, s)
	for si := range want {
		want[si] = 1
	}
	if total > 0 {
		for extra := opt.Budget - s; extra > 0; extra-- {
			best, bestLoad := -1, 0.0
			for si := 0; si < s; si++ {
				if want[si] >= opt.MaxPerShard || est[si]/total < opt.MinShare {
					continue
				}
				if load := est[si] / float64(want[si]); best == -1 || load > bestLoad {
					best, bestLoad = si, load
				}
			}
			if best == -1 {
				break
			}
			want[best]++
		}
	}

	var st AutoReplicateStats
	// Demotions first: they only shed load, and they return copies to
	// the budget before the promotions spend it.
	for si := 0; si < s; si++ {
		if cur := len(e.shards[si].reps); want[si] < cur {
			if err := e.setDegreeLocked(si, want[si]); err != nil {
				return st, err
			}
			st.Demoted += cur - want[si]
		}
	}
	for si := 0; si < s; si++ {
		if cur := len(e.shards[si].reps); want[si] > cur {
			if err := e.setDegreeLocked(si, want[si]); err != nil {
				return st, err
			}
			st.Promoted += want[si] - cur
		}
	}
	st.Degrees = make([]int, s)
	for si, sh := range e.shards {
		st.Degrees[si] = len(sh.reps)
	}
	return st, nil
}
