package engine

// Per-replica circuit breakers and the repair actuator (DESIGN.md §12).
// A replica whose device misbehaves — injected faults (eio.FaultPlan),
// a hard-fail latch, or being abandoned at a run deadline — poisons
// every run routed to it. The breaker is the classic three-state
// machine, all atomics so the read path pays one state load per
// replica:
//
//	closed ──(Threshold consecutive faulted sub-batches)──▶ open
//	open ──(Cooldown elapsed; next pick becomes the probe)──▶ half-open
//	half-open ──(probe succeeds)──▶ closed
//	half-open ──(probe faults)──▶ open (cooldown restarts)
//
// pickRoutable skips open breakers, so a sick copy stops receiving
// traffic within Threshold sub-batches; the half-open probe is how it
// earns its way back. A shard is never stranded: when every copy is
// open mid-cooldown, the pick forces the stalest breaker into half-open
// and routes it — answering slowly beats not answering (FuzzBreaker
// pins both properties). Engine.Repair is the actuator: it rebuilds
// tripped copies from the primary on fresh, healthy devices (cloneShard,
// the routine Replicate grows with), which is the first automated
// response path the watchdog's HealthEvents can drive.

import (
	"fmt"
	"sync/atomic"
	"time"

	"linconstraint/internal/eio"
)

// BreakerConfig arms per-replica circuit breakers (Options.Breaker).
type BreakerConfig struct {
	// Threshold is the number of consecutive faulted sub-batches that
	// open a replica's breaker (default 3).
	Threshold int
	// Cooldown is how long an open breaker blocks routing before the
	// next pick probes the replica half-open (default 100ms).
	Cooldown time.Duration
}

func (c BreakerConfig) normalized() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 100 * time.Millisecond
	}
	return c
}

// BreakerState is one replica breaker's routing state.
type BreakerState int32

const (
	// BreakerClosed: healthy, routable.
	BreakerClosed BreakerState = iota
	// BreakerOpen: tripped; not routed until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: probing; routable, and the next sub-batch's
	// outcome decides between closed and open.
	BreakerHalfOpen
)

// String returns the state's metric label.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	}
	return "unknown"
}

// breaker is one replica's circuit-breaker cells. Embedded by value in
// replica; the zero value is closed. All transitions are CAS-guarded so
// concurrent sub-batches finishing on the same replica agree on one
// winner per transition (trips are counted exactly once).
type breakerCells struct {
	state    atomic.Int32
	fails    atomic.Int32
	openedAt atomic.Int64 // UnixNano of the last close→open transition
	trips    atomic.Int64
}

// onSuccess records a clean sub-batch: consecutive-failure evidence is
// discarded and a half-open probe (or a concurrently-opened breaker
// whose in-flight dispatch still succeeded — fresh evidence either way)
// closes.
func (b *breakerCells) onSuccess() {
	b.fails.Store(0)
	if b.state.Load() != int32(BreakerClosed) {
		b.state.Store(int32(BreakerClosed))
	}
}

// onFault records a faulted sub-batch, returning true when this call
// tripped the breaker (closed→open on the threshold, or a failed
// half-open probe re-opening).
func (b *breakerCells) onFault(threshold int32, now int64) bool {
	switch BreakerState(b.state.Load()) {
	case BreakerHalfOpen:
		if b.state.CompareAndSwap(int32(BreakerHalfOpen), int32(BreakerOpen)) {
			b.openedAt.Store(now)
			b.trips.Add(1)
			return true
		}
	case BreakerClosed:
		if b.fails.Add(1) >= threshold &&
			b.state.CompareAndSwap(int32(BreakerClosed), int32(BreakerOpen)) {
			b.openedAt.Store(now)
			b.trips.Add(1)
			return true
		}
	}
	return false
}

// forceProbe moves an open breaker to half-open regardless of cooldown
// — the no-stranding escape hatch when a shard's every copy is open.
func (b *breakerCells) forceProbe() {
	b.state.CompareAndSwap(int32(BreakerOpen), int32(BreakerHalfOpen))
}

// replicaOutcome feeds one finished sub-batch's evidence to the
// replica's breaker: any injected fault during the sub-batch (the
// device-counter Faults delta) or an abandonment at the run deadline
// counts against it; a clean sub-batch resets it. Trips bump the
// counter and surface as HealthBreakerTrip events.
func (e *Engine) replicaOutcome(si int, rep *replica, faulted bool) {
	cfg := e.brkCfg
	if cfg == nil {
		return
	}
	if !faulted {
		rep.brk.onSuccess()
		return
	}
	now := time.Now().UnixNano()
	if rep.brk.onFault(int32(cfg.Threshold), now) {
		if m := e.met; m != nil {
			m.breakerTrips.Inc()
			m.healthEvent(HealthBreakerTrip, now, si, float64(rep.brk.fails.Load()), float64(cfg.Threshold))
		}
	}
}

// BreakerStates returns shard si's per-replica breaker states (all
// BreakerClosed when breakers are unarmed). A cold observability call;
// tests and the scrape collector use it.
func (e *Engine) BreakerStates(si int) ([]BreakerState, error) {
	e.migMu.RLock()
	defer e.migMu.RUnlock()
	if si < 0 || si >= len(e.shards) {
		return nil, fmt.Errorf("engine: BreakerStates: shard %d out of range [0,%d)", si, len(e.shards))
	}
	reps := e.shards[si].reps
	out := make([]BreakerState, len(reps))
	for ri, rep := range reps {
		out[ri] = BreakerState(rep.brk.state.Load())
	}
	return out, nil
}

// InjectFaults installs plan on replica ri of shard si's device — the
// hook fault-soak harnesses and tests brown a copy out with. The
// replica lock serializes the install against in-flight sub-batches
// (eio.SetFaultPlan is owner-serialized like every device call).
func (e *Engine) InjectFaults(si, ri int, plan eio.FaultPlan) error {
	e.migMu.RLock()
	defer e.migMu.RUnlock()
	rep, err := e.replicaAt(si, ri)
	if err != nil {
		return err
	}
	rep.mu.Lock()
	rep.dev.SetFaultPlan(plan)
	rep.mu.Unlock()
	return nil
}

// FailReplica latches replica ri of shard si's device hard-failed
// (eio.Device.Fail — atomic, so no replica lock is needed: disks do not
// schedule their failures around the serving path).
func (e *Engine) FailReplica(si, ri int) error {
	e.migMu.RLock()
	defer e.migMu.RUnlock()
	rep, err := e.replicaAt(si, ri)
	if err != nil {
		return err
	}
	rep.dev.Fail()
	return nil
}

// HealReplica clears replica ri of shard si's hard-fail latch. The
// breaker still requires a successful half-open probe (or a Repair)
// before the copy takes traffic again.
func (e *Engine) HealReplica(si, ri int) error {
	e.migMu.RLock()
	defer e.migMu.RUnlock()
	rep, err := e.replicaAt(si, ri)
	if err != nil {
		return err
	}
	rep.dev.Heal()
	return nil
}

// replicaAt resolves (si, ri) under the caller's shared migMu. A closed
// engine serves no replica, so it resolves none.
func (e *Engine) replicaAt(si, ri int) (*replica, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if si < 0 || si >= len(e.shards) {
		return nil, fmt.Errorf("engine: shard %d out of range [0,%d)", si, len(e.shards))
	}
	reps := e.shards[si].reps
	if ri < 0 || ri >= len(reps) {
		return nil, fmt.Errorf("engine: shard %d has %d replicas, no replica %d", si, len(reps), ri)
	}
	return reps[ri], nil
}

// Repair rebuilds shard si's sick replicas — breaker open or half-open,
// or device hard-failed — from the primary, and returns how many copies
// it repaired. A sick non-primary copy is replaced outright by a fresh
// copy of the primary (cloneShard — fresh devices carry no fault plan
// and a clear fail latch, which is what makes this a repair, see
// eio.NewDeviceLike). The old copy detaches in the same exclusive
// section the new one attaches in, and its worker drains after — a
// straggling degraded-run sub-batch finishes harmlessly on the orphan
// first. The primary cannot be rebuilt from itself, so a sick primary is
// healed in place: fail latch cleared, fault plan removed. Every
// repaired copy's breaker resets to closed. Serialized against
// Replicate/Drop/Rebalance via rebalMu; answers are byte-identical
// throughout (a rebuilt replica holds the same multiset, like any
// clone).
func (e *Engine) Repair(si int) (int, error) {
	e.rebalMu.Lock()
	defer e.rebalMu.Unlock()
	if si < 0 || si >= len(e.shards) {
		return 0, fmt.Errorf("engine: Repair: shard %d out of range [0,%d)", si, len(e.shards))
	}
	if e.closed.Load() {
		return 0, ErrClosed
	}
	sh := e.shards[si]
	// The replica set is stable under rebalMu (every mutation holds it),
	// so the sick scan needs no lock of its own.
	sick := make([]int, 0, len(sh.reps))
	for ri, rep := range sh.reps {
		if BreakerState(rep.brk.state.Load()) != BreakerClosed || rep.dev.Failed() {
			sick = append(sick, ri)
		}
	}
	if len(sick) == 0 {
		return 0, nil
	}
	repaired := 0
	for _, ri := range sick {
		if ri == 0 {
			e.healPrimary(sh.reps[0])
		} else {
			var old *replica
			err := e.cloneShard(si, 1, func(fresh []*replica) {
				old, sh.reps[ri] = sh.reps[ri], fresh[0]
			})
			if err != nil {
				return repaired, err
			}
			close(old.work)
			<-old.stopped
		}
		repaired++
	}
	e.met.healthEvent(HealthRepair, time.Now().UnixNano(), si, float64(repaired), 0)
	return repaired, nil
}

// healPrimary heals a sick primary in place: clear the latch and the
// plan (under the replica lock — the device is owner-serialized), then
// reset the breaker so routing resumes immediately.
func (e *Engine) healPrimary(rep *replica) {
	rep.dev.Heal()
	rep.mu.Lock()
	rep.dev.SetFaultPlan(eio.FaultPlan{})
	rep.mu.Unlock()
	rep.brk.fails.Store(0)
	rep.brk.state.Store(int32(BreakerClosed))
}
