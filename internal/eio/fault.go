// Fault injection: a Device can be made *sick* — browned out
// (probabilistic extra stalls on misses), stuck (every Nth miss stalls
// hard), or hard-failed (every touch stalls until healed) — in a
// deterministic, seeded way. The engine uses this to exercise its
// hedged reads, circuit breakers and repair path against the exact
// failure modes the I/O model abstracts away: the *counts* stay honest
// (a sick disk performs the same transfers), only wall clock and the
// fault-attribution counters change.
//
// All injected time is charged to Stats.FaultStallNs, never StallNs, so
// a scrape can tell an injected brownout from an honestly slow medium.
package eio

import "time"

// FaultPlan describes deterministic, seeded faults for one Device. The
// zero value is the healthy plan; install with Device.SetFaultPlan.
//
// Faults fire on cache *misses* only (plus the hard-fail latch, which
// fires on every touch): the sick medium sits behind the cache, so a
// warm working set hides a brownout exactly as it hides honest latency.
type FaultPlan struct {
	// Seed keys the brownout coin flips. Two devices with the same plan
	// and the same miss sequence inject identical faults.
	Seed int64

	// BrownoutProb is the per-miss probability (0..1] of an extra
	// BrownoutStall sleep — a degraded medium whose tail misbehaves.
	BrownoutProb  float64
	BrownoutStall time.Duration

	// StuckEvery makes every Nth miss (N = StuckEvery > 0) stall for
	// StuckStall — a periodically hiccuping device (firmware GC, a
	// remounting RAID member).
	StuckEvery int
	StuckStall time.Duration

	// FailStall is the per-touch stall charged while the device is
	// hard-failed (Fail). Zero means defaultFailStall.
	FailStall time.Duration
}

// defaultFailStall is the per-touch cost of a hard-failed device when
// the plan does not name one: long enough that any hedge or breaker
// worth its salt reacts, short enough that tests drain quickly.
const defaultFailStall = time.Millisecond

// active reports whether the plan injects anything beyond the hard-fail
// latch (which is armed separately via Fail).
func (p FaultPlan) active() bool {
	return (p.BrownoutProb > 0 && p.BrownoutStall > 0) ||
		(p.StuckEvery > 0 && p.StuckStall > 0)
}

// faultState is the per-device injection state: the plan, the seeded
// splitmix64 stream for brownout coin flips, and the miss counter for
// stuck-device periodicity. Owned by the Device (single-owner invariant
// covers it), so no atomics are needed.
type faultState struct {
	plan   FaultPlan
	rng    uint64
	misses int64
}

// next01 advances the splitmix64 stream and returns a uniform float64
// in [0, 1). Deterministic per (seed, miss index).
func (f *faultState) next01() float64 {
	f.rng += 0x9e3779b97f4a7c15
	z := f.rng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// onMiss applies the plan's miss-triggered faults. Kept out of touch's
// healthy path (called only when d.fault != nil).
//
//go:noinline
func (f *faultState) onMiss(d *Device) {
	p := &f.plan
	if p.BrownoutProb > 0 && p.BrownoutStall > 0 && f.next01() < p.BrownoutProb {
		d.injectStall(p.BrownoutStall)
	}
	if p.StuckEvery > 0 && p.StuckStall > 0 {
		f.misses++
		if f.misses%int64(p.StuckEvery) == 0 {
			d.injectStall(p.StuckStall)
		}
	}
}

// injectStall charges one fault event and its simulated stall (the
// plan's value, not the measured sleep, so the counters stay
// deterministic), then sleeps.
func (d *Device) injectStall(stall time.Duration) {
	d.stats.Faults++
	d.stats.FaultStallNs += int64(stall)
	time.Sleep(stall)
}

// failTouch is the hard-fail path: every touch of a failed device costs
// one fault event and the plan's FailStall.
//
//go:noinline
func (d *Device) failTouch() {
	fs := d.failStall
	if fs == 0 {
		fs = defaultFailStall
	}
	d.injectStall(fs)
}

// SetFaultPlan installs (or, with the zero plan, clears) the device's
// fault plan. Like SetMissLatency it must be serialized with the
// device's other uses (the engine holds the replica lock); the
// hard-fail latch below is the one control safe to flip concurrently.
func (d *Device) SetFaultPlan(p FaultPlan) {
	d.enter()
	defer d.exit()
	d.failStall = p.FailStall
	if !p.active() {
		d.fault = nil
		return
	}
	// Decorrelate the stream from a zero seed so Seed:0 still flips
	// well-mixed coins.
	d.fault = &faultState{plan: p, rng: uint64(p.Seed)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3}
}

// Fail latches the device hard-failed: every subsequent touch charges a
// fault and stalls FailStall (defaultFailStall if the plan names none)
// until Heal. The latch is atomic — unlike SetFaultPlan it is safe to
// flip from any goroutine while the owner keeps touching, which is the
// point: disks do not schedule their failures around the serving path.
func (d *Device) Fail() { d.failed.Store(true) }

// Heal clears the hard-fail latch. Safe concurrently, like Fail.
func (d *Device) Heal() { d.failed.Store(false) }

// Failed reports whether the hard-fail latch is set.
func (d *Device) Failed() bool { return d.failed.Load() }
