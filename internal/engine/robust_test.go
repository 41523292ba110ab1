package engine

// Robustness tests (DESIGN.md §12): fault injection, hedged replica
// reads, per-replica circuit breakers and deadline-bounded graceful
// degradation. The through-line is the engine's central invariant under
// adversity — a browned-out, hard-failed or abandoned replica may cost
// latency, but every answer that does come back is byte-identical to
// the unsharded reference, and a degraded answer is an exact union of
// the shards that reported.

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/index"
	"linconstraint/internal/metrics"
	"linconstraint/internal/partition"
	"linconstraint/internal/planner"
	"linconstraint/internal/workload"
)

// subsetInts reports whether sub ⊆ super; both are sorted ascending
// (every engine answer is).
func subsetInts(sub, super []int) bool {
	j := 0
	for _, v := range sub {
		for j < len(super) && super[j] < v {
			j++
		}
		if j >= len(super) || super[j] != v {
			return false
		}
		j++
	}
	return true
}

// FuzzBreaker drives the breaker state machine and the routing pick
// with arbitrary fault/success/pick interleavings and checks the two
// properties the design promises: a pick never routes to an open
// breaker, and a shard is never stranded — whenever any replica besides
// the excluded one exists, the pick returns one (forcing a probe if
// every copy is open). A shadow model verifies every state transition,
// including the ones a pick itself is allowed to make (open→half-open
// only).
func FuzzBreaker(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 7, 7, 9}, uint8(3), false)
	f.Add([]byte{5, 5, 5, 5, 5, 5}, uint8(1), true)
	f.Add([]byte{1, 4, 2, 8, 5, 7, 1, 4, 2, 8}, uint8(4), false)
	f.Add([]byte{255, 254, 253, 252}, uint8(2), true)
	f.Fuzz(func(t *testing.T, ops []byte, nreps uint8, coolExpired bool) {
		n := 1 + int(nreps)%4
		const threshold = 2
		e := &Engine{brkCooldownNs: int64(time.Hour)}
		if coolExpired {
			// Zero cooldown: every open breaker is immediately probe-able,
			// exercising the CAS branch of the pick's second pass.
			e.brkCooldownNs = 0
		}
		reps := make([]*replica, n)
		for i := range reps {
			reps[i] = &replica{}
		}
		model := make([]BreakerState, n)
		fails := make([]int, n)
		trips := make([]int64, n)

		for _, b := range ops {
			ri := int(b) % n
			switch (int(b) / n) % 3 {
			case 0:
				reps[ri].brk.onSuccess()
				model[ri], fails[ri] = BreakerClosed, 0
			case 1:
				tripped := reps[ri].brk.onFault(threshold, time.Now().UnixNano())
				wantTrip := false
				switch model[ri] {
				case BreakerHalfOpen:
					model[ri], wantTrip = BreakerOpen, true
				case BreakerClosed:
					if fails[ri]++; fails[ri] >= threshold {
						model[ri], wantTrip = BreakerOpen, true
					}
				}
				if tripped != wantTrip {
					t.Fatalf("onFault on replica %d reported trip=%v, model says %v", ri, tripped, wantTrip)
				}
				if wantTrip {
					trips[ri]++
				}
			default:
				exclude := -1
				if b&1 == 0 {
					exclude = ri
				}
				rep, got := e.pickRoutable(reps, exclude)
				if n == 1 && exclude == 0 {
					if rep != nil {
						t.Fatalf("pick invented a replica when exclude covered the whole set")
					}
				} else {
					if rep == nil {
						t.Fatalf("stranded: %d replicas, exclude %d, states %v", n, exclude, model)
					}
					if got < 0 || got >= n || reps[got] != rep {
						t.Fatalf("pick returned inconsistent index %d", got)
					}
					if got == exclude {
						t.Fatalf("pick returned the excluded replica %d", got)
					}
					if s := BreakerState(rep.brk.state.Load()); s == BreakerOpen {
						t.Fatalf("pick routed to an open breaker (replica %d)", got)
					}
				}
				// A pick may only ever move breakers open→half-open.
				for i, r := range reps {
					s := BreakerState(r.brk.state.Load())
					if s != model[i] {
						if model[i] != BreakerOpen || s != BreakerHalfOpen {
							t.Fatalf("pick made an illegal transition on replica %d: %v -> %v", i, model[i], s)
						}
						model[i] = BreakerHalfOpen
					}
				}
			}
			for i, r := range reps {
				if got := r.brk.trips.Load(); got != trips[i] {
					t.Fatalf("replica %d trips = %d, model %d", i, got, trips[i])
				}
				s := BreakerState(r.brk.state.Load())
				if s != BreakerClosed && s != BreakerOpen && s != BreakerHalfOpen {
					t.Fatalf("replica %d in impossible state %d", i, s)
				}
			}
		}
	})
}

// TestBreakerTripRouteAroundRepair is the breaker lifecycle acceptance
// path: a hard-failed replica trips its breaker within Threshold runs,
// traffic routes around it (its reads freeze), Engine.Repair heals it
// and re-closes the breaker, and the answers stay byte-identical at
// every stage. Both repair flavors run: the primary heals in place, a
// non-primary is rebuilt onto a fresh device.
func TestBreakerTripRouteAroundRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	pts := workload.Uniform2(rng, 6_000)
	reg := metrics.NewRegistry()
	e := NewPlanar(pts, Options{
		Shards: 2, BlockSize: 32, Seed: 7, Partitioner: partition.NewKDCut(),
		Metrics: reg,
		Breaker: &BreakerConfig{Threshold: 2, Cooldown: time.Hour},
		// An idle watchdog: never ticks, but its event ring exists, so
		// breaker trips and repairs surface through Engine.Health.
		Watchdog: &WatchdogConfig{Interval: time.Hour},
	})
	defer e.Close()
	if err := e.Replicate(0, 2); err != nil {
		t.Fatal(err)
	}

	qs := make([]Query, 8)
	for i := range qs {
		h := workload.HalfplaneWithSelectivity(rng, pts, 0.1)
		qs[i] = Query{Op: OpHalfplane, A: h.A, B: h.B}
	}
	base := e.Batch(qs)
	check := func(stage string) {
		t.Helper()
		got := e.Batch(qs)
		for i := range qs {
			if got[i].Err != nil {
				t.Fatalf("%s: query %d: %v", stage, i, got[i].Err)
			}
			if !equalInts(got[i].IDs, base[i].IDs) {
				t.Fatalf("%s: query %d: answer changed (%d vs %d ids)", stage, i, len(got[i].IDs), len(base[i].IDs))
			}
		}
	}

	// Sequential idle-engine picks always land on replica 0 (least
	// in-flight, first wins ties), so that is the copy to fail. The
	// cheap FailStall keeps the pre-trip runs fast.
	if err := e.InjectFaults(0, 0, eio.FaultPlan{FailStall: 10 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	if err := e.FailReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		check("hard-failed replica serving")
		st, err := e.BreakerStates(0)
		if err != nil {
			t.Fatal(err)
		}
		if st[0] == BreakerOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened: states %v", st)
		}
	}

	// Routed around: the tripped copy's reads freeze while queries flow.
	frozen := e.Stats().ReplicaReads[0][0]
	check("tripped")
	check("tripped")
	if got := e.Stats().ReplicaReads[0][0]; got != frozen {
		t.Fatalf("open breaker still served reads: %d -> %d", frozen, got)
	}

	// Repair flavor 1: the sick primary heals in place.
	n, err := e.Repair(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Repair repaired %d copies, want 1", n)
	}
	st, err := e.BreakerStates(0)
	if err != nil {
		t.Fatal(err)
	}
	for ri, s := range st {
		if s != BreakerClosed {
			t.Fatalf("post-repair replica %d breaker %v, want closed", ri, s)
		}
	}
	if e.shards[0].reps[0].dev.Failed() {
		t.Fatal("Repair left the primary's fail latch set")
	}
	if e.shards[0].reps[0].dev.FaultPlan() != (eio.FaultPlan{}) {
		t.Fatal("Repair left the primary's fault plan installed")
	}
	check("repaired primary")
	grown := e.Stats().ReplicaReads[0][0]
	check("repaired primary serving")
	if got := e.Stats().ReplicaReads[0][0]; got <= grown {
		t.Fatalf("healed primary took no traffic: %d -> %d", grown, got)
	}

	// Repair flavor 2: a hard-failed non-primary (sick by latch alone —
	// no trip needed) is rebuilt onto a fresh device.
	if err := e.FailReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	if n, err = e.Repair(0); err != nil || n != 1 {
		t.Fatalf("Repair of failed clone: n=%d err=%v", n, err)
	}
	if e.shards[0].reps[1].dev.Failed() {
		t.Fatal("rebuilt replica inherited the fail latch")
	}
	check("rebuilt clone")

	snap := reg.Snapshot()
	if got, _ := snap.Value("engine_breaker_trips_total", ""); got < 1 {
		t.Errorf("engine_breaker_trips_total = %v, want >= 1", got)
	}
	if got, _ := snap.Value("engine_repairs_total", ""); got != 2 {
		t.Errorf("engine_repairs_total = %v, want 2", got)
	}
	kinds := map[HealthKind]bool{}
	for _, ev := range e.Health(nil) {
		kinds[ev.Kind] = true
	}
	if !kinds[HealthBreakerTrip] || !kinds[HealthRepair] {
		t.Errorf("health stream kinds %v, want breaker_trip and repair", kinds)
	}
}

// TestDeadlineDegradedAndStrict pins graceful degradation: with
// Strict=false a run that blows Options.Deadline returns the exact
// union of the shards that reported — Degraded set, the abandoned
// shards named in Missing, the IDs a strict subset of the full answer —
// while Strict=true waits the stall out and returns the complete
// answer, counting the miss.
func TestDeadlineDegradedAndStrict(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	pts := workload.Uniform2(rng, 8_000)
	h := workload.HalfplaneWithSelectivity(rng, pts, 0.8) // touches every shard
	qs := []Query{{Op: OpHalfplane, A: h.A, B: h.B}}

	build := func(strict bool) (*Engine, *metrics.Registry) {
		reg := metrics.NewRegistry()
		e := NewPlanar(pts, Options{
			Shards: 4, BlockSize: 32, Seed: 6, Partitioner: partition.NewKDCut(),
			Deadline: 2 * time.Millisecond, Strict: strict,
			Metrics:        reg,
			FlightRecorder: FlightRecorderConfig{TotalNs: int64(time.Hour)},
		})
		t.Cleanup(e.Close)
		return e, reg
	}
	slowShards := func(e *Engine) {
		// 200µs per touch on shards 2 and 3: tens of touches per
		// sub-batch at this selectivity, far past the 2ms deadline, while
		// the healthy shards answer in microseconds.
		for _, si := range []int{2, 3} {
			if err := e.InjectFaults(si, 0, eio.FaultPlan{FailStall: 200 * time.Microsecond}); err != nil {
				t.Fatal(err)
			}
			if err := e.FailReplica(si, 0); err != nil {
				t.Fatal(err)
			}
		}
	}

	soft, softReg := build(false)
	soft.Batch(qs) // warm: first-run arena growth must not eat the deadline
	// A healthy run beats 2ms by orders of magnitude, but scheduler
	// hiccups (esp. under -race) can still blow it occasionally —
	// that's correct degradation, not a failure, so retry for a clean
	// baseline.
	var full []Result
	for attempt := 0; ; attempt++ {
		full = soft.Batch(qs)
		if full[0].Err != nil {
			t.Fatal(full[0].Err)
		}
		if !full[0].Degraded {
			break
		}
		if attempt == 50 {
			t.Fatalf("healthy run degraded %d times in a row", attempt)
		}
	}
	if full[0].ShardsVisited != 4 {
		t.Fatalf("reference query visits %d shards, want 4", full[0].ShardsVisited)
	}
	slowShards(soft)
	res := soft.Batch(qs)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if !res[0].Degraded || len(res[0].Missing) == 0 {
		t.Fatalf("stalled run not degraded: degraded=%v missing=%v", res[0].Degraded, res[0].Missing)
	}
	for _, si := range res[0].Missing {
		if si != 2 && si != 3 {
			t.Fatalf("healthy shard %d reported missing (missing %v)", si, res[0].Missing)
		}
	}
	if !subsetInts(res[0].IDs, full[0].IDs) {
		t.Fatal("degraded answer is not a subset of the full answer")
	}
	if len(res[0].IDs) >= len(full[0].IDs) {
		t.Fatalf("degraded answer lost nothing (%d vs %d ids) — deadline never bit", len(res[0].IDs), len(full[0].IDs))
	}
	snap := softReg.Snapshot()
	if got, _ := snap.Value("engine_deadline_misses_total", ""); got < 1 {
		t.Errorf("engine_deadline_misses_total = %v, want >= 1", got)
	}
	if got, _ := snap.Value("engine_degraded_runs_total", ""); got < 1 {
		t.Errorf("engine_degraded_runs_total = %v, want >= 1", got)
	}
	var sawDegraded bool
	for _, s := range soft.SlowQueries(nil) {
		if s.Reason&SlowDegraded != 0 {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Error("flight recorder captured no degraded run")
	}

	strict, strictReg := build(true)
	strictFull := strict.Batch(qs)
	slowShards(strict)
	res = strict.Batch(qs)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if res[0].Degraded || len(res[0].Missing) != 0 {
		t.Fatalf("strict run degraded: %v missing %v", res[0].Degraded, res[0].Missing)
	}
	if !equalInts(res[0].IDs, strictFull[0].IDs) {
		t.Fatal("strict past-deadline answer is not byte-identical to the full answer")
	}
	snap = strictReg.Snapshot()
	if got, _ := snap.Value("engine_deadline_misses_total", ""); got < 1 {
		t.Errorf("strict engine_deadline_misses_total = %v, want >= 1", got)
	}
	if got, _ := snap.Value("engine_degraded_runs_total", ""); got != 0 {
		t.Errorf("strict engine_degraded_runs_total = %v, want 0", got)
	}
}

// TestHedgedReadsByteIdentical pins the hedge path: with one replica of
// every shard browned out hard and a fixed hedge delay, runs re-dispatch
// to the healthy copy, the hedge wins, and every answer is byte-
// identical to the healthy baseline. The flight recorder captures every
// hedged run with the hedged reason and per-shard Hedged marks.
func TestHedgedReadsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	pts := workload.Uniform2(rng, 6_000)
	// Every engine of the test shares the data, the layout and two copies
	// of both shards; only the robustness and telemetry options differ.
	build := func(opt Options) *Engine {
		opt.Shards, opt.BlockSize, opt.Seed, opt.Partitioner = 2, 32, 8, partition.NewKDCut()
		e := NewPlanar(pts, opt)
		t.Cleanup(e.Close)
		for si := 0; si < 2; si++ {
			if err := e.Replicate(si, 2); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	qs := make([]Query, 8)
	for i := range qs {
		h := workload.HalfplaneWithSelectivity(rng, pts, 0.1)
		qs[i] = Query{Op: OpHalfplane, A: h.A, B: h.B}
	}

	// One run path, whatever is armed: an engine with no robustness
	// option at all, one with only a deadline and one with only a hedge
	// delay (neither ever firing) return the same answers for the same
	// block transfers — the copies are identical builds on uncached
	// devices, so the total does not depend on which copy a run picked.
	var base []Result
	var baseIOs int64
	for _, c := range []struct {
		name string
		opt  Options
	}{
		{"plain", Options{}},
		{"deadline-only", Options{Deadline: time.Hour}},
		{"hedged", Options{HedgeAfter: time.Hour}},
	} {
		ce := build(c.opt)
		ce.ResetStats()
		got := ce.Batch(qs)
		ios := ce.Stats().Total.IOs()
		if base == nil {
			base, baseIOs = got, ios
			continue
		}
		for i := range qs {
			if got[i].Err != nil || got[i].Degraded || !equalInts(got[i].IDs, base[i].IDs) {
				t.Fatalf("%s: query %d differs from the plain engine (err %v, degraded %v, %d vs %d ids)",
					c.name, i, got[i].Err, got[i].Degraded, len(got[i].IDs), len(base[i].IDs))
			}
		}
		if ios != baseIOs {
			t.Fatalf("%s: %d block transfers for the batch, plain engine %d", c.name, ios, baseIOs)
		}
	}

	reg := metrics.NewRegistry()
	e := build(Options{
		Metrics: reg, HedgeAfter: 20 * time.Microsecond,
		FlightRecorder: FlightRecorderConfig{TotalNs: int64(time.Hour)},
	})

	// Brown out replica 0 of both shards — the copy an idle engine's
	// pick always chooses — so the primary dispatch stalls ~1ms per miss
	// and the 20µs hedge to the healthy clone wins.
	for si := 0; si < 2; si++ {
		if err := e.InjectFaults(si, 0, eio.FaultPlan{Seed: int64(si + 1), BrownoutProb: 1, BrownoutStall: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	one := make([]Query, 1)
	res := make([]Result, 0, 1)
	for i := 0; i < 24; i++ {
		one[0] = qs[i%len(qs)]
		res = e.BatchInto(one, res[:0])
		if res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
		if res[0].Degraded {
			t.Fatal("no deadline is set, yet a run degraded")
		}
		if !equalInts(res[0].IDs, base[i%len(qs)].IDs) {
			t.Fatalf("run %d: hedged answer diverged (%d vs %d ids)", i, len(res[0].IDs), len(base[i%len(qs)].IDs))
		}
	}

	snap := reg.Snapshot()
	hedges, _ := snap.Value("engine_hedges_total", "")
	wins, _ := snap.Value("engine_hedge_wins_total", "")
	if hedges == 0 {
		t.Fatal("browned-out primaries never triggered a hedge")
	}
	if wins == 0 {
		t.Fatal("healthy clones never won a hedge race")
	}
	var sawHedged, sawMark bool
	for _, s := range e.SlowQueries(nil) {
		if s.Reason&SlowHedged == 0 {
			continue
		}
		sawHedged = true
		for _, ps := range s.PerShard {
			if ps.Hedged {
				sawMark = true
			}
		}
	}
	if !sawHedged {
		t.Error("flight recorder captured no hedged run")
	}
	if !sawMark {
		t.Error("no captured shard trace carries the Hedged mark")
	}
}

// TestHedgedP99UnderBrownout is the latency half of the hedging claim
// (DESIGN.md §12): the shard the workload visits most has two copies
// and its primary browned out 50× per miss. With the hedge delay pinned
// to the measured healthy p99, the hedged engine's p99 run latency must
// stay at or below 3× healthy and strictly below the unhedged engine's,
// every answer byte-identical to the healthy one. Each p99 is the
// median of three windows.
func TestHedgedP99UnderBrownout(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// The 5ms brown stall must clear time.Sleep's real-world floor
	// (kernels commonly round sub-millisecond sleeps up to ~1ms) by a wide
	// margin, or a browned miss would cost no more than a healthy one; the
	// 100µs healthy miss keeps healthy runs in the same sleep-floor regime
	// the hedge timer lives in.
	const ioLat, brownStall = 100 * time.Microsecond, 50 * 100 * time.Microsecond
	const shards, runs = 4, 48
	rng := rand.New(rand.NewSource(88))
	pts := workload.Uniform2(rng, 12_000)
	qs := make([]Query, 32)
	for i := range qs {
		// 1% selectivity: the worst single-shard critical path is about a
		// dozen misses, so the per-miss brown stall dominates a faulted visit.
		h := workload.HalfplaneWithSelectivity(rng, pts, 0.01)
		qs[i] = Query{Op: OpHalfplane, A: h.A, B: h.B}
	}
	// Same points, seed and layout training set: every engine below plans
	// and answers identically.
	build := func(opt Options) *Engine {
		opt.Shards, opt.BlockSize, opt.Seed, opt.Partitioner, opt.IOLatency = shards, 128, 8, partition.NewKDCut(), ioLat
		e := NewPlanar(pts, opt)
		t.Cleanup(e.Close)
		return e
	}
	healthy := build(Options{})
	base := healthy.Batch(qs)
	hot := 0
	for si := 1; si < shards; si++ {
		if healthy.ShardTraffic(si) > healthy.ShardTraffic(hot) {
			hot = si
		}
	}
	// The least-in-flight pick breaks ties to the first copy, so a
	// sequential caller always lands on the browned primary.
	brownHot := func(e *Engine) *Engine {
		if err := e.Replicate(hot, 2); err != nil {
			t.Fatal(err)
		}
		if err := e.InjectFaults(hot, 0, eio.FaultPlan{Seed: 9, BrownoutProb: 1, BrownoutStall: brownStall}); err != nil {
			t.Fatal(err)
		}
		return e
	}

	// window is the p99 latency of n single-query runs cycling the pool.
	one := make([]Query, 1)
	res := make([]Result, 0, 1)
	window := func(e *Engine, n int) time.Duration {
		durs := make([]time.Duration, n)
		for i := range durs {
			one[0] = qs[i%len(qs)]
			t0 := time.Now()
			res = e.BatchInto(one, res[:0])
			durs[i] = time.Since(t0)
			if res[0].Err != nil || !equalInts(res[0].IDs, base[i%len(qs)].IDs) {
				t.Fatalf("run %d: answer differs from the healthy engine (err %v)", i, res[0].Err)
			}
		}
		slices.Sort(durs)
		return durs[n*99/100]
	}
	p99of3 := func(e *Engine) time.Duration {
		return median3(func() time.Duration { return window(e, runs) })
	}

	healthyP99 := p99of3(healthy)
	// One pass over the pool: each unhedged hot visit costs ~50 healthy
	// ones, and the bar it sets has 4x room.
	unhedgedP99 := window(brownHot(build(Options{})), len(qs))
	reg := metrics.NewRegistry()
	hedgedP99 := p99of3(brownHot(build(Options{HedgeAfter: healthyP99, Metrics: reg})))

	snap := reg.Snapshot()
	hedges, _ := snap.Value("engine_hedges_total", "")
	wins, _ := snap.Value("engine_hedge_wins_total", "")
	if hedges == 0 || wins == 0 {
		t.Errorf("hedges %v, wins %v: the browned primary never lost a hedge race", hedges, wins)
	}
	t.Logf("p99 run latency: healthy %v, unhedged %v, hedged %v (%.2fx healthy; %v hedges, %v won)",
		healthyP99, unhedgedP99, hedgedP99, float64(hedgedP99)/float64(healthyP99), hedges, wins)
	if hedgedP99 > 3*healthyP99 {
		t.Errorf("hedged p99 %v > 3x healthy %v", hedgedP99, healthyP99)
	}
	if hedgedP99 >= unhedgedP99 {
		t.Errorf("hedged p99 %v not strictly below unhedged %v", hedgedP99, unhedgedP99)
	}
}

// TestHedgeAutoFollowsWindow: HedgeAuto derives the hedge delay from
// the windowed p99 run latency; after enough samples and a refresh
// interval the cached delay is positive, and answers stay correct
// throughout.
func TestHedgeAutoFollowsWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	pts := workload.Uniform2(rng, 2_000)
	reg := metrics.NewRegistry()
	e := NewPlanar(pts, Options{
		Shards: 2, BlockSize: 64, Seed: 9, Partitioner: partition.NewKDCut(),
		Metrics: reg, HedgeAfter: HedgeAuto,
		// Per-miss latency keeps runs long enough that the waiter
		// observes them pending (a run that finishes before its await
		// never consults the hedge-delay cache); the window must span
		// many such runs, since the p99 needs hedgeMinSamples of them.
		WindowSlots: 4, WindowInterval: time.Second,
		IOLatency: 5 * time.Microsecond,
	})
	defer e.Close()
	if err := e.Replicate(0, 2); err != nil {
		t.Fatal(err)
	}
	if !e.hedging {
		t.Fatal("HedgeAuto with metrics did not arm hedging")
	}
	qs := make([]Query, 4)
	for i := range qs {
		h := workload.HalfplaneWithSelectivity(rng, pts, 0.1)
		qs[i] = Query{Op: OpHalfplane, A: h.A, B: h.B}
	}
	base := e.Batch(qs)
	deadline := time.Now().Add(5 * time.Second)
	for e.hedgeNs.Load() == 0 {
		got := e.Batch(qs)
		for i := range qs {
			if got[i].Err != nil || !equalInts(got[i].IDs, base[i].IDs) {
				t.Fatalf("query %d diverged under auto-hedging (err %v)", i, got[i].Err)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("auto hedge delay never derived from the window")
		}
	}
	if e.hedgeNs.Load() <= 0 {
		t.Fatalf("auto hedge delay = %d, want > 0", e.hedgeNs.Load())
	}
}

// TestRobustFlappingFaultsByteIdentical is the robustness analog of
// TestReplicaInvarianceConcurrent, run under -race in CI: an
// interleaved insert/delete/query stream races a fault flapper that
// cycles brownout plans, hard-fail latches, heals and repairs across
// the replica sets, with hedging and breakers armed (no deadline — so
// byte-identity must hold unconditionally). Every answer is compared
// against one unsharded reference index.
func TestRobustFlappingFaultsByteIdentical(t *testing.T) {
	const shards = 4
	e := NewDynamicPlanar(Options{
		Shards: shards, Workers: 4, BlockSize: 16, Seed: 9, Partitioner: partition.NewKDCut(),
		HedgeAfter: 50 * time.Microsecond,
		Breaker:    &BreakerConfig{Threshold: 2, Cooldown: 500 * time.Microsecond},
	})
	defer e.Close()
	ref := index.NewDynamicPlanar(eio.NewDevice(16, 0), 9)

	// Fixed replica degrees — the churn under test is fault state, not
	// topology.
	deg := make([]int, shards)
	for si := 0; si < shards; si++ {
		deg[si] = 2 + si%2
		if err := e.Replicate(si, deg[si]); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var flaps atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		frng := rand.New(rand.NewSource(101))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			si := frng.Intn(shards)
			ri := frng.Intn(deg[si])
			var err error
			switch i % 5 {
			case 0:
				err = e.InjectFaults(si, ri, eio.FaultPlan{
					Seed: int64(i), BrownoutProb: 0.5, BrownoutStall: 20 * time.Microsecond,
					FailStall: 20 * time.Microsecond,
				})
			case 1:
				// Cheap FailStall first, so the latch brownout stays µs-scale.
				if err = e.InjectFaults(si, ri, eio.FaultPlan{FailStall: 20 * time.Microsecond}); err == nil {
					err = e.FailReplica(si, ri)
				}
			case 2:
				err = e.HealReplica(si, ri)
			case 3:
				// Clear the brownouts but keep the cheap FailStall — the
				// latch may still be set, and a bare latch falls back to
				// the 1ms default stall per touch.
				err = e.InjectFaults(si, ri, eio.FaultPlan{FailStall: 20 * time.Microsecond})
			default:
				_, err = e.Repair(si)
			}
			if err != nil {
				t.Error(err)
				return
			}
			flaps.Add(1)
		}
	}()

	rng := rand.New(rand.NewSource(73))
	zipf := rand.NewZipf(rng, 1.4, 1, 63)
	var model []geom.Point2
	for op := 0; op < 700; op++ {
		cell := float64(zipf.Uint64()) / 64
		switch r := rng.Intn(10); {
		case r < 5:
			p := geom.Point2{X: cell + rng.Float64()/64, Y: rng.Float64()}
			if err := e.Insert(index.Record{P2: p}); err != nil {
				t.Fatal(err)
			}
			ref.Insert(index.Record{P2: p})
			model = append(model, p)
		case r < 7 && len(model) > 0:
			i := rng.Intn(len(model))
			ok, err := e.Delete(index.Record{P2: model[i]})
			if err != nil || !ok {
				t.Fatalf("op %d: delete of live record under faults: %v %v", op, ok, err)
			}
			ref.Delete(index.Record{P2: model[i]})
			model[i] = model[len(model)-1]
			model = model[:len(model)-1]
		default:
			a, b := rng.NormFloat64(), cell+rng.Float64()
			got := e.HalfplaneRecs(a, b)
			ans, err := ref.Query(Query{Op: OpHalfplane, A: a, B: b})
			if err != nil {
				t.Fatal(err)
			}
			if !recsEqual(got, ans.Recs) {
				t.Fatalf("op %d: answer diverged under fault flapping (%d recs vs %d)",
					op, len(got), len(ans.Recs))
			}
		}
	}
	close(stop)
	wg.Wait()
	if flaps.Load() == 0 {
		t.Fatal("fault flapper never completed a pass")
	}
	if e.Len() != len(model) {
		t.Fatalf("post-stress Len %d, want %d", e.Len(), len(model))
	}

	// Quiesce: heal and repair everything, then the breakers must all be
	// closed and a final sweep byte-identical.
	for si := 0; si < shards; si++ {
		for ri := 0; ri < deg[si]; ri++ {
			if err := e.HealReplica(si, ri); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Repair(si); err != nil {
			t.Fatal(err)
		}
		st, err := e.BreakerStates(si)
		if err != nil {
			t.Fatal(err)
		}
		for ri, s := range st {
			if s != BreakerClosed {
				t.Fatalf("post-repair shard %d replica %d breaker %v", si, ri, s)
			}
		}
	}
	for i := 0; i < 20; i++ {
		a, b := rng.NormFloat64(), rng.Float64()
		got := e.HalfplaneRecs(a, b)
		ans, err := ref.Query(Query{Op: OpHalfplane, A: a, B: b})
		if err != nil || !recsEqual(got, ans.Recs) {
			t.Fatalf("post-repair sweep diverged (err %v)", err)
		}
	}
}

// TestHedgedBreakerZeroAllocs pins the robustness acceptance bound:
// with the full fault stack armed — deadline guard, a hedge delay so
// small every run hedges its replicated shards, breakers judging every
// sub-batch, and a live brownout plan on one replica — the steady-state
// query path still performs zero heap allocations. Hedge losers can
// straggle past a run's return, so the arena pool is deepened first by
// a concurrent warm phase.
func TestHedgedBreakerZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := workload.Uniform2(rng, 20_000)
	reg := metrics.NewRegistry()
	e := NewPlanar(pts, Options{
		Shards: 8, BlockSize: 128, Seed: 1, Partitioner: partition.NewKDCut(),
		Metrics:  reg,
		Deadline: time.Hour, HedgeAfter: time.Nanosecond,
		Breaker: &BreakerConfig{Threshold: 3, Cooldown: time.Millisecond},
	})
	t.Cleanup(e.Close)
	if err := e.Replicate(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := e.Replicate(3, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectFaults(0, 1, eio.FaultPlan{Seed: 3, BrownoutProb: 0.01, BrownoutStall: time.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	qs := make([]Query, 8)
	for i := range qs {
		h := workload.HalfplaneWithSelectivity(rng, pts, 0.01)
		qs[i] = Query{Op: OpHalfplane, A: h.A, B: h.B}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			one := make([]Query, 1)
			res := make([]Result, 0, 1)
			for i := 0; i < 100; i++ {
				one[0] = qs[i%len(qs)]
				res = e.BatchInto(one, res[:0])
				if res[0].Err != nil {
					t.Error(res[0].Err)
					return
				}
			}
		}()
	}
	wg.Wait()

	one := make([]Query, 1)
	res := make([]Result, 0, 1)
	i := 0
	pass := func() {
		for j := 0; j < len(qs); j++ {
			one[0] = qs[i%len(qs)]
			i++
			res = e.BatchInto(one, res[:0])
			if res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
		}
	}
	// A hedge loser that straggles past its run's return keeps its
	// reference on the arena and returns it to the free list itself, so
	// the list keeps being reshuffled: for a while a run may pop an arena
	// whose slot buffers have not yet held that query's answer, or — when
	// every pooled arena still has a straggler inside — find the list
	// empty and make one. Each such first meeting allocates once and never
	// again, so a single 20-run window after a fixed warm-up measures the
	// warm-up's luck, not the path. The bound is on the steady state:
	// within a bounded number of windows, three in a row must read
	// exactly zero allocs/op (a path that allocates per query never
	// produces one).
	const name = "halfplane with hedging+deadline+breakers+faults armed"
	quiet, worst := 0, 0.0
	for round := 0; round < 100 && quiet < 3; round++ {
		if n := testing.AllocsPerRun(20, pass); n == 0 {
			quiet++
		} else {
			quiet, worst = 0, max(worst, n)
		}
	}
	if quiet < 3 {
		t.Errorf("%s: no 3 consecutive zero-alloc windows in 100 (worst %.1f allocs/op), want 0", name, worst)
	}
	if hedges, _ := reg.Snapshot().Value("engine_hedges_total", ""); hedges == 0 {
		t.Fatal("1ns hedge delay never fired — the measured path was not the hedged one")
	}
}

// waitFor polls cond for up to 2s (the events waited on here — a
// goroutine's exit, a straggler's unref — are microseconds away).
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestCloseLeavesNoGoroutines pins the engine's goroutine budget: a
// built engine runs one worker per physical copy plus the watchdog and
// nothing else — whatever robustness options are armed — and Close
// returns only after all of them, abandoned stragglers and hedge losers
// included, have exited.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	pts := workload.Uniform2(rng, 4_000)
	h := workload.HalfplaneWithSelectivity(rng, pts, 0.2)
	qs := []Query{{Op: OpHalfplane, A: h.A, B: h.B}}
	// A replica this sick blows a 1ms deadline (the run degrades and
	// leaves a straggler) and loses every 20µs hedge race.
	sick := eio.FaultPlan{StuckEvery: 1, StuckStall: 200 * time.Microsecond}
	ref := NewPlanar(pts, Options{BlockSize: 32, Seed: 5})
	want := ref.Batch(qs)[0].IDs
	ref.Close()

	for _, c := range []struct {
		name     string
		opt      Options
		replicas int
		want     int // goroutines of the built engine
	}{
		{"plain", Options{}, 1, 2},
		{"deadline", Options{Deadline: time.Millisecond}, 1, 2},
		{"hedged", Options{HedgeAfter: 20 * time.Microsecond}, 2, 4},
		{"watchdog", Options{Watchdog: &WatchdogConfig{Interval: time.Millisecond}}, 1, 3},
	} {
		before := runtime.NumGoroutine()
		c.opt.Shards, c.opt.BlockSize, c.opt.Seed = 2, 32, 5
		e := NewPlanar(pts, c.opt)
		for si := 0; si < 2; si++ {
			if err := e.Replicate(si, c.replicas); err != nil {
				t.Fatal(err)
			}
		}
		if !waitFor(func() bool { return runtime.NumGoroutine() <= before+c.want }) {
			t.Errorf("%s: built engine runs %d goroutines, want %d (one per copy, plus the watchdog)",
				c.name, runtime.NumGoroutine()-before, c.want)
		}
		if err := e.InjectFaults(0, 0, sick); err != nil {
			t.Fatal(err)
		}
		var degraded bool
		for i := 0; i < 4; i++ {
			res := e.Batch(qs)
			if res[0].Err != nil {
				t.Fatalf("%s: %v", c.name, res[0].Err)
			}
			degraded = degraded || res[0].Degraded
			if !res[0].Degraded && !equalInts(res[0].IDs, want) {
				t.Fatalf("%s: complete answer changed behind a sick replica", c.name)
			}
		}
		if c.opt.Deadline > 0 && !degraded {
			t.Errorf("%s: no run degraded behind the sick replica — Close had no straggler to wait out", c.name)
		}
		e.Close()
		if !waitFor(func() bool { return runtime.NumGoroutine() <= before }) {
			t.Errorf("%s: %d goroutines outlive Close", c.name, runtime.NumGoroutine()-before)
		}
	}
}

// TestStragglerDoesNotPinOtherArenas: a degraded run's straggler holds
// only its own arena. Run 1 is abandoned at the deadline while one
// replica sits on its sub-batch indefinitely — the test parks it by
// holding the replica's mutex, the lock every device access happens
// under, so "the long straggler is still running" is a fact rather than
// a timing guess. Every later run also leaves a (brief) straggler on
// another shard, and each of those arenas must come back to the free
// list on its own while the first is still out: the engine makes exactly
// one more arena, not one per run. Once the long straggler finishes, its
// arena returns too.
func TestStragglerDoesNotPinOtherArenas(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	pts := workload.Uniform2(rng, 8_000)
	e := NewPlanar(pts, Options{
		Shards: 4, BlockSize: 32, Seed: 6, Partitioner: partition.NewKDCut(),
		Deadline: time.Millisecond, Metrics: metrics.NewRegistry(),
	})
	defer e.Close()
	freeArenas := func() int {
		e.arenaMu.Lock()
		defer e.arenaMu.Unlock()
		return len(e.arenas)
	}

	// all visits every shard; low is planned away from at least one
	// (stuck, where run 1's straggler parks) and onto another (busy,
	// where the later runs leave their brief ones).
	all := []Query{{Op: OpHalfplane, A: 0, B: 2}}
	low := []Query{{Op: OpHalfplane, A: 0, B: 0.2}}
	var ex Explain
	e.ExplainInto(low[0], &ex)
	stuck, busy := -1, -1
	for si, v := range ex.Verdicts {
		if v == planner.VerdictVisited {
			busy = si
		} else {
			stuck = si
		}
	}
	if stuck < 0 || busy < 0 {
		t.Fatalf("layout gives the low query no pruned and visited shard pair: verdicts %v", ex.Verdicts)
	}

	e.Batch(all) // warm one arena
	if !waitFor(func() bool { return freeArenas() == 1 }) {
		t.Fatalf("warm-up left %d arenas on the free list, want 1", freeArenas())
	}
	rep := e.shards[stuck].reps[0]
	var unpark sync.Once
	rep.mu.Lock()
	defer unpark.Do(rep.mu.Unlock)
	res := e.Batch(all)
	// (A loaded machine may make a healthy shard miss the 1ms deadline
	// too; its straggler is brief and shares run 1's arena.)
	if !res[0].Degraded || !subsetInts([]int{stuck}, res[0].Missing) {
		t.Fatalf("run behind the parked replica: degraded=%v missing=%v, want shard %d missing",
			res[0].Degraded, res[0].Missing, stuck)
	}
	fresh := e.met.arenaFresh.Load()

	if err := e.InjectFaults(busy, 0, eio.FaultPlan{StuckEvery: 1, StuckStall: 200 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	stragglers := 0
	for i := 0; i < 8; i++ {
		if res = e.Batch(low); res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
		if res[0].Degraded {
			stragglers++
		}
		if !waitFor(func() bool { return freeArenas() == 1 }) {
			t.Fatalf("run %d: its arena never came back while run 1's straggler is parked (%d free)", i, freeArenas())
		}
	}
	if stragglers == 0 {
		t.Fatal("no later run degraded — nothing straggled beside the parked sub-batch")
	}
	if rep.inflight.Load() != 1 {
		t.Fatalf("parked replica has %d sub-batches in flight, want run 1's", rep.inflight.Load())
	}
	if got := e.met.arenaFresh.Load() - fresh; got != 1 {
		t.Errorf("engine_arena_fresh_total grew by %d over 8 runs beside one parked straggler, want 1", got)
	}

	unpark.Do(rep.mu.Unlock)
	if !waitFor(func() bool { return freeArenas() == 2 }) {
		t.Errorf("%d arenas on the free list after the parked straggler finished, want 2", freeArenas())
	}
}
