package engine

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"linconstraint/internal/metrics"
	"linconstraint/internal/partition"
	"linconstraint/internal/planner"
	"linconstraint/internal/workload"
)

// fullyInstrumented builds a planar engine with every observability
// subsystem on: metrics, 1-in-1 trace sampling, flight recorder, the
// windowed views, and a fast-ticking watchdog whose thresholds are set
// to trip constantly — the harshest instrumentation load the engine
// supports. The robustness guards are armed too (deadline, hedge timer,
// per-replica breakers) at bounds that never fire, so every run arms
// both await timers and feeds the breakers evidence without changing
// behavior.
func fullyInstrumented(t *testing.T, flight FlightRecorderConfig) (*Engine, []Query, *metrics.Registry) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	pts := workload.Uniform2(rng, 20_000)
	reg := metrics.NewRegistry()
	e := NewPlanar(pts, Options{
		Shards: 8, BlockSize: 128, Seed: 1, Partitioner: partition.NewKDCut(),
		Metrics: reg, TraceEvery: 1, TraceBuf: 16,
		FlightRecorder: flight,
		WindowSlots:    4, WindowInterval: 100 * time.Millisecond,
		Deadline: time.Hour, HedgeAfter: time.Hour,
		Breaker: &BreakerConfig{},
		Watchdog: &WatchdogConfig{
			Interval: time.Millisecond, Buf: 32,
			MaxSkew: 0.5, HotShardShare: 0.01, ReplicaImbalance: 1.0001,
			LatencyP99Ns: 1, MeanShardsVisited: 0.0001,
		},
	})
	t.Cleanup(e.Close)
	qs := make([]Query, 8)
	for i := range qs {
		h := workload.HalfplaneWithSelectivity(rng, pts, 0.01)
		qs[i] = Query{Op: OpHalfplane, A: h.A, B: h.B}
	}
	return e, qs, reg
}

// TestInstrumentedExplainZeroAllocs pins the PR-8 contract: with the
// flight recorder armed, explain counters flushing, windowed views
// observing, and the watchdog ticking every millisecond (with every
// threshold tripping, so the event-emit path runs too), the
// steady-state query path still performs zero heap allocations.
func TestInstrumentedExplainZeroAllocs(t *testing.T) {
	// Bounds high enough that steady-state runs never trip — the
	// always-on capture is what's under test, not the capture copy
	// (TestFlightRecorderZeroAllocCapture covers that).
	e, qs, _ := fullyInstrumented(t, FlightRecorderConfig{TotalNs: int64(time.Hour)})
	// Let the watchdog warm its scratch (first tick allocates the skew
	// union buffers and the replica-read snapshots).
	time.Sleep(20 * time.Millisecond)
	one := make([]Query, 1)
	res := make([]Result, 0, 1)
	i := 0
	assertZeroAllocs(t, "halfplane with flight+explain+watchdog", func() {
		for j := 0; j < len(qs); j++ {
			one[0] = qs[i%len(qs)]
			i++
			res = e.BatchInto(one, res[:0])
			if res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
		}
	})
	if n := e.Health(nil); len(n) == 0 {
		t.Fatal("watchdog tripped no events despite impossible thresholds")
	}
}

// TestFlightRecorderZeroAllocCapture pins that even runs which DO trip
// a bound (so every run is captured into the slow ring) allocate
// nothing, and that polling SlowQueries with reused storage is free.
func TestFlightRecorderZeroAllocCapture(t *testing.T) {
	e, qs, _ := fullyInstrumented(t, FlightRecorderConfig{TotalNs: 1, Buf: 8})
	time.Sleep(20 * time.Millisecond)
	one := make([]Query, 1)
	res := make([]Result, 0, 1)
	i := 0
	assertZeroAllocs(t, "every-run flight capture", func() {
		one[0] = qs[i%len(qs)]
		i++
		res = e.BatchInto(one, res[:0])
	})
	dst := e.SlowQueries(nil)
	if len(dst) == 0 {
		t.Fatal("no slow captures despite a 1ns bound")
	}
	assertZeroAllocs(t, "SlowQueries polling with reused dst", func() {
		dst = e.SlowQueries(dst[:0])
	})
}

// TestFlightRecorderForcedSlow is the acceptance path: a run forced
// slow by elevated per-miss device latency appears in SlowQueries with
// its trip reasons, a complete per-shard trace, and per-shard prune
// verdicts.
func TestFlightRecorderForcedSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := workload.Uniform2(rng, 20_000)
	e := NewPlanar(pts, Options{
		Shards: 4, BlockSize: 128, Seed: 1, Partitioner: partition.NewKDCut(),
		// Every cache miss stalls 200µs (eio.Device.SetMissLatency), so
		// any real query blows far past the 50µs latency bound; the
		// 1-block I/O bound trips alongside it.
		IOLatency:      200 * time.Microsecond,
		FlightRecorder: FlightRecorderConfig{TotalNs: 50_000, ShardIOs: 1, Buf: 8},
	})
	defer e.Close()
	h := workload.HalfplaneWithSelectivity(rng, pts, 0.02)
	res := e.Batch([]Query{{Op: OpHalfplane, A: h.A, B: h.B}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	slow := e.SlowQueries(nil)
	if len(slow) == 0 {
		t.Fatal("forced-slow run not captured")
	}
	st := slow[len(slow)-1]
	if st.Reason&SlowTotalNs == 0 {
		t.Errorf("reason %v lacks total_ns (TotalNs=%d)", st.Reason, st.TotalNs)
	}
	if st.Reason&SlowShardIO == 0 {
		t.Errorf("reason %v lacks shard_io", st.Reason)
	}
	if !strings.Contains(st.Reason.String(), "total_ns") {
		t.Errorf("reason string %q", st.Reason.String())
	}
	if st.StartUnixNano == 0 || st.TotalNs < 50_000 {
		t.Errorf("timing not captured: start=%d total=%d", st.StartUnixNano, st.TotalNs)
	}
	if len(st.PerShard) != e.NumShards() {
		t.Fatalf("per-shard trace has %d entries, want %d", len(st.PerShard), e.NumShards())
	}
	verdicts, visits := int32(0), 0
	for si, ps := range st.PerShard {
		if ps.Shard != si {
			t.Fatalf("per-shard entry %d names shard %d", si, ps.Shard)
		}
		var n int32
		for _, c := range ps.Verdicts {
			n += c
		}
		verdicts += n
		if ps.Verdicts[planner.VerdictVisited] > 0 {
			visits++
			if ps.Replica != 0 {
				t.Errorf("shard %d visited by replica %d, want primary", si, ps.Replica)
			}
			if ps.IO.Reads == 0 {
				t.Errorf("visited shard %d recorded no reads", si)
			}
		} else if ps.Replica != -1 {
			t.Errorf("pruned shard %d has replica %d, want -1", si, ps.Replica)
		}
	}
	// One query: every shard got exactly one verdict.
	if verdicts != int32(e.NumShards()) {
		t.Errorf("verdict total %d, want %d", verdicts, e.NumShards())
	}
	if visits != st.ShardsVisited {
		t.Errorf("per-shard visits %d disagree with trace %d", visits, st.ShardsVisited)
	}
	if got, ok := e.Metrics().Snapshot().Value("engine_slow_captures_total", ""); !ok || got < 1 {
		t.Errorf("engine_slow_captures_total = %v (ok=%v)", got, ok)
	}
}

// TestSlowRingWraparound fills the ring past capacity and checks the
// snapshot holds the newest Buf captures, oldest first.
func TestSlowRingWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := workload.Uniform2(rng, 5_000)
	e := NewPlanar(pts, Options{
		Shards: 4, Seed: 1, Partitioner: partition.NewKDCut(),
		FlightRecorder: FlightRecorderConfig{TotalNs: 1, Buf: 3}, // every run trips
	})
	defer e.Close()
	for i := 0; i < 10; i++ {
		h := workload.HalfplaneWithSelectivity(rng, pts, 0.01)
		e.Batch([]Query{{Op: OpHalfplane, A: h.A, B: h.B}})
	}
	slow := e.SlowQueries(nil)
	if len(slow) != 3 {
		t.Fatalf("ring holds %d, want capacity 3", len(slow))
	}
	for i := range slow {
		if i > 0 && slow[i].Seq != slow[i-1].Seq+1 {
			t.Fatalf("snapshot not consecutive oldest-first: %d after %d", slow[i].Seq, slow[i-1].Seq)
		}
	}
	if slow[len(slow)-1].Seq != 10 {
		t.Fatalf("newest capture Seq %d, want 10", slow[len(slow)-1].Seq)
	}
}

// TestExplainCounters checks the (op × verdict) matrix: a selective
// halfplane workload prunes geometrically, a k-NN workload attributes
// its runtime cutoff, and the matrix totals agree with the aggregate
// visited/pruned counters.
func TestExplainCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := workload.Uniform2(rng, 20_000)
	reg := metrics.NewRegistry()
	e := NewKNN(pts, Options{Shards: 8, Seed: 1, Partitioner: partition.NewKDCut(), Metrics: reg})
	defer e.Close()
	for i := 0; i < 32; i++ {
		e.KNN(4, pts[rng.Intn(len(pts))])
	}
	snap := reg.Snapshot()
	visited, _ := snap.Value2("engine_plan_verdicts_total", "knn", planner.VerdictVisited.String())
	cutoff, _ := snap.Value2("engine_plan_verdicts_total", "knn", planner.VerdictPrunedKNNCutoff.String())
	if visited == 0 {
		t.Fatal("no knn visited verdicts recorded")
	}
	if cutoff == 0 {
		t.Fatal("no knn runtime-cutoff verdicts recorded (k=4 over 8 shards should cut off)")
	}
	aggVisited, _ := snap.Value("engine_plan_visited_total", "knn")
	aggPruned, _ := snap.Value("engine_plan_pruned_total", "knn")
	if visited != aggVisited {
		t.Errorf("verdict visited %v != aggregate %v", visited, aggVisited)
	}
	empty, _ := snap.Value2("engine_plan_verdicts_total", "knn", planner.VerdictPrunedEmpty.String())
	if cutoff+empty != aggPruned {
		t.Errorf("cutoff %v + empty %v != aggregate pruned %v", cutoff, empty, aggPruned)
	}
}

// TestExplainInto checks the on-demand explain: per-shard verdicts
// against the live summaries, k-NN distance keys, and zero-alloc reuse.
func TestExplainInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := workload.Uniform2(rng, 20_000)
	e := NewPlanar(pts, Options{Shards: 8, Seed: 1, Partitioner: partition.NewKDCut(), Metrics: metrics.NewRegistry()})
	defer e.Close()
	h := workload.HalfplaneWithSelectivity(rng, pts, 0.01)
	q := Query{Op: OpHalfplane, A: h.A, B: h.B}
	var ex Explain
	e.ExplainInto(q, &ex)
	if len(ex.Verdicts) != e.NumShards() {
		t.Fatalf("explain has %d verdicts, want %d", len(ex.Verdicts), e.NumShards())
	}
	pruned := 0
	for _, v := range ex.Verdicts {
		if v.Pruned() {
			pruned++
		}
	}
	if pruned == 0 {
		t.Fatal("a selective halfplane over a KD layout should prune some shard")
	}
	// The explain agrees with what a real run reports.
	res := e.Batch([]Query{q})
	if res[0].ShardsPruned != pruned {
		t.Errorf("explain pruned %d, run pruned %d", pruned, res[0].ShardsPruned)
	}
	e.ExplainInto(q, &ex) // warm
	assertZeroAllocs(t, "ExplainInto with reused Explain", func() {
		e.ExplainInto(q, &ex)
	})
}

// TestWatchdogHealthAndShutdown checks the watchdog's event stream and
// its Close ordering: tripping thresholds emit typed events with the
// matching counter vector, and Close stops the goroutine synchronously.
func TestWatchdogHealthAndShutdown(t *testing.T) {
	e, qs, reg := fullyInstrumented(t, FlightRecorderConfig{TotalNs: int64(time.Hour)})
	res := make([]Result, 0, len(qs))
	for i := 0; i < 8; i++ {
		res = e.BatchInto(qs, res[:0])
	}
	// Poll until the kinds asserted below are all present: ticks before
	// the runs already emit skew events, so an event count says nothing
	// about whether a tick has seen the runs' SLO burn yet.
	deadline := time.Now().Add(2 * time.Second)
	var evs []HealthEvent
	for {
		evs = e.Health(evs[:0])
		skew, burn := false, false
		for _, ev := range evs {
			skew = skew || ev.Kind == HealthSkew
			burn = burn || ev.Kind == HealthLatencyBurn || ev.Kind == HealthVisitedBurn
		}
		if skew && burn || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(evs) == 0 {
		t.Fatal("no health events despite impossible thresholds")
	}
	kinds := map[HealthKind]bool{}
	for _, ev := range evs {
		kinds[ev.Kind] = true
		if ev.UnixNano == 0 {
			t.Fatalf("event %v has no timestamp", ev.Kind)
		}
		if ev.Kind == HealthSkew && ev.Shard < 0 {
			t.Fatalf("skew event should name the heaviest shard, got %d", ev.Shard)
		}
	}
	if !kinds[HealthSkew] {
		t.Error("MaxSkew 0.5 (always tripped) emitted no skew event")
	}
	if !kinds[HealthLatencyBurn] && !kinds[HealthVisitedBurn] {
		t.Error("SLO bounds near zero emitted no burn event")
	}
	snap := reg.Snapshot()
	for k := range kinds {
		if got, ok := snap.Value("engine_health_events_total", k.String()); !ok || got == 0 {
			t.Errorf("engine_health_events_total{kind=%q} = %v (ok=%v)", k.String(), got, ok)
		}
	}
	if got, _ := snap.Value("engine_slo_evals_total", ""); got == 0 {
		t.Error("SLO burn accounting never evaluated")
	}
	if got, _ := snap.Value("engine_watchdog_ticks_total", ""); got == 0 {
		t.Error("watchdog tick counter never moved")
	}
	// Close must stop the watchdog synchronously (no tick after Close).
	e.Close()
	n := len(e.Health(nil))
	time.Sleep(20 * time.Millisecond)
	if after := len(e.Health(nil)); after != n {
		t.Fatalf("watchdog still ticking after Close: %d -> %d events", n, after)
	}
}

// TestConcurrentScrapeWhileQuerying races queries against every
// consumer surface at once — prom scrapes (which run the shard-IO
// collector), trace/slow/health polling with reused buffers — under
// the race detector.
func TestConcurrentScrapeWhileQuerying(t *testing.T) {
	e, qs, reg := fullyInstrumented(t, FlightRecorderConfig{TotalNs: 1, Buf: 8})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		res := make([]Result, 0, len(qs))
		for {
			select {
			case <-stop:
				return
			default:
			}
			res = e.BatchInto(qs, res[:0])
		}
	}()
	go func() {
		defer wg.Done()
		var sb strings.Builder
		var traces []Trace
		var slow []SlowTrace
		var health []HealthEvent
		for {
			select {
			case <-stop:
				return
			default:
			}
			sb.Reset()
			reg.WriteProm(&sb)
			if err := metrics.CheckProm([]byte(sb.String())); err != nil {
				t.Errorf("exposition invalid under load: %v", err)
				return
			}
			traces = e.Traces(traces[:0])
			slow = e.SlowQueries(slow[:0])
			health = e.Health(health[:0])
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if len(e.SlowQueries(nil)) == 0 {
		t.Error("no slow captures under a 1ns bound")
	}
}

// TestScrapeRollupIncludesLateReplicas pins the scrape-time rollup
// contract against replication: devices created by Replicate AFTER the
// collector was registered (eio.NewDeviceLike clones) must appear in
// the per-shard I/O rollups — the rollup walks the live replica set at
// scrape time, not a construction-time snapshot.
func TestScrapeRollupIncludesLateReplicas(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := workload.Uniform2(rng, 10_000)
	reg := metrics.NewRegistry()
	e := NewPlanar(pts, Options{Shards: 4, Seed: 1, Partitioner: partition.NewKDCut(), Metrics: reg})
	defer e.Close()
	h := workload.HalfplaneWithSelectivity(rng, pts, 0.05)
	e.Batch([]Query{{Op: OpHalfplane, A: h.A, B: h.B}})
	before, ok := reg.Snapshot().Value("engine_shard_io_reads_total", "0")
	if !ok {
		t.Fatal("shard 0 rollup missing before replication")
	}
	if err := e.Replicate(0, 3); err != nil {
		t.Fatal(err)
	}
	// Drive concurrent batches so the least-loaded pick spreads reads
	// across the clones' fresh devices.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qs := []Query{{Op: OpHalfplane, A: h.A, B: h.B}}
			res := make([]Result, 0, 1)
			for i := 0; i < 200; i++ {
				res = e.BatchInto(qs, res[:0])
			}
		}()
	}
	wg.Wait()
	snap := reg.Snapshot()
	after, _ := snap.Value("engine_shard_io_reads_total", "0")
	if after <= before {
		t.Fatalf("shard 0 read rollup did not grow after replication: %v -> %v", before, after)
	}
	// The rollup must equal the live per-replica sum (clones included).
	var want float64
	for _, rep := range e.shards[0].reps {
		want += float64(rep.idx.Stats().IO.Reads)
	}
	if after != want {
		t.Fatalf("rollup %v != live replica sum %v (late devices missing from scrape)", after, want)
	}
	if reps, _ := snap.Value("engine_shard_replicas", "0"); reps != 3 {
		t.Fatalf("engine_shard_replicas{shard=0} = %v, want 3", reps)
	}
}

// TestWindowedEngineSeries checks the engine's windowed series appear
// in the exposition as gauges and age with the clock.
func TestWindowedEngineSeries(t *testing.T) {
	e, qs, reg := fullyInstrumented(t, FlightRecorderConfig{TotalNs: int64(time.Hour)})
	res := make([]Result, 0, len(qs))
	for i := 0; i < 4; i++ {
		res = e.BatchInto(qs, res[:0])
	}
	var sb strings.Builder
	reg.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{"engine_run_total_ns_win_count", "engine_run_total_ns_win_p99",
		"engine_query_shards_visited_win_p50"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if strings.Contains(out, "engine_run_total_ns_win_bucket") {
		t.Error("windowed series must not export cumulative buckets")
	}
	hs := reg.Snapshot().Histogram("engine_run_total_ns_win")
	if hs == nil || !hs.Window || hs.Count == 0 {
		t.Fatalf("windowed snapshot: %+v", hs)
	}
	// The window (4 × 100ms) forgets traffic after it goes idle.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if c := reg.Snapshot().Histogram("engine_run_total_ns_win").Count; c == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("windowed count never aged out")
		}
		time.Sleep(50 * time.Millisecond)
	}
}
