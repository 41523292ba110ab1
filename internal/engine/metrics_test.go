package engine

import (
	"math/rand"
	"testing"

	"linconstraint/internal/metrics"
	"linconstraint/internal/partition"
	"linconstraint/internal/planner"
	"linconstraint/internal/workload"
)

// TestInstrumentedQueryZeroAllocs is the observability contract: with
// metrics AND the flight recorder enabled at a 1ns bound (every run
// captured, the worst case, since a captured run additionally copies its
// per-shard evidence into the slow ring), the steady-state query path
// still performs zero heap allocations.
func TestInstrumentedQueryZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := workload.Uniform2(rng, 20_000)
	reg := metrics.NewRegistry()
	e := NewPlanar(pts, Options{
		Shards: 8, BlockSize: 128, Seed: 1, Partitioner: partition.NewKDCut(),
		Metrics: reg, FlightRecorder: FlightRecorderConfig{TotalNs: 1},
	})
	t.Cleanup(e.Close)
	qs := make([]Query, 8)
	for i := range qs {
		h := workload.HalfplaneWithSelectivity(rng, pts, 0.01)
		qs[i] = Query{Op: OpHalfplane, A: h.A, B: h.B}
	}
	one := make([]Query, 1)
	res := make([]Result, 0, 1)
	i := 0
	assertZeroAllocs(t, "instrumented single-query BatchInto", func() {
		for j := 0; j < len(qs); j++ {
			one[0] = qs[i%len(qs)]
			i++
			res = e.BatchInto(one, res[:0])
			if res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
		}
	})
	batch := make([]Query, 32)
	for i := range batch {
		batch[i] = qs[i%len(qs)]
	}
	bres := make([]Result, 0, len(batch))
	assertZeroAllocs(t, "instrumented batch BatchInto", func() {
		bres = e.BatchInto(batch, bres[:0])
	})
	// Polling the slow ring into a reused buffer is allocation-free
	// too, so a telemetry loop does not perturb what it measures.
	var slow []SlowTrace
	assertZeroAllocs(t, "SlowQueries into reused dst", func() {
		slow = e.SlowQueries(slow[:0])
	})
	if len(slow) == 0 {
		t.Fatal("no runs captured under a 1ns bound")
	}
}

// TestEngineMetricsContent checks the instruments actually move: run
// timings, plan verdicts, shard visits, and the collector's per-shard
// read rollup.
func TestEngineMetricsContent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := workload.Uniform2(rng, 4_000)
	reg := metrics.NewRegistry()
	e := NewPlanar(pts, Options{
		Shards: 4, BlockSize: 64, Seed: 1, Partitioner: partition.NewKDCut(),
		Metrics: reg, FlightRecorder: FlightRecorderConfig{TotalNs: 1},
	})
	defer e.Close()
	const runs = 10
	for i := 0; i < runs; i++ {
		h := workload.HalfplaneWithSelectivity(rng, pts, 0.05)
		ask(t, e, Query{Op: OpHalfplane, A: h.A, B: h.B})
	}
	snap := reg.Snapshot()
	h := snap.Histogram("engine_run_total_ns")
	if h == nil || h.Count != runs {
		t.Fatalf("engine_run_total_ns: %+v, want count %d", h, runs)
	}
	if h.Quantile(0.99) <= 0 {
		t.Fatal("engine_run_total_ns p99 is zero")
	}
	// Plan verdicts: every shard of every run gets one, so the
	// halfplane row of the matrix sums to shards × runs.
	var vis, all float64
	for _, c := range snap.Counters {
		if c.Name == "engine_plan_verdicts_total" && c.LabelVal == "halfplane" {
			all += c.Value
			if c.LabelVal2 == planner.VerdictVisited.String() {
				vis = c.Value
			}
		}
	}
	if all != float64(4*runs) {
		t.Fatalf("halfplane verdicts sum to %v, want %d", all, 4*runs)
	}
	// Shard-visit counters agree with the visited verdicts.
	var shardSum float64
	for i := 0; i < 4; i++ {
		v, ok := snap.Value("engine_shard_visits_total", metrics.ShardLabels(4)[i])
		if !ok {
			t.Fatalf("missing engine_shard_visits_total slot %d", i)
		}
		shardSum += v
	}
	if shardSum != vis {
		t.Fatalf("shard visit sum %v != visited %v", shardSum, vis)
	}
	// The scrape collector exports per-shard device rollups.
	if _, ok := snap.Value("engine_shard_io_reads_total", "0"); !ok {
		t.Fatal("collector did not export engine_shard_io_reads_total{shard=0}")
	}
	// Captured runs carry the run's I/O and plan stats.
	traces := e.SlowQueries(nil)
	if len(traces) != runs {
		t.Fatalf("%d captures under a 1ns bound, want %d", len(traces), runs)
	}
	last := traces[len(traces)-1]
	if last.Op != OpHalfplane || last.Queries != 1 {
		t.Fatalf("trace %+v: want halfplane scalar run", last)
	}
	if last.ShardsVisited+last.ShardsPruned != 4 {
		t.Fatalf("trace verdicts %d+%d != 4", last.ShardsVisited, last.ShardsPruned)
	}
	if last.IO.Reads <= 0 {
		t.Fatalf("trace captured no I/O: %+v", last.IO)
	}
	if last.TotalNs <= 0 || last.TotalNs < last.MergeNs {
		t.Fatalf("trace timing inconsistent: %+v", last)
	}
	for i := 1; i < len(traces); i++ {
		if traces[i].Seq != traces[i-1].Seq+1 {
			t.Fatalf("trace seqs not consecutive: %d then %d", traces[i-1].Seq, traces[i].Seq)
		}
	}
}

// TestFlightRecorderWithoutRegistry pins that the flight recorder alone
// (no caller registry) works — instruments land in a private registry,
// and every run over the bound is captured once.
func TestFlightRecorderWithoutRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := workload.Uniform2(rng, 1_000)
	e := NewPlanar(pts, Options{Shards: 2, Seed: 1, FlightRecorder: FlightRecorderConfig{TotalNs: 1}})
	defer e.Close()
	ask(t, e, Query{Op: OpHalfplane, A: 0.3, B: 0.1})
	if got := e.SlowQueries(nil); len(got) != 1 {
		t.Fatalf("got %d captures, want 1", len(got))
	}
	ask(t, e, Query{Op: OpHalfplane, A: 0.2, B: 0.4})
	if got := e.SlowQueries(nil); len(got) != 2 {
		t.Fatalf("got %d captures after two runs, want 2", len(got))
	}
	if e.Metrics() == nil {
		t.Fatal("flight-only engine reports no registry")
	}
}

// TestUninstrumentedEngineNoTraces pins the nil path: no Options.Metrics,
// FlightRecorder or Watchdog means no instruments and no captures.
func TestUninstrumentedEngineNoTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := workload.Uniform2(rng, 500)
	e := NewPlanar(pts, Options{Shards: 2, Seed: 1})
	defer e.Close()
	ask(t, e, Query{Op: OpHalfplane, A: 0.3, B: 0.1})
	if got := e.SlowQueries(nil); len(got) != 0 {
		t.Fatalf("uninstrumented engine captured %d runs", len(got))
	}
	if e.Metrics() != nil {
		t.Fatal("uninstrumented engine reports a registry")
	}
}

// TestStatsWorstEmpty pins the satellite guard: Worst on a zero-value
// Stats (or one with a corrupt WorstShard) returns the zero snapshot
// instead of panicking.
func TestStatsWorstEmpty(t *testing.T) {
	var s Stats
	if got := s.Worst(); got != (ShardStats{}) {
		t.Fatalf("zero Stats.Worst() = %+v, want zero", got)
	}
	s.WorstShard = 5
	s.PerShard = make([]ShardStats, 2)
	if got := s.Worst(); got != (ShardStats{}) {
		t.Fatalf("out-of-range WorstShard: got %+v, want zero", got)
	}
	s.WorstShard = 1
	s.PerShard[1].SpaceBlocks = 7
	if got := s.Worst(); got.SpaceBlocks != 7 {
		t.Fatalf("valid Worst() = %+v", got)
	}
}
