package linconstraint

// One benchmark per table row and figure of the paper (DESIGN.md §4
// experiment index), each delegating to the harness experiment and
// reporting the fitted growth exponents as benchmark metrics, plus
// micro-benchmarks of the individual query paths. Benchmarks run the
// experiments at quick scale so `go test -bench=.` stays tractable;
// cmd/lcbench runs the experiments at full scale, and `go run ./bench`
// is the end-to-end perf ledger for the query paths.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"linconstraint/internal/harness"
	"linconstraint/internal/workload"
)

func runExperiment(b *testing.B, fn func(harness.Config) harness.Result) {
	b.Helper()
	var res harness.Result
	for i := 0; i < b.N; i++ {
		res = fn(harness.Config{Seed: 1, Quick: true})
	}
	for _, f := range res.Fits {
		b.ReportMetric(f.Exponent, "exp:"+sanitizeMetric(f.Label))
	}
	if res.Pass {
		b.ReportMetric(1, "pass")
	} else {
		b.ReportMetric(0, "pass")
		b.Logf("%s did not meet its criterion: %s", res.ID, res.Why)
	}
}

func sanitizeMetric(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, s)
}

// --- Table 1 rows ---------------------------------------------------------

func BenchmarkTable1Row2D(b *testing.B)        { runExperiment(b, harness.E1) }
func BenchmarkTable1Row3DOptimal(b *testing.B) { runExperiment(b, harness.E2) }
func BenchmarkTable1RowPartition(b *testing.B) { runExperiment(b, harness.E3) }
func BenchmarkTable1RowShallow(b *testing.B)   { runExperiment(b, harness.E4) }
func BenchmarkTable1RowHybrid(b *testing.B)    { runExperiment(b, harness.E5) }

// --- Lemmas and baselines ---------------------------------------------------

func BenchmarkConflictListSizes(b *testing.B)    { runExperiment(b, harness.E6) }
func BenchmarkCrossingNumber(b *testing.B)       { runExperiment(b, harness.E7) }
func BenchmarkShallowCrossing(b *testing.B)      { runExperiment(b, harness.E8) }
func BenchmarkAdversarialBaselines(b *testing.B) { runExperiment(b, harness.E9) }
func BenchmarkKNN(b *testing.B)                  { runExperiment(b, harness.E10) }

// --- Figures ----------------------------------------------------------------

func BenchmarkFigure1Duality(b *testing.B)     { runExperiment(b, harness.F1) }
func BenchmarkFigure2Levels(b *testing.B)      { runExperiment(b, harness.F2) }
func BenchmarkFigure3Cluster(b *testing.B)     { runExperiment(b, harness.F3) }
func BenchmarkFigure45Invariants(b *testing.B) { runExperiment(b, harness.F45) }
func BenchmarkFigure6Partition(b *testing.B)   { runExperiment(b, harness.F6) }

// --- Micro-benchmarks of the public query paths -----------------------------

func benchPoints2(n int) []Point2 {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point2, n)
	for i := range pts {
		pts[i] = Point2{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

func BenchmarkPlanarHalfplaneQuery(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			idx := NewPlanarIndex(benchPoints2(n), Config{BlockSize: 64, Seed: 1})
			rng := rand.New(rand.NewSource(2))
			idx.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := rng.NormFloat64() * 0.2
				idx.Halfplane(a, 0.05)
			}
			b.ReportMetric(float64(idx.Stats().IOs())/float64(b.N), "IOs/op")
		})
	}
}

func BenchmarkIndex3DHalfspaceQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 1 << 12
	pts := make([]Point3, n)
	for i := range pts {
		pts[i] = Point3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	idx := NewIndex3D(pts, Window{XMin: -2, XMax: 2, YMin: -2, YMax: 2}, Config{BlockSize: 64, Seed: 1})
	idx.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Halfspace(rng.NormFloat64()*0.2, rng.NormFloat64()*0.2, 0.05)
	}
	b.ReportMetric(float64(idx.Stats().IOs())/float64(b.N), "IOs/op")
}

func BenchmarkKNNQuery(b *testing.B) {
	idx := NewKNNIndex(benchPoints2(1<<12), Config{BlockSize: 64, Seed: 1})
	rng := rand.New(rand.NewSource(4))
	idx.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Query(16, Point2{X: rng.Float64(), Y: rng.Float64()})
	}
	b.ReportMetric(float64(idx.Stats().IOs())/float64(b.N), "IOs/op")
}

func BenchmarkPartitionTreeQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 1 << 14
	pts := make([]PointD, n)
	for i := range pts {
		pts[i] = PointD{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	tr := NewPartitionTree(pts, Config{BlockSize: 64, Seed: 1})
	tr.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Halfspace([]float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3, 0.05})
	}
	b.ReportMetric(float64(tr.Stats().IOs())/float64(b.N), "IOs/op")
}

func BenchmarkPlanarBuild(b *testing.B) {
	pts := benchPoints2(1 << 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewPlanarIndex(pts, Config{BlockSize: 64, Seed: int64(i)})
	}
}

// --- Sharded engine benchmarks (DESIGN.md §5) -------------------------------

// BenchmarkEngineThroughput compares batched query throughput of the
// sharded engine at 1 vs S shards over the same n = 100k points, with a
// 20µs simulated disk latency per block miss so that, as in a real
// external-memory deployment, concurrency wins by overlapping I/O
// stalls across shards (it also wins CPU-parallel time on multicore).
// Before timing, each configuration's result sets are verified
// byte-identical to the unsharded PlanarIndex.
func BenchmarkEngineThroughput(b *testing.B) {
	const (
		n       = 100_000
		batch   = 32
		latency = 20 * time.Microsecond
	)
	pts := benchPoints2(n)
	ref := NewPlanarIndex(pts, Config{BlockSize: 128, Seed: 1})
	rng := rand.New(rand.NewSource(7))
	queries := make([]workload.Halfplane, 64)
	for i := range queries {
		queries[i] = workload.HalfplaneWithSelectivity(rng, pts, 0.05)
	}

	for _, cfg := range []struct{ shards, workers int }{{1, 1}, {4, 4}, {8, 8}} {
		b.Run(fmt.Sprintf("shards=%d,workers=%d", cfg.shards, cfg.workers), func(b *testing.B) {
			e := NewPlanarEngine(pts, EngineConfig{
				Shards: cfg.shards, Workers: cfg.workers,
				BlockSize: 128, Seed: 1, IOLatency: latency,
			})
			defer e.Close()
			for _, q := range queries[:3] {
				if got, want := e.Halfplane(q.A, q.B), ref.Halfplane(q.A, q.B); !sameInts(got, want) {
					b.Fatalf("sharded result set differs from unsharded (%d vs %d hits)", len(got), len(want))
				}
			}
			e.ResetStats()
			qs := make([]Query, batch)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				for j := range qs {
					hq := queries[(i*batch+j)%len(queries)]
					qs[j] = Query{Op: OpHalfplane, A: hq.A, B: hq.B}
				}
				for _, r := range e.Batch(qs) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			el := time.Since(start).Seconds()
			nq := float64(b.N * batch)
			b.ReportMetric(nq/el, "queries/sec")
			st := e.Stats()
			b.ReportMetric(float64(st.Total.IOs())/nq, "IOs/query")
			b.ReportMetric(float64(st.MaxShardIOs)/nq, "worstShardIOs/query")
		})
	}
}

// BenchmarkEnginePruning measures the shard planner on selective
// halfplane queries (≤1% selectivity) at n = 100k and 8 shards: the
// locality-aware layouts (kd-cut, SFC) must report mean ShardsVisited
// at most 4 — versus the full fan-out of 8 under round-robin — while
// returning byte-identical result sets; the benchmark fails otherwise.
// internal/engine's TestPruningStatsAndEffectiveness asserts the same
// bar in CI at n = 4k.
func BenchmarkEnginePruning(b *testing.B) {
	const (
		n      = 100_000
		shards = 8
		sel    = 0.01
	)
	pts := benchPoints2(n)
	rng := rand.New(rand.NewSource(17))
	queries := make([]workload.Halfplane, 64)
	for i := range queries {
		queries[i] = workload.HalfplaneWithSelectivity(rng, pts, sel)
	}
	baseline := NewPlanarEngine(pts, EngineConfig{
		Shards: shards, Workers: shards, BlockSize: 128, Seed: 1, DisablePlanner: true,
	})
	defer baseline.Close()

	for _, l := range []struct {
		name      string
		mk        func() Partitioner
		mustPrune bool
	}{
		{"layout=roundrobin", RoundRobinLayout, false},
		{"layout=sfc", SFCLayout, true},
		{"layout=kdcut", KDCutLayout, true},
	} {
		b.Run(l.name, func(b *testing.B) {
			e := NewPlanarEngine(pts, EngineConfig{
				Shards: shards, Workers: shards, BlockSize: 128, Seed: 1, Partitioner: l.mk(),
			})
			defer e.Close()
			for _, q := range queries[:8] {
				if got, want := e.Halfplane(q.A, q.B), baseline.Halfplane(q.A, q.B); !sameInts(got, want) {
					b.Fatalf("planned result set differs from unpruned (%d vs %d hits)", len(got), len(want))
				}
			}
			e.ResetStats()
			b.ResetTimer()
			nq := 0
			for i := 0; i < b.N; i++ {
				for _, hq := range queries {
					e.Halfplane(hq.A, hq.B)
					nq++
				}
			}
			st := e.Stats()
			meanVisited := float64(st.ShardsVisited) / float64(nq)
			b.ReportMetric(meanVisited, "shardsVisited/query")
			b.ReportMetric(float64(st.ShardsPruned)/float64(nq), "shardsPruned/query")
			b.ReportMetric(float64(st.Total.IOs())/float64(nq), "IOs/query")
			if l.mustPrune && meanVisited > 4 {
				b.Fatalf("mean shards visited %.2f > 4 at %d shards", meanVisited, shards)
			}
		})
	}
}

// --- Allocation-free hot path (DESIGN.md §7) --------------------------------

// BenchmarkEngineQueryHalfplane measures the steady-state scalar query
// path: one halfplane query per op through BatchInto with reused query
// and result storage on a warmed kd-cut engine. The report must show 0
// allocs/op — the PR-4 contract, also pinned by the engine package's
// TestSteadyState*ZeroAllocs tests.
func BenchmarkEngineQueryHalfplane(b *testing.B) {
	const n = 100_000
	pts := benchPoints2(n)
	e := NewPlanarEngine(pts, EngineConfig{
		Shards: 8, BlockSize: 128, Seed: 1, Partitioner: KDCutLayout(),
	})
	defer e.Close()
	rng := rand.New(rand.NewSource(21))
	queries := make([]workload.Halfplane, 64)
	for i := range queries {
		queries[i] = workload.HalfplaneWithSelectivity(rng, pts, 0.01)
	}
	one := make([]Query, 1)
	res := make([]QueryResult, 0, 1)
	for _, h := range queries { // warm every buffer to high water
		one[0] = Query{Op: OpHalfplane, A: h.A, B: h.B}
		res = e.BatchInto(one, res[:0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := queries[i%len(queries)]
		one[0] = Query{Op: OpHalfplane, A: h.A, B: h.B}
		res = e.BatchInto(one, res[:0])
		if res[0].Err != nil {
			b.Fatal(res[0].Err)
		}
	}
}

// BenchmarkEngineQueryBatched measures the steady-state batched
// scatter-gather path: 64 halfplane queries per op through BatchInto on
// a warmed round-robin engine (full fan-out — every query wakes every
// shard worker once). Must also report 0 allocs/op.
func BenchmarkEngineQueryBatched(b *testing.B) {
	const (
		n     = 100_000
		batch = 64
	)
	pts := benchPoints2(n)
	e := NewPlanarEngine(pts, EngineConfig{Shards: 8, BlockSize: 128, Seed: 1})
	defer e.Close()
	rng := rand.New(rand.NewSource(22))
	queries := make([]workload.Halfplane, 256)
	for i := range queries {
		queries[i] = workload.HalfplaneWithSelectivity(rng, pts, 0.01)
	}
	qs := make([]Query, batch)
	res := make([]QueryResult, 0, batch)
	warm := func(start int) {
		for j := range qs {
			h := queries[(start+j)%len(queries)]
			qs[j] = Query{Op: OpHalfplane, A: h.A, B: h.B}
		}
		res = e.BatchInto(qs, res[:0])
	}
	for i := 0; i < len(queries); i += batch {
		warm(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm(i * batch)
		for j := range res {
			if res[j].Err != nil {
				b.Fatal(res[j].Err)
			}
		}
	}
	b.StopTimer()
	nq := float64(b.N * batch)
	b.ReportMetric(nq/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkEngineQueryKNN measures the steady-state incremental k-NN
// path (box-distance visit order, kth-distance cutoff) through
// BatchInto on a warmed kd-cut engine.
func BenchmarkEngineQueryKNN(b *testing.B) {
	pts := benchPoints2(50_000)
	e := NewKNNEngine(pts, EngineConfig{
		Shards: 8, BlockSize: 128, Seed: 1, Partitioner: KDCutLayout(),
	})
	defer e.Close()
	rng := rand.New(rand.NewSource(23))
	qpts := make([]Point2, 64)
	for i := range qpts {
		qpts[i] = Point2{X: rng.Float64(), Y: rng.Float64()}
	}
	one := make([]Query, 1)
	res := make([]QueryResult, 0, 1)
	for _, p := range qpts {
		one[0] = Query{Op: OpKNN, K: 16, Pt: p}
		res = e.BatchInto(one, res[:0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one[0] = Query{Op: OpKNN, K: 16, Pt: qpts[i%len(qpts)]}
		res = e.BatchInto(one, res[:0])
		if res[0].Err != nil {
			b.Fatal(res[0].Err)
		}
	}
}

// BenchmarkEngineBuild measures parallel shard construction against a
// single unsharded build. Construction cost is superlinear in n, so
// sharding wins even on one CPU; on multicore the shards also build
// concurrently.
func BenchmarkEngineBuild(b *testing.B) {
	pts := benchPoints2(1 << 15)
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := NewPlanarEngine(pts, EngineConfig{Shards: shards, BlockSize: 128, Seed: int64(i)})
				e.Close()
			}
		})
	}
}

func sameInts(a, b []int) bool {
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
