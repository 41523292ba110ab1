package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"linconstraint/internal/chan3d"
	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/halfspace2d"
	"linconstraint/internal/hull3d"
	"linconstraint/internal/index"
	"linconstraint/internal/metrics"
	"linconstraint/internal/partition"
	"linconstraint/internal/workload"
)

// TestPlanarMatchesUnsharded is the core validity property: for every
// shard count, the engine's merged global answer must be byte-identical
// to one unsharded §3 index over the same points, on every workload
// family and selectivity.
func TestPlanarMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	workloads := map[string][]geom.Point2{
		"uniform":   workload.Uniform2(rng, 1500),
		"clustered": workload.Clustered2(rng, 1500, 12),
		"diagonal":  workload.Diagonal2(rng, 1500, 1e-7),
	}
	for name, pts := range workloads {
		dev := eio.NewDevice(32, 0)
		ref := halfspace2d.NewPoints(dev, pts, halfspace2d.Options{Seed: 1})
		for _, s := range []int{1, 2, 3, 7, 8} {
			e := NewPlanar(pts, Options{Shards: s, Workers: 3, BlockSize: 32, Seed: 1})
			for _, sel := range []float64{0, 0.01, 0.1, 0.5, 0.95} {
				q := workload.HalfplaneWithSelectivity(rng, pts, sel)
				want := ref.Halfplane(q.A, q.B)
				got := ask(t, e, Query{Op: OpHalfplane, A: q.A, B: q.B}).IDs
				if !equalInts(got, want) {
					t.Fatalf("%s S=%d sel=%g: sharded %d hits != unsharded %d hits",
						name, s, sel, len(got), len(want))
				}
			}
			e.Close()
		}
	}
}

func TestPartitionMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := workload.CubeD(rng, 1200, 3)
	dev := eio.NewDevice(32, 0)
	ref := partition.New(dev, pts, partition.Options{})
	for _, s := range []int{1, 4, 8} {
		e := NewPartition(pts, Options{Shards: s, BlockSize: 32})
		for i := 0; i < 6; i++ {
			q := workload.HalfspaceWithSelectivityD(rng, pts, 0.05+0.15*float64(i))
			want := ref.Halfspace(q.H)
			got := ask(t, e, Query{Op: OpHalfspaceD, Coef: q.H.Coef}).IDs
			if !equalInts(got, want) {
				t.Fatalf("S=%d halfspace query %d: %d hits != %d hits", s, i, len(got), len(want))
			}
		}
		// Conjunction (simplex) routing: a slab between two parallel
		// hyperplanes plus one more cut.
		h := workload.HalfspaceWithSelectivityD(rng, pts, 0.6).H
		lo := append([]float64(nil), h.Coef...)
		lo[len(lo)-1] -= 0.3
		cs := []Constraint{
			{Coef: h.Coef, Below: true},
			{Coef: lo, Below: false},
			{Coef: []float64{0.2, -0.1, 0.55}, Below: true},
		}
		var sx geom.Simplex
		for _, c := range cs {
			sx.Planes = append(sx.Planes, geom.HyperplaneD{Coef: c.Coef})
			sx.Below = append(sx.Below, c.Below)
		}
		want := ref.Simplex(sx)
		got := ask(t, e, Query{Op: OpConjunction, Constraints: cs}).IDs
		if !equalInts(got, want) {
			t.Fatalf("S=%d conjunction: %d hits != %d hits", s, len(got), len(want))
		}
		e.Close()
	}
}

// TestWrongDimensionOperandIsAnError: a 2-shard partition engine over
// 3-d points, static and mutable, answers an operand of another
// dimension with a per-query error wrapping index.ErrUnsupported — a
// too-long coefficient vector used to crash a shard worker, a too-short
// one to answer wrongly — while the well-formed queries of the same
// batch still answer.
func TestWrongDimensionOperandIsAnError(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := workload.CubeD(rng, 600, 3)
	dyn := NewDynamicPartition(Options{Shards: 2, BlockSize: 32})
	defer dyn.Close()
	for _, p := range pts {
		if err := dyn.Insert(Record{PD: p}); err != nil {
			t.Fatal(err)
		}
	}
	static := NewPartition(pts, Options{Shards: 2, BlockSize: 32, Partitioner: partition.NewKDCut()})
	defer static.Close()
	good := []float64{0.1, 0.2, 0.5}
	qs := []Query{
		{Op: OpHalfspaceD, Coef: good},
		{Op: OpHalfspaceD, Coef: []float64{1, 2, 3, 4, 5, 6}},
		{Op: OpHalfspaceD, Coef: []float64{0.5, 0.5}},
		{Op: OpConjunction, Constraints: []Constraint{{Coef: good, Below: true}, {Coef: []float64{0.1, 0.2}}}},
	}
	for name, e := range map[string]*Engine{"static": static, "mutable": dyn} {
		res := e.Batch(qs)
		if res[0].Err != nil || len(res[0].IDs)+len(res[0].Recs) == 0 {
			t.Fatalf("%s: well-formed query: err %v, %d ids, %d recs", name, res[0].Err, len(res[0].IDs), len(res[0].Recs))
		}
		for i, r := range res[1:] {
			if !errors.Is(r.Err, index.ErrUnsupported) {
				t.Errorf("%s: query %d: err %v, want one wrapping index.ErrUnsupported", name, i+1, r.Err)
			}
		}
	}
}

// TestNonFiniteRecordIsAnError: a mutable engine rejects a record with
// a NaN or infinite coordinate with an error wrapping
// index.ErrNonFinite, under a round-robin and a trained layout. Admitted,
// a NaN partition record would crash the next halfspace query from a
// shard worker (the exact predicate's rational fallback has no value
// for it), and a NaN planar record would panic the §3 bucket rebuild
// inside the shard lock. No record lands, and the next query answers.
func TestNonFiniteRecordIsAnError(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pts2 := workload.Uniform2(rng, 200)
	ptsD := workload.CubeD(rng, 200, 3)
	sample := make([]geom.PointD, len(pts2))
	for i, p := range pts2 {
		sample[i] = geom.PointD{p.X, p.Y}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, trained := range []bool{false, true} {
			opt := func(sample []geom.PointD) Options {
				o := Options{Shards: 3, BlockSize: 32, Seed: 1}
				if trained {
					o.Partitioner, o.PretrainSample = partition.NewKDCut(), sample
				}
				return o
			}
			planar := NewDynamicPlanar(opt(sample))
			part := NewDynamicPartition(opt(ptsD))
			for i := range pts2 {
				if err := planar.Insert(Record{P2: pts2[i]}); err != nil {
					t.Fatal(err)
				}
				if err := part.Insert(Record{PD: ptsD[i]}); err != nil {
					t.Fatal(err)
				}
			}
			cases := []struct {
				e   *Engine
				rec Record
				q   Query
			}{
				{planar, Record{P2: geom.Point2{X: bad, Y: 0.5}}, Query{Op: OpHalfplane, A: 0.1, B: 2}},
				{planar, Record{P2: geom.Point2{X: 0.5, Y: bad}}, Query{Op: OpHalfplane, A: 0.1, B: 2}},
				{part, Record{PD: geom.PointD{bad, 0.5, 0.1}}, Query{Op: OpHalfspaceD, Coef: []float64{0.1, 0.1, 2}}},
				{part, Record{PD: geom.PointD{0.5, 0.5, bad}}, Query{Op: OpConjunction, Constraints: []Constraint{{Coef: []float64{0.1, 0.1, 2}, Below: true}}}},
			}
			for i, c := range cases {
				if err := c.e.Insert(c.rec); !errors.Is(err, index.ErrNonFinite) {
					t.Errorf("%v trained=%v case %d: Insert got %v, want index.ErrNonFinite", bad, trained, i, err)
				}
				if ok, err := c.e.Delete(c.rec); ok || !errors.Is(err, index.ErrNonFinite) {
					t.Errorf("%v trained=%v case %d: Delete got %v, %v, want index.ErrNonFinite", bad, trained, i, ok, err)
				}
				if c.e.Len() != 200 {
					t.Errorf("%v trained=%v case %d: Len %d, want 200", bad, trained, i, c.e.Len())
				}
				if r := c.e.Batch([]Query{c.q})[0]; r.Err != nil || len(r.Recs) != 200 {
					t.Errorf("%v trained=%v case %d: next query got %d records, %v; want all 200", bad, trained, i, len(r.Recs), r.Err)
				}
			}
			planar.Close()
			part.Close()
		}
	}
}

func Test3DMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := workload.Cube3(rng, 800)
	win := hull3d.Window{XMin: -2, XMax: 2, YMin: -2, YMax: 2}
	dev := eio.NewDevice(32, 0)
	ref := chan3d.NewPoints3(dev, pts, chan3d.Options{Window: win, Seed: 1})
	for _, s := range []int{1, 4, 8} {
		e := New3D(pts, Options{Shards: s, BlockSize: 32, Seed: 1, Window: win})
		for i := 0; i < 6; i++ {
			pl := workload.Plane3WithSelectivity(rng, pts, 0.02+0.1*float64(i))
			want := ref.Halfspace(pl.A, pl.B, pl.C)
			got := ask(t, e, Query{Op: OpHalfspace3, A: pl.A, B: pl.B, C: pl.C}).IDs
			if !equalInts(got, want) {
				t.Fatalf("S=%d query %d: %d hits != %d hits", s, i, len(got), len(want))
			}
		}
		e.Close()
	}
}

func TestKNNMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := workload.Uniform2(rng, 1000)
	dev := eio.NewDevice(32, 0)
	ref := chan3d.NewKNN(dev, pts, chan3d.Options{Seed: 1})
	for _, s := range []int{1, 3, 8} {
		e := NewKNN(pts, Options{Shards: s, BlockSize: 32, Seed: 1})
		for _, k := range []int{1, 8, 33} {
			q := geom.Point2{X: rng.Float64(), Y: rng.Float64()}
			want := ref.Query(k, q)
			got := ask(t, e, Query{Op: OpKNN, K: k, Pt: q}).Neighbors
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("S=%d k=%d at %v: %v != %v", s, k, q, got, want)
			}
		}
		e.Close()
	}
}

// TestKNNTiesAtCutoff pins the duplicate-point edge case: when equal
// distances straddle the k cutoff, the unsharded index and the sharded
// merge must make the same (id-ordered) selection.
func TestKNNTiesAtCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := workload.Uniform2(rng, 200)
	// Duplicate a handful of points so ties are guaranteed, including
	// copies that round-robin into different shards.
	for i := 0; i < 10; i++ {
		pts = append(pts, pts[i*3])
	}
	dev := eio.NewDevice(16, 0)
	ref := chan3d.NewKNN(dev, pts, chan3d.Options{Seed: 1})
	for _, s := range []int{2, 5} {
		e := NewKNN(pts, Options{Shards: s, BlockSize: 16, Seed: 1})
		for i := 0; i < 10; i++ {
			q := pts[i*3] // query exactly at a duplicated point
			for _, k := range []int{1, 2, 5} {
				want := ref.Query(k, q)
				got := ask(t, e, Query{Op: OpKNN, K: k, Pt: q}).Neighbors
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("S=%d k=%d at duplicated point %d: %v != %v", s, k, i, got, want)
				}
			}
		}
		e.Close()
	}
}

func TestBatchOrderAndRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := workload.Uniform2(rng, 600)
	e := NewPlanar(pts, Options{Shards: 4, Workers: 2, BlockSize: 32})
	defer e.Close()

	qs := make([]Query, 0, 9)
	for i := 0; i < 8; i++ {
		h := workload.HalfplaneWithSelectivity(rng, pts, 0.1*float64(i+1))
		qs = append(qs, Query{Op: OpHalfplane, A: h.A, B: h.B})
	}
	qs = append(qs, Query{Op: OpKNN, K: 3}) // wrong op for a planar engine
	res := e.Batch(qs)
	if len(res) != len(qs) {
		t.Fatalf("got %d results for %d queries", len(res), len(qs))
	}
	for i := 0; i < 8; i++ {
		want := ask(t, e, Query{Op: OpHalfplane, A: qs[i].A, B: qs[i].B}).IDs
		if res[i].Err != nil || !equalInts(res[i].IDs, want) {
			t.Fatalf("batch result %d disagrees with its one-query batch (err=%v)", i, res[i].Err)
		}
	}
	if res[8].Err == nil {
		t.Fatal("mismatched op must surface a per-query error")
	}
	if ask(t, e, Query{Op: OpHalfplane, A: 0, B: 2}).Err != nil {
		t.Fatal("valid one-query batch errored")
	}
}

func TestStatsAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := workload.Uniform2(rng, 2000)
	e := NewPlanar(pts, Options{Shards: 4, BlockSize: 32, CacheBlocks: 8})
	defer e.Close()
	e.ResetStats()
	for i := 0; i < 10; i++ {
		h := workload.HalfplaneWithSelectivity(rng, pts, 0.2)
		ask(t, e, Query{Op: OpHalfplane, A: h.A, B: h.B})
	}
	// A query reads each block once, so the hits come from repeating a
	// small query whose blocks fit in the 8-block caches.
	h := workload.HalfplaneWithSelectivity(rng, pts, 0.01)
	ask(t, e, Query{Op: OpHalfplane, A: h.A, B: h.B})
	ask(t, e, Query{Op: OpHalfplane, A: h.A, B: h.B})
	st := e.Stats()
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("bad shard count in %+v", st)
	}
	var sum eio.Stats
	var space, maxIOs int64
	for _, ps := range st.PerShard {
		sum.Reads += ps.IO.Reads
		sum.Writes += ps.IO.Writes
		sum.Hits += ps.IO.Hits
		space += ps.SpaceBlocks
		if ps.IO.IOs() > maxIOs {
			maxIOs = ps.IO.IOs()
		}
	}
	if st.Total != sum {
		t.Fatalf("Total %+v != per-shard sum %+v", st.Total, sum)
	}
	if st.SpaceBlocks != space || st.MaxShardIOs != maxIOs {
		t.Fatalf("space/max aggregation wrong: %+v", st)
	}
	if st.Worst().IO.IOs() != maxIOs {
		t.Fatalf("WorstShard does not hold the max: %+v", st)
	}
	if st.Total.IOs() == 0 || st.Total.Hits == 0 {
		t.Fatalf("queries should have produced I/Os and cache hits: %+v", st.Total)
	}
	e.ResetStats()
	if after := e.Stats(); after.Total != (eio.Stats{}) {
		t.Fatalf("ResetStats left counters %+v", after.Total)
	}
}

func TestDegenerateShapes(t *testing.T) {
	// No points at all.
	e := NewPlanar(nil, Options{Shards: 4})
	if got := ask(t, e, Query{Op: OpHalfplane, A: 0, B: 1}).IDs; len(got) != 0 {
		t.Fatalf("empty engine reported %v", got)
	}
	e.Close()

	// More shards than points: some shards stay empty.
	pts := []geom.Point2{{X: 0.5, Y: 0.1}, {X: 0.2, Y: 0.9}, {X: 0.9, Y: 0.4}}
	e = NewPlanar(pts, Options{Shards: 8, Workers: 2, BlockSize: 4})
	defer e.Close()
	if got := ask(t, e, Query{Op: OpHalfplane, A: 0, B: 0.5}).IDs; !equalInts(got, []int{0, 2}) {
		t.Fatalf("tiny engine reported %v, want [0 2]", got)
	}
	if e.Len() != 3 || e.NumShards() != 8 {
		t.Fatalf("Len/NumShards = %d/%d", e.Len(), e.NumShards())
	}
}

// TestCloseIsIdempotentAndFinal: Close twice is fine, and afterwards
// every route into BatchInto — a multi-shard run (worker route), a
// one-shard run (answered inline on the caller) and a planned k-NN query
// (also inline) — answers every Result with ErrClosed instead of
// answering or dying on a closed channel.
func TestCloseIsIdempotentAndFinal(t *testing.T) {
	pts := []geom.Point2{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.9}}
	halfplanes := []Query{{Op: OpHalfplane, A: 0, B: 1}, {Op: OpHalfplane, A: 1, B: 0}}
	for name, tc := range map[string]struct {
		e  *Engine
		qs []Query
	}{
		"multi-shard": {NewPlanar(pts, Options{Shards: 2}), halfplanes},
		"one-shard":   {NewPlanar(pts, Options{Shards: 1}), halfplanes},
		"knn":         {NewKNN(pts, Options{Shards: 2, Partitioner: partition.NewKDCut()}), []Query{{Op: OpKNN, K: 1, Pt: pts[0]}}},
	} {
		t.Run(name, func(t *testing.T) {
			tc.e.Close()
			tc.e.Close()
			res := tc.e.BatchInto(tc.qs, nil)
			if len(res) != len(tc.qs) {
				t.Fatalf("%d results for %d queries", len(res), len(tc.qs))
			}
			for i, r := range res {
				if !errors.Is(r.Err, ErrClosed) || len(r.IDs)+len(r.Neighbors) != 0 {
					t.Errorf("query %d after Close: err %v, %d ids, %d neighbours; want ErrClosed and no answer",
						i, r.Err, len(r.IDs), len(r.Neighbors))
				}
			}
		})
	}
}

// TestBatchRacesClose: runs issued while Close tears the engine down
// either answer in full or answer ErrClosed, never panic on a closed
// worker channel, and once a run has seen ErrClosed every later one
// does. The first run completes before Close starts, so the two overlap.
func TestBatchRacesClose(t *testing.T) {
	pts := workload.Uniform2(rand.New(rand.NewSource(77)), 400)
	qs := []Query{{Op: OpHalfplane, A: 0.3, B: 0.4}, {Op: OpHalfplane, A: -0.5, B: 0.8}}
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		e := NewPlanar(pts, Options{Shards: 4, BlockSize: 64, Seed: 1})
		var want [][]int
		for _, r := range e.Batch(qs) {
			want = append(want, slices.Clone(r.IDs))
		}
		started, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			var res []Result
			closed := false
			for n := 0; !closed; n++ {
				res = e.BatchInto(qs, res)
				if n == 0 {
					close(started)
				}
				for i, r := range res {
					switch {
					case errors.Is(r.Err, ErrClosed):
						closed = true
					case r.Err != nil:
						t.Errorf("run %d query %d: %v", n, i, r.Err)
						return
					case closed:
						t.Errorf("run %d query %d answered after an earlier ErrClosed", n, i)
						return
					case !slices.Equal(r.IDs, want[i]):
						t.Errorf("run %d query %d: %d ids, want %d", n, i, len(r.IDs), len(want[i]))
						return
					}
				}
			}
		}()
		select {
		case <-started:
		case <-done:
		}
		e.Close()
		<-done
	}
	if !waitFor(func() bool { return runtime.NumGoroutine() <= before }) {
		t.Errorf("%d goroutines outlive Close", runtime.NumGoroutine()-before)
	}
}

// TestUpdatesAfterCloseChangeNothing: every mutation of a closed engine
// is refused with ErrClosed and leaves the record count as it was.
func TestUpdatesAfterCloseChangeNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := NewDynamicPartition(Options{Shards: 3, BlockSize: 16})
	var pts []geom.PointD
	for i := 0; i < 300; i++ {
		p := geom.PointD{rng.Float64(), rng.Float64(), rng.Float64()}
		if err := e.Insert(index.Record{PD: p}); err != nil {
			t.Fatal(err)
		}
		pts = append(pts, p)
	}
	e.Close()
	n := e.Len()
	if err := e.Insert(index.Record{PD: geom.PointD{0.5, 0.5, 0.5}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Insert after Close: err %v, want ErrClosed", err)
	}
	if got := e.Len(); got != n {
		t.Errorf("Len after a refused Insert = %d, want %d", got, n)
	}
	if ok, err := e.Delete(index.Record{PD: pts[0]}); ok || !errors.Is(err, ErrClosed) {
		t.Errorf("Delete after Close: (%v, %v), want (false, ErrClosed)", ok, err)
	}
	if st, err := e.Rebalance(RebalanceOptions{Partitioner: partition.NewKDCut()}); st.Moved != 0 || !errors.Is(err, ErrClosed) {
		t.Errorf("Rebalance after Close: moved %d, err %v, want 0 and ErrClosed", st.Moved, err)
	}
	if err := e.Retrain(pts); !errors.Is(err, ErrClosed) {
		t.Errorf("Retrain after Close: err %v, want ErrClosed", err)
	}
	if got := e.Len(); got != n {
		t.Errorf("Len after refused Delete, Rebalance and Retrain = %d, want %d", got, n)
	}
}

// TestEveryMethodAgainstClose calls every exported Engine method on a
// closed engine and concurrently with Close. After Close, each call
// returns ErrClosed, answers its queries with Result.Err = ErrClosed or
// returns its documented value, and Len and Stats do not move; only
// ResetStats, called last, changes Stats, by zeroing the counters as
// documented. Raced against Close, no call panics and every error is
// ErrClosed. Either way the engine's goroutines all exit.
func TestEveryMethodAgainstClose(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	pts := workload.Uniform2(rng, 600)
	sample := make([]geom.PointD, len(pts))
	for i, p := range pts {
		sample[i] = geom.PointD{p.X, p.Y}
	}
	build := func() *Engine {
		e := NewDynamicPlanar(Options{
			Shards: 3, BlockSize: 16, Seed: 1, Partitioner: partition.NewKDCut(), PretrainSample: sample,
			Metrics: metrics.NewRegistry(), FlightRecorder: FlightRecorderConfig{TotalNs: 1},
			Watchdog: &WatchdogConfig{Interval: time.Millisecond}, Breaker: &BreakerConfig{},
		})
		for _, p := range pts {
			if err := e.Insert(Record{P2: p}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Replicate(0, 2); err != nil {
			t.Fatal(err)
		}
		return e
	}
	q := Query{Op: OpHalfplane, A: 0.2, B: 0.5}
	// closedOr accepts ErrClosed, and success while the engine was
	// open when the call began.
	closedOr := func(err error, closed bool) error {
		if errors.Is(err, ErrClosed) || !closed && err == nil {
			return nil
		}
		return fmt.Errorf("err %v, want ErrClosed", err)
	}
	results := func(res []Result) error {
		for i, r := range res {
			if r.Err != nil && !errors.Is(r.Err, ErrClosed) {
				return fmt.Errorf("result %d: %v", i, r.Err)
			}
		}
		return nil
	}
	// Each call returns its contract violation, or nil; c is true when
	// the engine was closed before the call began.
	type call struct {
		name string
		call func(e *Engine, c bool) error
	}
	calls := []call{
		{"Insert", func(e *Engine, c bool) error { return closedOr(e.Insert(Record{P2: geom.Point2{X: 2, Y: 2}}), c) }},
		{"Delete", func(e *Engine, c bool) error {
			ok, err := e.Delete(Record{P2: geom.Point2{X: 2, Y: 2}})
			if ok && c {
				return errors.New("deleted from a closed engine")
			}
			return closedOr(err, c)
		}},
		{"Batch", func(e *Engine, c bool) error {
			res := e.Batch([]Query{q, {Op: OpInsert, Rec: Record{P2: geom.Point2{X: 3, Y: 3}}}, {Op: OpDelete, Rec: Record{P2: geom.Point2{X: 3, Y: 3}}}})
			if err := results(res); err != nil {
				return err
			}
			if c && !errors.Is(res[0].Err, ErrClosed) {
				return fmt.Errorf("query err %v, want ErrClosed", res[0].Err)
			}
			return nil
		}},
		{"BatchInto", func(e *Engine, c bool) error {
			res := e.BatchInto([]Query{q, {Op: OpKNN, K: 1}}, nil)
			if err := res[1].Err; !errors.Is(err, ErrClosed) && !errors.Is(err, index.ErrUnsupported) {
				return fmt.Errorf("wrong-family query: err %v", err)
			}
			return results(res[:1])
		}},
		{"ExplainInto", func(e *Engine, c bool) error {
			var ex Explain
			e.ExplainInto(q, &ex)
			if ex.Err != nil || len(ex.Verdicts) != e.NumShards() {
				return fmt.Errorf("explain err %v, %d verdicts", ex.Err, len(ex.Verdicts))
			}
			return nil
		}},
		{"Rebalance", func(e *Engine, c bool) error {
			_, err := e.Rebalance(RebalanceOptions{})
			return closedOr(err, c)
		}},
		{"Retrain", func(e *Engine, c bool) error { return closedOr(e.Retrain(nil), c) }},
		{"Replicate", func(e *Engine, c bool) error { return closedOr(e.Replicate(1, 2), c) }},
		{"Replicate to the current degree", func(e *Engine, c bool) error { return closedOr(e.Replicate(0, e.Replicas()[0]), c) }},
		{"Drop", func(e *Engine, c bool) error { return closedOr(e.Drop(1), c) }},
		{"AutoReplicate", func(e *Engine, c bool) error {
			_, err := e.AutoReplicate(AutoReplicateOptions{})
			return closedOr(err, c)
		}},
		{"Repair", func(e *Engine, c bool) error {
			_, err := e.Repair(0)
			return closedOr(err, c)
		}},
		{"InjectFaults", func(e *Engine, c bool) error { return closedOr(e.InjectFaults(0, 0, eio.FaultPlan{}), c) }},
		{"FailReplica", func(e *Engine, c bool) error { return closedOr(e.FailReplica(2, 0), c) }},
		{"HealReplica", func(e *Engine, c bool) error { return closedOr(e.HealReplica(2, 0), c) }},
		{"BreakerStates", func(e *Engine, c bool) error {
			if st, err := e.BreakerStates(0); err != nil || len(st) == 0 {
				return fmt.Errorf("states %v, err %v", st, err)
			}
			return nil
		}},
		{"Replicas", func(e *Engine, c bool) error {
			if r := e.Replicas(); len(r) != e.NumShards() {
				return fmt.Errorf("replicas %v", r)
			}
			return nil
		}},
		{"ShardTraffic", func(e *Engine, c bool) error { e.ShardTraffic(0); return nil }},
		{"HotShards", func(e *Engine, c bool) error { e.HotShards(nil); return nil }},
		{"SlowQueries", func(e *Engine, c bool) error { e.SlowQueries(nil); return nil }},
		{"Health", func(e *Engine, c bool) error { e.Health(nil); return nil }},
		{"Metrics", func(e *Engine, c bool) error {
			if e.Metrics() == nil {
				return errors.New("no registry")
			}
			return nil
		}},
		{"Mutable", func(e *Engine, c bool) error {
			if !e.Mutable() {
				return errors.New("not mutable")
			}
			return nil
		}},
		{"Len", func(e *Engine, c bool) error { e.Len(); return nil }},
		{"NumShards", func(e *Engine, c bool) error {
			if e.NumShards() != 3 {
				return fmt.Errorf("%d shards", e.NumShards())
			}
			return nil
		}},
		{"NumWorkers", func(e *Engine, c bool) error { e.NumWorkers(); return nil }},
		{"Stats", func(e *Engine, c bool) error { e.Stats(); return nil }},
		{"Close", func(e *Engine, c bool) error { e.Close(); return nil }},
	}

	before := runtime.NumGoroutine()
	t.Run("after", func(t *testing.T) {
		e := build()
		e.Close()
		n, st := e.Len(), e.Stats()
		for _, c := range calls {
			if err := c.call(e, true); err != nil {
				t.Errorf("%s after Close: %v", c.name, err)
			}
			if e.Len() != n || !reflect.DeepEqual(e.Stats(), st) {
				t.Errorf("%s after Close moved Len %d -> %d or Stats %+v -> %+v", c.name, n, e.Len(), st, e.Stats())
			}
		}
		e.ResetStats()
		if got := e.Stats(); got.Total != (eio.Stats{}) || got.ShardsVisited != 0 {
			t.Errorf("ResetStats after Close left %+v", got.Total)
		}
	})
	t.Run("during", func(t *testing.T) {
		for round := 0; round < 3; round++ {
			e := build()
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for _, c := range append(calls, call{"ResetStats", func(e *Engine, _ bool) error { e.ResetStats(); return nil }}) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := c.call(e, false); err != nil {
							t.Errorf("round %d: %s raced against Close: %v", round, c.name, err)
							return
						}
					}
				}()
			}
			e.Close()
			close(stop)
			wg.Wait()
		}
	})
	if !waitFor(func() bool { return runtime.NumGoroutine() <= before }) {
		t.Errorf("%d goroutines outlive Close", runtime.NumGoroutine()-before)
	}
}

// ask answers q with a one-query Batch on e, failing the test (with
// Errorf, so goroutines may call it) on a Result.Err.
func ask(t testing.TB, e *Engine, q Query) Result {
	t.Helper()
	r := e.Batch([]Query{q})[0]
	if r.Err != nil {
		t.Errorf("%v query: %v", q.Op, r.Err)
	}
	return r
}

func equalInts(a, b []int) bool {
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
