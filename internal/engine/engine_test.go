package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"linconstraint/internal/chan3d"
	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/halfspace2d"
	"linconstraint/internal/hull3d"
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
				got := e.Halfplane(q.A, q.B)
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
			got := e.HalfspaceD(q.H.Coef)
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
		got := e.Conjunction(cs)
		if !equalInts(got, want) {
			t.Fatalf("S=%d conjunction: %d hits != %d hits", s, len(got), len(want))
		}
		e.Close()
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
			got := e.Halfspace3(pl.A, pl.B, pl.C)
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
			got := e.KNN(k, q)
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
				got := e.KNN(k, q)
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
		want := e.Halfplane(qs[i].A, qs[i].B)
		if res[i].Err != nil || !equalInts(res[i].IDs, want) {
			t.Fatalf("batch result %d disagrees with scalar query (err=%v)", i, res[i].Err)
		}
	}
	if res[8].Err == nil {
		t.Fatal("mismatched op must surface a per-query error")
	}
	if e.one(Query{Op: OpHalfplane, A: 0, B: 2}).Err != nil {
		t.Fatal("valid scalar query errored")
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
		e.Halfplane(h.A, h.B)
	}
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
	if got := e.Halfplane(0, 1); len(got) != 0 {
		t.Fatalf("empty engine reported %v", got)
	}
	e.Close()

	// More shards than points: some shards stay empty.
	pts := []geom.Point2{{X: 0.5, Y: 0.1}, {X: 0.2, Y: 0.9}, {X: 0.9, Y: 0.4}}
	e = NewPlanar(pts, Options{Shards: 8, Workers: 2, BlockSize: 4})
	defer e.Close()
	if got := e.Halfplane(0, 0.5); !equalInts(got, []int{0, 2}) {
		t.Fatalf("tiny engine reported %v, want [0 2]", got)
	}
	if e.Len() != 3 || e.NumShards() != 8 {
		t.Fatalf("Len/NumShards = %d/%d", e.Len(), e.NumShards())
	}
}

// TestCloseIsIdempotentAndFinal: Close twice is fine, and afterwards
// every route into BatchInto — a multi-shard run (worker route), a
// one-shard run (answered inline on the caller) and a planned k-NN query
// (also inline) — panics with the one documented message instead of
// answering or dying on a closed channel.
func TestCloseIsIdempotentAndFinal(t *testing.T) {
	pts := []geom.Point2{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.9}}
	for name, tc := range map[string]struct {
		e     *Engine
		query func(e *Engine)
	}{
		"multi-shard": {NewPlanar(pts, Options{Shards: 2}), func(e *Engine) { e.Halfplane(0, 1) }},
		"one-shard":   {NewPlanar(pts, Options{Shards: 1}), func(e *Engine) { e.Halfplane(0, 1) }},
		"knn":         {NewKNN(pts, Options{Shards: 2, Partitioner: partition.NewKDCut()}), func(e *Engine) { e.KNN(1, pts[0]) }},
	} {
		t.Run(name, func(t *testing.T) {
			tc.e.Close()
			tc.e.Close()
			defer func() {
				if got := recover(); got != "engine: BatchInto after Close" {
					t.Fatalf("query after Close: recovered %v, want the BatchInto-after-Close panic", got)
				}
			}()
			tc.query(tc.e)
		})
	}
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
