package engine

import (
	"math/rand"
	"testing"

	"linconstraint/internal/geom"
	"linconstraint/internal/partition"
	"linconstraint/internal/workload"
)

// The allocation regression tests pin the PR-4 contract: a steady-state
// query through BatchInto on a warmed engine performs zero heap
// allocations — no per-query goroutines, no fresh result slices, no
// merge scratch. "Warmed" means the engine has already answered each
// query shape once, so every arena and result buffer has reached its
// high-water capacity; "steady state" assumes generic-position data
// (the exact rational fallback of geom's predicates allocates, by
// design, on near-degenerate inputs) and the default counting-only
// device (an LRU-caching device allocates list entries on misses).

func allocEngine(t *testing.T, part partition.Partitioner) (*Engine, []Query) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	pts := workload.Uniform2(rng, 20_000)
	e := NewPlanar(pts, Options{Shards: 8, BlockSize: 128, Seed: 1, Partitioner: part})
	t.Cleanup(e.Close)
	qs := make([]Query, 8)
	for i := range qs {
		h := workload.HalfplaneWithSelectivity(rng, pts, 0.01)
		qs[i] = Query{Op: OpHalfplane, A: h.A, B: h.B}
	}
	return e, qs
}

// assertZeroAllocs warms fn once, then requires zero allocations per
// run.
func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	fn() // warm buffers to high-water capacity
	if n := testing.AllocsPerRun(20, fn); n != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, n)
	}
}

func TestSteadyStateHalfplaneZeroAllocs(t *testing.T) {
	e, qs := allocEngine(t, partition.NewKDCut())
	one := make([]Query, 1)
	res := make([]Result, 0, 1)
	i := 0
	assertZeroAllocs(t, "halfplane via single-query BatchInto", func() {
		for j := 0; j < len(qs); j++ {
			one[0] = qs[i%len(qs)]
			i++
			res = e.BatchInto(one, res[:0])
			if res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
		}
	})
}

func TestSteadyStateBatchZeroAllocs(t *testing.T) {
	e, qs := allocEngine(t, partition.RoundRobin{})
	batch := make([]Query, 32)
	for i := range batch {
		batch[i] = qs[i%len(qs)]
	}
	res := make([]Result, 0, len(batch))
	assertZeroAllocs(t, "batched scatter-gather via BatchInto", func() {
		res = e.BatchInto(batch, res[:0])
		for i := range res {
			if res[i].Err != nil {
				t.Fatal(res[i].Err)
			}
		}
	})
}

func TestSteadyStateKNNZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := workload.Uniform2(rng, 5_000)
	e := NewKNN(pts, Options{Shards: 4, BlockSize: 128, Seed: 1, Partitioner: partition.NewKDCut()})
	defer e.Close()
	queries := make([]geom.Point2, 8)
	for i := range queries {
		queries[i] = geom.Point2{X: rng.Float64(), Y: rng.Float64()}
	}
	one := make([]Query, 1)
	res := make([]Result, 0, 1)
	i := 0
	assertZeroAllocs(t, "k-NN via single-query BatchInto", func() {
		for j := 0; j < len(queries); j++ {
			one[0] = Query{Op: OpKNN, K: 16, Pt: queries[i%len(queries)]}
			i++
			res = e.BatchInto(one, res[:0])
			if res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
		}
	})
}

// TestSteadyStateReplicatedZeroAllocs: replication must not cost the
// hot path its zero-alloc contract — replica pick, in-flight counting
// and the traffic sketch's Touch are all plain atomics.
func TestSteadyStateReplicatedZeroAllocs(t *testing.T) {
	e, qs := allocEngine(t, partition.NewKDCut())
	if err := e.Replicate(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := e.Replicate(3, 2); err != nil {
		t.Fatal(err)
	}
	one := make([]Query, 1)
	res := make([]Result, 0, 1)
	i := 0
	assertZeroAllocs(t, "halfplane on a replicated engine", func() {
		for j := 0; j < len(qs); j++ {
			one[0] = qs[i%len(qs)]
			i++
			res = e.BatchInto(one, res[:0])
			if res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
		}
	})
}

// TestSteadyStateDynHalfplaneZeroAllocs pins the append-into report
// path through the logarithmic method: a warmed mutable planar engine
// answers steady-state halfplane queries with zero heap allocations —
// the buckets report through QueryInto into adapter scratch, the
// canonical sort runs in place, and the records merge into reused
// Result storage.
func TestSteadyStateDynHalfplaneZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	e := NewDynamicPlanar(Options{Shards: 4, BlockSize: 128, Seed: 1, Partitioner: partition.NewKDCut()})
	t.Cleanup(e.Close)
	pts := workload.Uniform2(rng, 4_096)
	for _, p := range pts {
		if err := e.Insert(Record{P2: p}); err != nil {
			t.Fatal(err)
		}
	}
	qs := make([]Query, 8)
	for i := range qs {
		h := workload.HalfplaneWithSelectivity(rng, pts, 0.01)
		qs[i] = Query{Op: OpHalfplane, A: h.A, B: h.B}
	}
	one := make([]Query, 1)
	res := make([]Result, 0, 1)
	i := 0
	assertZeroAllocs(t, "dynamic halfplane via single-query BatchInto", func() {
		for j := 0; j < len(qs); j++ {
			one[0] = qs[i%len(qs)]
			i++
			res = e.BatchInto(one, res[:0])
			if res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
		}
	})
}

// TestSteadyStateDynConjunctionZeroAllocs is the conjunction case of
// the test above on a mutable partition engine: every bucket's §5 tree
// answers the slab through one reused simplex holder, so a warmed
// engine answers steady-state conjunctions with zero heap allocations.
func TestSteadyStateDynConjunctionZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	e := NewDynamicPartition(Options{Shards: 4, BlockSize: 128, Seed: 1, Partitioner: partition.NewKDCut()})
	t.Cleanup(e.Close)
	for _, p := range workload.CubeD(rng, 4_096, 3) {
		if err := e.Insert(Record{PD: p}); err != nil {
			t.Fatal(err)
		}
	}
	qs := make([]Query, 8)
	for i := range qs {
		hi := []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3, rng.Float64()}
		lo := []float64{hi[0], hi[1], hi[2] - 0.05}
		qs[i] = Query{Op: OpConjunction, Constraints: []Constraint{{Coef: hi, Below: true}, {Coef: lo}}}
	}
	one := make([]Query, 1)
	res := make([]Result, 0, 1)
	i := 0
	assertZeroAllocs(t, "dynamic conjunction via single-query BatchInto", func() {
		for j := 0; j < len(qs); j++ {
			one[0] = qs[i%len(qs)]
			i++
			res = e.BatchInto(one, res[:0])
			if res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
		}
	})
}

// TestBatchIntoReuseMatchesBatch pins the BatchInto contract: refilled
// caller storage returns exactly what fresh Batch allocations return,
// call after call.
func TestBatchIntoReuseMatchesBatch(t *testing.T) {
	e, qs := allocEngine(t, partition.NewSFC())
	res := make([]Result, 0, len(qs))
	for round := 0; round < 3; round++ {
		res = e.BatchInto(qs, res[:0])
		fresh := e.Batch(qs)
		for i := range qs {
			if res[i].Err != nil || fresh[i].Err != nil {
				t.Fatalf("round %d query %d: err %v / %v", round, i, res[i].Err, fresh[i].Err)
			}
			if !equalInts(res[i].IDs, fresh[i].IDs) {
				t.Fatalf("round %d query %d: BatchInto and Batch disagree (%d vs %d ids)",
					round, i, len(res[i].IDs), len(fresh[i].IDs))
			}
			if res[i].ShardsVisited != fresh[i].ShardsVisited {
				t.Fatalf("round %d query %d: plan stats disagree", round, i)
			}
		}
	}
}
