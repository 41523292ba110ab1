package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"linconstraint/internal/workload"
)

// TestRunVisitsInLocalityOrder pins the run's queue order. A static
// planar engine declares a locality key (index.Ordered: the slope), so
// each shard answers its sub-batch of a 16-query run in ascending slope
// and the queries meet each other's cluster blocks in the shard's cache:
// the batched pass reads at most half the blocks the same queries read
// one per run, with byte-identical answers. A dynamic planar engine
// declares no order, so its shards see the same query sequence either
// way and read exactly the same blocks.
func TestRunVisitsInLocalityOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pts := workload.Uniform2(rng, 20_000)
	qs := make([]Query, 128)
	for i := range qs {
		h := workload.HalfplaneWithSelectivity(rng, pts, 0.01)
		qs[i] = Query{Op: OpHalfplane, A: h.A, B: h.B}
	}
	// pass answers qs in runs of size queries, starting from empty caches
	// (ResetStats drops them, as on a fresh engine), and returns the
	// answers and the device reads they took.
	pass := func(e *Engine, size int) ([]Result, int64) {
		t.Helper()
		e.ResetStats()
		var res []Result
		for i := 0; i < len(qs); i += size {
			for _, r := range e.Batch(qs[i : i+size]) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				res = append(res, r)
			}
		}
		return res, e.Stats().Total.Reads
	}
	same := func(name string, got, want []Result) {
		t.Helper()
		for i := range want {
			if !reflect.DeepEqual(got[i].IDs, want[i].IDs) || !reflect.DeepEqual(got[i].Recs, want[i].Recs) {
				t.Fatalf("%s: query %d: batched answer differs from its one-query run", name, i)
			}
		}
	}
	opt := Options{Shards: 8, BlockSize: 128, CacheBlocks: 8, Seed: 1}

	static := NewPlanar(pts, opt)
	defer static.Close()
	one, oneReads := pass(static, 1)
	batched, batchedReads := pass(static, 16)
	same("static", batched, one)
	t.Logf("static planar: %d reads one per run, %d in 16-query runs", oneReads, batchedReads)
	if 2*batchedReads > oneReads {
		t.Errorf("static planar: 16-query runs read %d blocks, want at most half of the %d one-query runs read", batchedReads, oneReads)
	}

	dyn := NewDynamicPlanar(opt)
	defer dyn.Close()
	for _, p := range pts {
		if err := dyn.Insert(Record{P2: p}); err != nil {
			t.Fatal(err)
		}
	}
	one, oneReads = pass(dyn, 1)
	batched, batchedReads = pass(dyn, 16)
	same("dynamic", batched, one)
	if batchedReads != oneReads {
		t.Errorf("dynamic planar declares no order: 16-query runs read %d blocks, one-query runs %d", batchedReads, oneReads)
	}
}
