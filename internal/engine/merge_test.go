package engine

import (
	"math/rand"
	"slices"
	"testing"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/index"
	"linconstraint/internal/partition"
	"linconstraint/internal/workload"
)

// TestLoserMergeRecordsProperty pins the loser tree byte-identical to
// the reference (old linear-scan) merge on canonical record runs,
// including duplicate records spread across runs — the case where the
// tie-break (lower run index first) decides the output order. The
// scratch buffers are reused across trials with varying run counts,
// the way one engine arena serves batches of different shapes.
func TestLoserMergeRecordsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var heads, loser []int32
	for trial := 0; trial < 500; trial++ {
		s := 1 + rng.Intn(9)
		n := rng.Intn(120)
		// A record multiset with forced duplicates (coarse coordinates).
		recs := make([]index.Record, n)
		for i := range recs {
			recs[i] = index.Record{P2: geom.Point2{
				X: float64(rng.Intn(8)),
				Y: float64(rng.Intn(4)),
			}}
		}
		runs := make([][]index.Record, s)
		for _, r := range recs {
			si := rng.Intn(s)
			runs[si] = append(runs[si], r)
		}
		for si := range runs {
			rs := runs[si]
			for i := 1; i < len(rs); i++ { // insertion sort: canonical order
				for j := i; j > 0 && rs[j].Less(rs[j-1]); j-- {
					rs[j], rs[j-1] = rs[j-1], rs[j]
				}
			}
		}
		got := loserMerge(nil, runs, &heads, &loser, recLess, -1)
		want := refMerge(runs, recLess, -1)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d merged, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].P2 != want[i].P2 {
				t.Fatalf("trial %d: element %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestMergeUnderInterleavedUpdates drives a mutable sharded engine and
// an unsharded dynamic index through the same random interleaving of
// inserts, deletes and queries, asserting the engine's loser-tree-
// merged answers stay byte-identical throughout — the end-to-end
// property the merge rewrite must preserve. (CI runs this under -race;
// the engine side also exercises BatchInto storage reuse.)
func TestMergeUnderInterleavedUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	e := NewDynamicPlanar(Options{Shards: 5, Workers: 3, BlockSize: 16, Seed: 9})
	defer e.Close()
	ref := index.NewDynamicPlanar(eio.NewDevice(16, 0), 9)

	var live []geom.Point2
	one := make([]Query, 1)
	res := make([]Result, 0, 1)
	for step := 0; step < 400; step++ {
		switch r := rng.Float64(); {
		case r < 0.45 || len(live) == 0: // insert (distinct points: the
			// dual arrangement walk rejects duplicate lines; duplicate
			// tie-breaks are covered by TestLoserMergeRecordsProperty)
			p := geom.Point2{X: rng.Float64(), Y: rng.Float64()}
			live = append(live, p)
			if err := e.Insert(Record{P2: p}); err != nil {
				t.Fatal(err)
			}
			if err := ref.Insert(Record{P2: p}); err != nil {
				t.Fatal(err)
			}
		case r < 0.65: // delete a live record
			i := rng.Intn(len(live))
			p := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			ok1, err1 := e.Delete(Record{P2: p})
			ok2, err2 := ref.Delete(Record{P2: p})
			if err1 != nil || err2 != nil || !ok1 || !ok2 {
				t.Fatalf("delete mismatch: %v/%v %v/%v", ok1, ok2, err1, err2)
			}
		default: // query through the batch hot path
			h := workload.HalfplaneWithSelectivity(rng, append([]geom.Point2(nil), live...), 0.5)
			one[0] = Query{Op: OpHalfplane, A: h.A, B: h.B}
			res = e.BatchInto(one, res[:0])
			if res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
			want, err := ref.Query(one[0])
			if err != nil {
				t.Fatal(err)
			}
			if len(res[0].Recs) != len(want.Recs) {
				t.Fatalf("step %d: %d records, want %d", step, len(res[0].Recs), len(want.Recs))
			}
			for i := range want.Recs {
				if res[0].Recs[i].P2 != want.Recs[i].P2 {
					t.Fatalf("step %d: record %d = %v, want %v", step, i, res[0].Recs[i], want.Recs[i])
				}
			}
		}
	}
}

// TestBatchedKNNMatchesScalar pins the concurrent multi-k-NN batch
// path (one goroutine per planned k-NN query, private scratch each)
// byte-identical to one-query batches, reusing one result storage across
// rounds.
func TestBatchedKNNMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := workload.Uniform2(rng, 3000)
	e := NewKNN(pts, Options{Shards: 5, BlockSize: 32, Seed: 1, Partitioner: partition.NewKDCut()})
	defer e.Close()

	qs := make([]Query, 16)
	res := make([]Result, 0, len(qs))
	for round := 0; round < 3; round++ {
		for i := range qs {
			k := 1 + rng.Intn(20)
			qs[i] = Query{Op: OpKNN, K: k, Pt: geom.Point2{X: rng.Float64(), Y: rng.Float64()}}
		}
		res = e.BatchInto(qs, res[:0])
		for i := range qs {
			if res[i].Err != nil {
				t.Fatal(res[i].Err)
			}
			want := ask(t, e, Query{Op: OpKNN, K: qs[i].K, Pt: qs[i].Pt}).Neighbors
			if len(res[i].Neighbors) != len(want) {
				t.Fatalf("round %d query %d: %d neighbors, want %d", round, i, len(res[i].Neighbors), len(want))
			}
			for j := range want {
				if res[i].Neighbors[j] != want[j] {
					t.Fatalf("round %d query %d neighbor %d: %+v, want %+v", round, i, j, res[i].Neighbors[j], want[j])
				}
			}
			if res[i].ShardsVisited+res[i].ShardsPruned != e.NumShards() {
				t.Fatalf("round %d query %d: plan stats %d+%d != %d", round, i,
					res[i].ShardsVisited, res[i].ShardsPruned, e.NumShards())
			}
		}
	}
}

// sinkMerged keeps BenchmarkLoserMerge's merges from being optimized away.
var sinkMerged int

// BenchmarkLoserMerge times the merge kernel on the two shapes the
// ledger's workloads hand it: ids, 2 runs of about 700 (planar_direct's
// common multi-shard query), and records, 6 runs of about 170 3-d
// records (a dyn_mixed slab's shard answers). It reports ns per merged
// element; with the destination and scratch reused, a merge allocates
// nothing.
func BenchmarkLoserMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	ids := make([][]int, 2)
	for id := 0; id < 1400; id++ {
		si := rng.Intn(len(ids))
		ids[si] = append(ids[si], id)
	}
	recs := make([][]index.Record, 6)
	for _, p := range workload.CubeD(rng, 1020, 3) {
		si := rng.Intn(len(recs))
		recs[si] = append(recs[si], index.Record{PD: p})
	}
	for _, r := range recs {
		slices.SortFunc(r, index.Record.Compare)
	}
	b.Run("ids", func(b *testing.B) { benchMerge(b, ids, intLess) })
	b.Run("records", func(b *testing.B) { benchMerge(b, recs, recLess) })
}

func benchMerge[T any](b *testing.B, runs [][]T, less func(x, y T) bool) {
	var heads, loser []int32
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	dst := loserMerge(make([]T, 0, n), runs, &heads, &loser, less, -1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = loserMerge(dst[:0], runs, &heads, &loser, less, -1)
	}
	b.StopTimer()
	sinkMerged += len(dst)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
}
