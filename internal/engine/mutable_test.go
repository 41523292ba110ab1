package engine

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/index"
)

func recsEqual(a, b []index.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Less(b[i]) || b[i].Less(a[i]) {
			return false
		}
	}
	return true
}

func sortRecs(rs []index.Record) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Less(rs[j]) })
}

// TestMutablePlanarInterleaved is the central invariant of the mutable
// engine: after ANY interleaving of inserts, deletes and queries, the
// sharded engine's answers are byte-identical to one unsharded dynamic
// index fed the same updates, and both match a brute-force model.
// CI runs this under -race.
func TestMutablePlanarInterleaved(t *testing.T) {
	for _, s := range []int{1, 2, 3, 5, 8} {
		rng := rand.New(rand.NewSource(40 + int64(s)))
		e := NewDynamicPlanar(Options{Shards: s, Workers: 3, BlockSize: 16, Seed: 7})
		ref := index.NewDynamicPlanar(eio.NewDevice(16, 0), 7)
		var model []geom.Point2
		for op := 0; op < 1200; op++ {
			switch r := rng.Intn(20); {
			case r < 10: // insert (fresh points: the §3 structure needs
				// distinct duals, a seed-structure precondition)
				p := geom.Point2{X: rng.Float64(), Y: rng.Float64()}
				if err := e.Insert(index.Record{P2: p}); err != nil {
					t.Fatalf("S=%d op %d: Insert: %v", s, op, err)
				}
				ref.Insert(index.Record{P2: p})
				model = append(model, p)
			case r < 14 && len(model) > 0: // delete a present point
				i := rng.Intn(len(model))
				got, err := e.Delete(index.Record{P2: model[i]})
				if err != nil || !got {
					t.Fatalf("S=%d op %d: Delete present = %v, %v", s, op, got, err)
				}
				if ok, err := ref.Delete(index.Record{P2: model[i]}); err != nil || !ok {
					t.Fatalf("S=%d op %d: ref lost the point (%v, %v)", s, op, ok, err)
				}
				model[i] = model[len(model)-1]
				model = model[:len(model)-1]
			case r < 15: // delete an absent point: both sides must miss
				p := geom.Point2{X: -rng.Float64() - 1, Y: rng.Float64()}
				got, err := e.Delete(index.Record{P2: p})
				refGot, refErr := ref.Delete(index.Record{P2: p})
				if err != nil || refErr != nil || got || refGot {
					t.Fatalf("S=%d op %d: absent delete reported success", s, op)
				}
			default: // query: engine vs unsharded vs brute force
				a, b := rng.NormFloat64(), rng.Float64()
				got := ask(t, e, Query{Op: OpHalfplane, A: a, B: b}).Recs
				ans, err := ref.Query(Query{Op: OpHalfplane, A: a, B: b})
				if err != nil {
					t.Fatal(err)
				}
				if !recsEqual(got, ans.Recs) {
					t.Fatalf("S=%d op %d: engine %d recs != unsharded %d recs", s, op, len(got), len(ans.Recs))
				}
				var want []index.Record
				for _, p := range model {
					if geom.SideOfLine2(geom.Line2{A: a, B: b}, p) <= 0 {
						want = append(want, index.Record{P2: p})
					}
				}
				sortRecs(want)
				if !recsEqual(got, want) {
					t.Fatalf("S=%d op %d: engine %d recs != model %d", s, op, len(got), len(want))
				}
			}
			if e.Len() != len(model) || ref.Len() != len(model) {
				t.Fatalf("S=%d op %d: Len %d/%d, want %d", s, op, e.Len(), ref.Len(), len(model))
			}
		}
		e.Close()
	}
}

// TestMutablePartitionInterleaved: same invariant for the dynamized §5
// partition tree (d = 3).
func TestMutablePartitionInterleaved(t *testing.T) {
	for _, s := range []int{1, 3, 6} {
		rng := rand.New(rand.NewSource(50 + int64(s)))
		e := NewDynamicPartition(Options{Shards: s, Workers: 2, BlockSize: 16})
		ref := index.NewDynamicPartition(eio.NewDevice(16, 0))
		var model []geom.PointD
		for op := 0; op < 700; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				p := geom.PointD{rng.Float64(), rng.Float64(), rng.Float64()}
				if err := e.Insert(index.Record{PD: p}); err != nil {
					t.Fatal(err)
				}
				ref.Insert(index.Record{PD: p})
				model = append(model, p)
			case r < 7 && len(model) > 0:
				i := rng.Intn(len(model))
				got, err := e.Delete(index.Record{PD: model[i]})
				refGot, refErr := ref.Delete(index.Record{PD: model[i]})
				if err != nil || refErr != nil || !got || !refGot {
					t.Fatalf("S=%d op %d: delete failed (%v, %v)", s, op, got, err)
				}
				model[i] = model[len(model)-1]
				model = model[:len(model)-1]
			default:
				h := geom.HyperplaneD{Coef: []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3, 0.5}}
				got := ask(t, e, Query{Op: OpHalfspaceD, Coef: h.Coef}).Recs
				ans, err := ref.Query(Query{Op: OpHalfspaceD, Coef: h.Coef})
				if err != nil {
					t.Fatal(err)
				}
				if !recsEqual(got, ans.Recs) {
					t.Fatalf("S=%d op %d: engine %d != unsharded %d", s, op, len(got), len(ans.Recs))
				}
				var want []index.Record
				for _, p := range model {
					if geom.SideOfHyperplane(h, p) <= 0 {
						want = append(want, index.Record{PD: p})
					}
				}
				sortRecs(want)
				if !recsEqual(got, want) {
					t.Fatalf("S=%d op %d: engine %d != model %d", s, op, len(got), len(want))
				}
			}
		}
		if e.Len() != len(model) {
			t.Fatalf("S=%d: Len %d, want %d", s, e.Len(), len(model))
		}
		e.Close()
	}
}

// TestMutableBatchSemantics: update ops apply at their position in the
// batch (each query observes exactly the updates before it), OpDelete
// reports Deleted, and update ops on a static engine surface
// ErrImmutable.
func TestMutableBatchSemantics(t *testing.T) {
	e := NewDynamicPlanar(Options{Shards: 3, BlockSize: 8})
	defer e.Close()
	p1 := geom.Point2{X: 0.1, Y: 0.1}
	p2 := geom.Point2{X: 0.2, Y: 0.2}
	res := e.Batch([]Query{
		{Op: OpInsert, Rec: index.Record{P2: p1}},
		{Op: OpHalfplane, A: 0, B: 1}, // sees p1
		{Op: OpInsert, Rec: index.Record{P2: p2}},
		{Op: OpHalfplane, A: 0, B: 1}, // sees p1, p2
		{Op: OpDelete, Rec: index.Record{P2: p1}},
		{Op: OpDelete, Rec: index.Record{P2: p1}}, // already gone
		{Op: OpHalfplane, A: 0, B: 1},             // sees p2
		{Op: OpKNN, K: 1},                         // unsupported on this family
	})
	for i, wantLen := range map[int]int{1: 1, 3: 2, 6: 1} {
		if res[i].Err != nil || len(res[i].Recs) != wantLen {
			t.Fatalf("batch query %d: %d recs (err=%v), want %d", i, len(res[i].Recs), res[i].Err, wantLen)
		}
	}
	if res[0].Err != nil || res[2].Err != nil {
		t.Fatal("inserts errored")
	}
	if !res[4].Deleted || res[4].Err != nil {
		t.Fatal("first delete must report Deleted")
	}
	if res[5].Deleted || res[5].Err != nil {
		t.Fatal("second delete must miss without error")
	}
	if res[7].Err == nil {
		t.Fatal("unsupported op must surface a per-query error")
	}
	if e.Len() != 1 || !e.Mutable() {
		t.Fatalf("Len=%d Mutable=%v", e.Len(), e.Mutable())
	}

	static := NewPlanar([]geom.Point2{{X: 1, Y: 1}}, Options{Shards: 2})
	defer static.Close()
	if static.Mutable() {
		t.Fatal("static engine claims mutability")
	}
	if err := static.Insert(index.Record{P2: p1}); !errors.Is(err, ErrImmutable) {
		t.Fatalf("static Insert: %v", err)
	}
	if _, err := static.Delete(index.Record{P2: p1}); !errors.Is(err, ErrImmutable) {
		t.Fatalf("static Delete: %v", err)
	}
	sres := static.Batch([]Query{{Op: OpInsert, Rec: index.Record{P2: p1}}})
	if !errors.Is(sres[0].Err, ErrImmutable) {
		t.Fatalf("static batch insert: %v", sres[0].Err)
	}
}

// TestRecordShapeValidation: wrong-family records must fail loudly at
// the Insert/Delete call instead of silently indexing a zero point or
// panicking inside a later rebuild, and mixed-dimension inserts must
// be rejected engine-wide even when they would land on different
// shards.
func TestRecordShapeValidation(t *testing.T) {
	ep := NewDynamicPlanar(Options{Shards: 2, BlockSize: 8})
	defer ep.Close()
	if err := ep.Insert(index.Record{PD: geom.PointD{1, 2, 3}}); err == nil {
		t.Fatal("planar engine accepted a PD record")
	}
	if ep.dim.Load() != 0 {
		t.Fatal("rejected PD insert left a stale dimension pin")
	}
	if _, err := ep.Delete(index.Record{PD: geom.PointD{1, 2, 3}}); err == nil {
		t.Fatal("planar engine deleted by a PD record")
	}
	if ep.Len() != 0 {
		t.Fatalf("rejected insert changed Len to %d", ep.Len())
	}

	ed := NewDynamicPartition(Options{Shards: 3, BlockSize: 8})
	defer ed.Close()
	if err := ed.Insert(index.Record{P2: geom.Point2{X: 1, Y: 2}}); err == nil {
		t.Fatal("partition engine accepted a P2 record (nil PD)")
	}
	if err := ed.Insert(index.Record{PD: geom.PointD{}}); err == nil {
		t.Fatal("partition engine accepted an empty PD record")
	}
	if ed.dim.Load() != 0 {
		t.Fatal("rejected empty-PD insert left a dimension pin")
	}
	if err := ed.Insert(index.Record{PD: geom.PointD{1, 2}}); err != nil {
		t.Fatal(err)
	}
	// A 3D record would route to a different (empty) shard, which on its
	// own would accept it: the engine-level dimension pin must reject it.
	if err := ed.Insert(index.Record{PD: geom.PointD{1, 2, 3}}); err == nil {
		t.Fatal("partition engine mixed dimensions across shards")
	}
	if ed.Len() != 1 {
		t.Fatalf("Len = %d after one valid insert", ed.Len())
	}
	// Deleting with a mismatched dimension misses without error.
	if ok, err := ed.Delete(index.Record{PD: geom.PointD{1, 2, 3}}); err != nil || ok {
		t.Fatalf("mismatched-dimension delete: %v %v", ok, err)
	}
	if ok, err := ed.Delete(index.Record{PD: geom.PointD{1, 2}}); err != nil || !ok {
		t.Fatalf("valid delete: %v %v", ok, err)
	}
}

// TestMutableInsertBalancesShards: inserts route to the smallest shard,
// so a pure insert stream keeps shard sizes within one of each other.
func TestMutableInsertBalancesShards(t *testing.T) {
	e := NewDynamicPlanar(Options{Shards: 5, BlockSize: 8})
	defer e.Close()
	rng := rand.New(rand.NewSource(60))
	for i := 0; i < 201; i++ {
		if err := e.Insert(index.Record{P2: geom.Point2{X: rng.Float64(), Y: rng.Float64()}}); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := int64(1<<60), int64(0)
	for i := range e.counts {
		c := e.counts[i].Load()
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi-lo > 1 {
		t.Fatalf("shard imbalance %d..%d after sequential inserts", lo, hi)
	}
}

// TestMutableStatsIncludeRebuild: the logarithmic method's carry merges
// and compactions run against the shard devices, so aggregated engine
// stats must grow with update traffic (not only with queries).
func TestMutableStatsIncludeRebuild(t *testing.T) {
	e := NewDynamicPlanar(Options{Shards: 2, BlockSize: 8})
	defer e.Close()
	rng := rand.New(rand.NewSource(61))
	var pts []geom.Point2
	for i := 0; i < 128; i++ {
		p := geom.Point2{X: rng.Float64(), Y: rng.Float64()}
		pts = append(pts, p)
		if err := e.Insert(index.Record{P2: p}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Total.Writes == 0 || st.SpaceBlocks == 0 {
		t.Fatalf("insert stream produced no build I/O: %+v", st.Total)
	}
	e.ResetStats()
	// Deleting most points triggers compaction; its I/O must be charged.
	for _, p := range pts[:100] {
		if ok, err := e.Delete(index.Record{P2: p}); err != nil || !ok {
			t.Fatalf("delete: %v %v", ok, err)
		}
	}
	if st = e.Stats(); st.Total.IOs() == 0 {
		t.Fatalf("compaction produced no I/O: %+v", st.Total)
	}
}

// TestMutableConcurrentStress hammers one mutable engine from writer
// and reader goroutines simultaneously (CI runs it under -race), then
// verifies the final contents against a per-writer model: concurrency
// may interleave updates but must never lose, duplicate, or corrupt
// one.
func TestMutableConcurrentStress(t *testing.T) {
	e := NewDynamicPlanar(Options{Shards: 4, Workers: 4, BlockSize: 16})
	defer e.Close()

	const writers = 4
	survivors := make([][]geom.Point2, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(70 + w)))
			var live []geom.Point2
			for i := 0; i < 150; i++ {
				// X values in [w, w+1) keep writers' key spaces disjoint.
				if rng.Intn(3) > 0 || len(live) == 0 {
					p := geom.Point2{X: float64(w) + rng.Float64(), Y: rng.Float64()}
					if err := e.Insert(index.Record{P2: p}); err != nil {
						t.Error(err)
						return
					}
					live = append(live, p)
				} else {
					j := rng.Intn(len(live))
					if ok, err := e.Delete(index.Record{P2: live[j]}); err != nil || !ok {
						t.Errorf("writer %d: lost own point (%v, %v)", w, ok, err)
						return
					}
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			survivors[w] = live
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(80 + r)))
			for i := 0; i < 25; i++ {
				// Answers vary with interleaving; they must only be sorted
				// and race-free. Stats snapshots interleave too.
				recs := ask(t, e, Query{Op: OpHalfplane, A: rng.NormFloat64(), B: rng.Float64() * writers}).Recs
				if !sort.SliceIsSorted(recs, func(i, j int) bool { return recs[i].Less(recs[j]) }) {
					t.Error("concurrent answer not canonically sorted")
					return
				}
				if st := e.Stats(); st.Total.IOs() < st.MaxShardIOs {
					t.Error("inconsistent stats snapshot")
					return
				}
			}
		}()
	}
	wg.Wait()

	var want []index.Record
	for _, live := range survivors {
		for _, p := range live {
			want = append(want, index.Record{P2: p})
		}
	}
	sortRecs(want)
	got := ask(t, e, Query{Op: OpHalfplane, A: 0, B: 1e9}).Recs // everything
	if !recsEqual(got, want) {
		t.Fatalf("final contents: %d records, want %d", len(got), len(want))
	}
	if e.Len() != len(want) {
		t.Fatalf("final Len %d, want %d", e.Len(), len(want))
	}

	// The quiescent engine must also agree byte-for-byte with an
	// unsharded index fed the surviving records.
	ref := index.NewDynamicPlanar(eio.NewDevice(16, 0), 1)
	for _, r := range want {
		ref.Insert(r)
	}
	ans, err := ref.Query(Query{Op: OpHalfplane, A: 0.3, B: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(append([]Record{}, ask(t, e, Query{Op: OpHalfplane, A: 0.3, B: 1.5}).Recs...), append([]Record{}, ans.Recs...)) {
		t.Fatal("post-stress engine diverges from unsharded index")
	}
}
