package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"linconstraint/internal/geom"
	"linconstraint/internal/partition"
	"linconstraint/internal/workload"
)

// layouts returns fresh instances of every shard layout (a trained
// layout belongs to one engine).
func layouts() map[string]func() partition.Partitioner {
	return map[string]func() partition.Partitioner{
		"roundrobin": func() partition.Partitioner { return partition.RoundRobin{} },
		"sfc":        func() partition.Partitioner { return partition.NewSFC() },
		"kdcut":      func() partition.Partitioner { return partition.NewKDCut() },
	}
}

// TestPlannedStaticMatchesUnpruned is the layout-independence property
// for the static families: for every layout × every op, the planned
// (pruned) engine's answers are byte-identical to an unpruned
// round-robin engine's and to the unsharded index's. The unsharded
// comparison rides on the unpruned engine: PR 1/2 tests pin unpruned
// round-robin answers to the unsharded structures, and S=1 keeps that
// chain closed here too.
func TestPlannedStaticMatchesUnpruned(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	const s = 8
	pts2 := workload.Clustered2(rng, 2000, 10)
	pts3 := workload.Cube3(rng, 900)
	ptsD := workload.CubeD(rng, 900, 3)

	for name, mk := range layouts() {
		t.Run(name, func(t *testing.T) {
			base := Options{Shards: s, Workers: 3, BlockSize: 32, Seed: 1}
			planned := base
			planned.Partitioner = mk()
			unpruned := base
			unpruned.NoPlanner = true
			single := Options{Shards: 1, BlockSize: 32, Seed: 1}

			// Planar halfplane.
			e, ref, one := NewPlanar(pts2, planned), NewPlanar(pts2, unpruned), NewPlanar(pts2, single)
			for _, sel := range []float64{0, 0.01, 0.3, 0.9} {
				h := workload.HalfplaneWithSelectivity(rng, pts2, sel)
				q := Query{Op: OpHalfplane, A: h.A, B: h.B}
				got, want, base := ask(t, e, q).IDs, ask(t, ref, q).IDs, ask(t, one, q).IDs
				if !equalInts(got, want) || !equalInts(got, base) {
					t.Fatalf("halfplane sel=%g: planned %d hits, unpruned %d, unsharded %d",
						sel, len(got), len(want), len(base))
				}
			}
			e.Close()
			ref.Close()
			one.Close()

			// 3D halfspace.
			e3, ref3 := New3D(pts3, planned), New3D(pts3, unpruned)
			for i := 0; i < 5; i++ {
				pl := workload.Plane3WithSelectivity(rng, pts3, 0.02+0.2*float64(i))
				q := Query{Op: OpHalfspace3, A: pl.A, B: pl.B, C: pl.C}
				if got, want := ask(t, e3, q).IDs, ask(t, ref3, q).IDs; !equalInts(got, want) {
					t.Fatalf("halfspace3 query %d: %d hits != %d", i, len(got), len(want))
				}
			}
			e3.Close()
			ref3.Close()

			// Partition tree: halfspaceD and conjunction.
			pp := base
			pp.Partitioner = mk()
			eD, refD := NewPartition(ptsD, pp), NewPartition(ptsD, unpruned)
			for i := 0; i < 5; i++ {
				hd := workload.HalfspaceWithSelectivityD(rng, ptsD, 0.01+0.2*float64(i))
				q := Query{Op: OpHalfspaceD, Coef: hd.H.Coef}
				if got, want := ask(t, eD, q).IDs, ask(t, refD, q).IDs; !equalInts(got, want) {
					t.Fatalf("halfspaceD query %d: %d hits != %d", i, len(got), len(want))
				}
				lo := append([]float64(nil), hd.H.Coef...)
				lo[len(lo)-1] -= 0.25
				cs := []Constraint{
					{Coef: hd.H.Coef, Below: true},
					{Coef: lo, Below: false},
				}
				q = Query{Op: OpConjunction, Constraints: cs}
				if got, want := ask(t, eD, q).IDs, ask(t, refD, q).IDs; !equalInts(got, want) {
					t.Fatalf("conjunction query %d: %d hits != %d", i, len(got), len(want))
				}
			}
			eD.Close()
			refD.Close()

			// k-NN with the incremental cutoff.
			kp := base
			kp.Partitioner = mk()
			ek, refk := NewKNN(pts2, kp), NewKNN(pts2, unpruned)
			for i := 0; i < 12; i++ {
				q := geom.Point2{X: rng.Float64(), Y: rng.Float64()}
				for _, k := range []int{1, 7, 40} {
					kq := Query{Op: OpKNN, K: k, Pt: q}
					if got, want := ask(t, ek, kq).Neighbors, ask(t, refk, kq).Neighbors; !reflect.DeepEqual(got, want) {
						t.Fatalf("knn k=%d at %v: %v != %v", k, q, got, want)
					}
				}
			}
			ek.Close()
			refk.Close()
		})
	}
}

// TestPlannedMutableInterleaved is the same property for the mutable
// families under interleaved inserts, deletes and queries (CI runs it
// under -race): the planned engine under every layout stays
// byte-identical to an unpruned round-robin engine and to one unsharded
// dynamic index fed the same updates — including conjunction queries on
// the dynamized partition tree.
func TestPlannedMutableInterleaved(t *testing.T) {
	for name, mk := range layouts() {
		t.Run("dynplanar/"+name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			e := NewDynamicPlanar(Options{Shards: 5, Workers: 3, BlockSize: 16, Seed: 7, Partitioner: mk()})
			ref := NewDynamicPlanar(Options{Shards: 5, Workers: 3, BlockSize: 16, Seed: 7, NoPlanner: true})
			one := NewDynamicPlanar(Options{Shards: 1, BlockSize: 16, Seed: 7})
			defer e.Close()
			defer ref.Close()
			defer one.Close()
			var live []geom.Point2
			for op := 0; op < 900; op++ {
				switch r := rng.Intn(10); {
				case r < 5:
					p := geom.Point2{X: rng.Float64(), Y: rng.Float64()}
					for _, eng := range []*Engine{e, ref, one} {
						if err := eng.Insert(Record{P2: p}); err != nil {
							t.Fatalf("op %d: insert: %v", op, err)
						}
					}
					live = append(live, p)
				case r < 7 && len(live) > 0:
					i := rng.Intn(len(live))
					for _, eng := range []*Engine{e, ref, one} {
						if ok, err := eng.Delete(Record{P2: live[i]}); err != nil || !ok {
							t.Fatalf("op %d: delete present = %v, %v", op, ok, err)
						}
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				default:
					a, b := rng.NormFloat64(), rng.Float64()
					q := Query{Op: OpHalfplane, A: a, B: b}
					got := ask(t, e, q).Recs
					if want := ask(t, ref, q).Recs; !recsEqual(got, want) {
						t.Fatalf("op %d: planned %d recs != unpruned %d", op, len(got), len(want))
					}
					if want := ask(t, one, q).Recs; !recsEqual(got, want) {
						t.Fatalf("op %d: planned %d recs != unsharded %d", op, len(got), len(want))
					}
				}
			}
		})
		t.Run("dynpartition/"+name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(62))
			e := NewDynamicPartition(Options{Shards: 4, Workers: 2, BlockSize: 16, Partitioner: mk()})
			ref := NewDynamicPartition(Options{Shards: 4, Workers: 2, BlockSize: 16, NoPlanner: true})
			one := NewDynamicPartition(Options{Shards: 1, BlockSize: 16})
			defer e.Close()
			defer ref.Close()
			defer one.Close()
			var live []geom.PointD
			for op := 0; op < 500; op++ {
				switch r := rng.Intn(10); {
				case r < 5:
					p := geom.PointD{rng.Float64(), rng.Float64(), rng.Float64()}
					for _, eng := range []*Engine{e, ref, one} {
						if err := eng.Insert(Record{PD: p}); err != nil {
							t.Fatalf("op %d: insert: %v", op, err)
						}
					}
					live = append(live, p)
				case r < 7 && len(live) > 0:
					i := rng.Intn(len(live))
					for _, eng := range []*Engine{e, ref, one} {
						if ok, err := eng.Delete(Record{PD: live[i]}); err != nil || !ok {
							t.Fatalf("op %d: delete present = %v, %v", op, ok, err)
						}
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				case r < 8:
					coef := []float64{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5, rng.Float64()}
					cs := []Constraint{
						{Coef: coef, Below: true},
						{Coef: []float64{coef[0], coef[1], coef[2] - 0.3}, Below: false},
					}
					q := Query{Op: OpConjunction, Constraints: cs}
					got := ask(t, e, q).Recs
					if want := ask(t, ref, q).Recs; !recsEqual(got, want) {
						t.Fatalf("op %d: planned conjunction %d recs != unpruned %d", op, len(got), len(want))
					}
					if want := ask(t, one, q).Recs; !recsEqual(got, want) {
						t.Fatalf("op %d: planned conjunction %d recs != unsharded %d", op, len(got), len(want))
					}
				default:
					coef := []float64{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5, rng.Float64()}
					q := Query{Op: OpHalfspaceD, Coef: coef}
					got := ask(t, e, q).Recs
					if want := ask(t, ref, q).Recs; !recsEqual(got, want) {
						t.Fatalf("op %d: planned %d recs != unpruned %d", op, len(got), len(want))
					}
					if want := ask(t, one, q).Recs; !recsEqual(got, want) {
						t.Fatalf("op %d: planned %d recs != unsharded %d", op, len(got), len(want))
					}
				}
			}
		})
	}
}

// TestPruningStatsAndEffectiveness: a locality-aware layout must
// actually skip shards on selective queries — at 1% selectivity it
// visits at most half of them on average — the per-query plan stats
// must account for every shard, and Stats must accumulate them. The
// round-robin layout must prune far less: its shards are uniform
// samples spanning the whole data set (occasional exact prunes — a
// shard that truly holds no qualifying point under a very selective
// query — are legitimate).
func TestPruningStatsAndEffectiveness(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	pts := workload.Uniform2(rng, 4000)
	const s = 8
	prunedBy := map[string]int64{}
	for _, tc := range []struct {
		name      string
		part      partition.Partitioner
		wantPrune bool
	}{
		{"kdcut", partition.NewKDCut(), true},
		{"sfc", partition.NewSFC(), true},
		{"roundrobin", partition.RoundRobin{}, false},
	} {
		e := NewPlanar(pts, Options{Shards: s, Workers: 4, BlockSize: 32, Seed: 1, Partitioner: tc.part})
		e.ResetStats()
		var visited, pruned int64
		const queries = 24
		qs := make([]Query, queries)
		for i := range qs {
			h := workload.HalfplaneWithSelectivity(rng, pts, 0.01)
			qs[i] = Query{Op: OpHalfplane, A: h.A, B: h.B}
		}
		for _, r := range e.Batch(qs) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if r.ShardsVisited+r.ShardsPruned != s {
				t.Fatalf("%s: plan stats %d+%d != %d shards", tc.name, r.ShardsVisited, r.ShardsPruned, s)
			}
			visited += int64(r.ShardsVisited)
			pruned += int64(r.ShardsPruned)
		}
		st := e.Stats()
		if st.ShardsVisited != visited || st.ShardsPruned != pruned {
			t.Fatalf("%s: Stats (%d, %d) != per-query sums (%d, %d)",
				tc.name, st.ShardsVisited, st.ShardsPruned, visited, pruned)
		}
		if tc.wantPrune && pruned == 0 {
			t.Errorf("%s: no shards pruned across %d selective halfplanes", tc.name, queries)
		}
		if mean := float64(visited) / queries; tc.wantPrune && mean > s/2 {
			t.Errorf("%s: mean %.2f of %d shards visited on selective halfplanes, want <= %d", tc.name, mean, s, s/2)
		}
		prunedBy[tc.name] = pruned
		e.ResetStats()
		if st := e.Stats(); st.ShardsVisited != 0 || st.ShardsPruned != 0 {
			t.Fatalf("%s: ResetStats left planner counters %+v", tc.name, st)
		}
		e.Close()
	}
	if prunedBy["roundrobin"]*2 >= prunedBy["kdcut"] {
		t.Errorf("round-robin pruned %d vs kd-cut %d — locality should dominate",
			prunedBy["roundrobin"], prunedBy["kdcut"])
	}
}

// TestKNNCutoffPrunes: under a locality-aware layout, k-NN queries far
// from most shards must stop before visiting all of them (the
// kth-distance cutoff of the satellite fix), while still answering
// byte-identically (checked in TestPlannedStaticMatchesUnpruned).
func TestKNNCutoffPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	pts := workload.Uniform2(rng, 4000)
	const s = 8
	e := NewKNN(pts, Options{Shards: s, Workers: 2, BlockSize: 32, Seed: 1, Partitioner: partition.NewKDCut()})
	defer e.Close()
	var visited int
	const queries = 16
	for i := 0; i < queries; i++ {
		q := Query{Op: OpKNN, K: 5, Pt: geom.Point2{X: rng.Float64(), Y: rng.Float64()}}
		r := e.Batch([]Query{q})[0]
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if len(r.Neighbors) != 5 {
			t.Fatalf("query %d: %d neighbors", i, len(r.Neighbors))
		}
		visited += r.ShardsVisited
	}
	if mean := float64(visited) / queries; mean > float64(s)-1 {
		t.Errorf("k-NN cutoff ineffective: mean %.1f of %d shards visited", mean, s)
	}
}

// TestPlannedInsertRouting: after a build has trained a locality-aware
// layout, inserts into a mutable engine... the mutable engines build
// empty, so Place delegates — this pins that delegation stays within
// range and that summaries make later queries still exact when inserts
// land on arbitrary shards.
func TestPlacedInsertSummaries(t *testing.T) {
	part := partition.NewKDCut()
	// Train the layout on a grid so Place routes spatially.
	var train []geom.PointD
	for i := 0; i < 16; i++ {
		train = append(train, geom.PointD{float64(i%4) / 4, float64(i/4) / 4})
	}
	part.Split(train, 4)
	e := NewDynamicPlanar(Options{Shards: 4, BlockSize: 16, Seed: 3, Partitioner: part})
	defer e.Close()
	rng := rand.New(rand.NewSource(9))
	var live []geom.Point2
	for i := 0; i < 300; i++ {
		p := geom.Point2{X: rng.Float64(), Y: rng.Float64()}
		if err := e.Insert(Record{P2: p}); err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
	}
	// Trained placement must actually cluster: some query must prune.
	e.ResetStats()
	got := ask(t, e, Query{Op: OpHalfplane, A: 0, B: 0.1}).Recs
	var want []Record
	for _, p := range live {
		if geom.SideOfLine2(geom.Line2{A: 0, B: 0.1}, p) <= 0 {
			want = append(want, Record{P2: p})
		}
	}
	sortRecs(want)
	if !recsEqual(got, want) {
		t.Fatalf("placed-insert engine answered %d recs, model %d", len(got), len(want))
	}
	if st := e.Stats(); st.ShardsPruned == 0 {
		t.Errorf("trained placement gave no pruning on a bottom-band query: %+v",
			fmt.Sprintf("visited %d pruned %d", st.ShardsVisited, st.ShardsPruned))
	}
}
