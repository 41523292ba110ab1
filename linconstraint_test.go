package linconstraint

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestPlanarIndexFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point2, 1000)
	for i := range pts {
		pts[i] = Point2{X: rng.Float64(), Y: rng.Float64()}
	}
	idx := NewPlanarIndex(pts, Config{BlockSize: 32})
	if idx.Len() != 1000 {
		t.Fatal("Len")
	}
	idx.ResetStats()
	got := idx.Halfplane(0.5, 0.2)
	var want []int
	for i, p := range pts {
		if p.Y <= 0.5*p.X+0.2 {
			want = append(want, i)
		}
	}
	if !sort.IntsAreSorted(got) || len(got) != len(want) {
		t.Fatalf("got %d sorted=%v, want %d", len(got), sort.IntsAreSorted(got), len(want))
	}
	s := idx.Stats()
	if s.IOs() == 0 || s.SpaceBlocks == 0 {
		t.Fatal("stats not populated")
	}
}

func TestIndex3DFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]Point3, 500)
	for i := range pts {
		pts[i] = Point3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	idx := NewIndex3D(pts, Window{XMin: -2, XMax: 2, YMin: -2, YMax: 2}, Config{BlockSize: 16})
	if idx.Len() != 500 {
		t.Fatal("Len")
	}
	idx.ResetStats()
	got := idx.Halfspace(0.1, -0.2, 0.4)
	cnt := 0
	for _, p := range pts {
		if p.Z <= 0.1*p.X-0.2*p.Y+0.4 {
			cnt++
		}
	}
	if len(got) != cnt {
		t.Fatalf("got %d, want %d", len(got), cnt)
	}
	if idx.Stats().IOs() == 0 {
		t.Fatal("stats")
	}
}

func TestKNNFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]Point2, 400)
	for i := range pts {
		pts[i] = Point2{X: rng.Float64(), Y: rng.Float64()}
	}
	idx := NewKNNIndex(pts, Config{BlockSize: 16})
	idx.ResetStats()
	got := idx.Query(5, Point2{X: 0.5, Y: 0.5})
	if len(got) != 5 {
		t.Fatalf("got %d neighbors", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Dist2 < got[i-1].Dist2 {
			t.Fatal("not sorted by distance")
		}
	}
	if idx.Stats().IOs() == 0 {
		t.Fatal("stats")
	}
}

func TestPartitionTreeFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := make([]PointD, 800)
	for i := range pts {
		pts[i] = PointD{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	tr := NewPartitionTree(pts, Config{BlockSize: 16})
	if tr.Len() != 800 {
		t.Fatal("Len")
	}
	tr.ResetStats()
	got := tr.Halfspace([]float64{0.2, -0.1, 0.5})
	cnt := 0
	for _, p := range pts {
		if p[2] <= 0.2*p[0]-0.1*p[1]+0.5 {
			cnt++
		}
	}
	if len(got) != cnt {
		t.Fatalf("halfspace: got %d, want %d", len(got), cnt)
	}
	// Conjunction: a slab 0.3 <= z' <= 0.7 where z' = z.
	res := tr.Conjunction([]Constraint{
		{Coef: []float64{0, 0, 0.7}, Below: true},
		{Coef: []float64{0, 0, 0.3}, Below: false},
	})
	cnt = 0
	for _, p := range pts {
		if p[2] >= 0.3 && p[2] <= 0.7 {
			cnt++
		}
	}
	if len(res) != cnt {
		t.Fatalf("conjunction: got %d, want %d", len(res), cnt)
	}
	if tr.Stats().IOs() == 0 {
		t.Fatal("stats")
	}
}

func TestConfigDefaults(t *testing.T) {
	idx := NewPlanarIndex([]Point2{{X: 1, Y: 1}}, Config{})
	if got := idx.Halfplane(0, 2); len(got) != 1 {
		t.Fatal("default config index broken")
	}
	if idx.Stats().SpaceBlocks == 0 {
		t.Fatal("space")
	}
}

func TestCachedDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]Point2, 2000)
	for i := range pts {
		pts[i] = Point2{X: rng.Float64(), Y: rng.Float64()}
	}
	warm := NewPlanarIndex(pts, Config{BlockSize: 32, CacheBlocks: 1 << 20})
	cold := NewPlanarIndex(pts, Config{BlockSize: 32})
	warm.Halfplane(0.1, 0.2) // populate cache
	warm.ResetStats()        // drops cache too
	warm.Halfplane(0.1, 0.2)
	warm.Halfplane(0.1, 0.2) // second run should hit cache
	cold.ResetStats()
	cold.Halfplane(0.1, 0.2)
	cold.Halfplane(0.1, 0.2)
	if warm.Stats().CacheHits == 0 {
		t.Fatal("expected cache hits with a large cache")
	}
	if warm.Stats().Reads >= cold.Stats().Reads {
		t.Fatal("cache did not reduce reads")
	}
}

func TestDynamicPlanarFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	idx := NewDynamicPlanarIndex(Config{BlockSize: 16, Seed: 2})
	var model []Point2
	for i := 0; i < 300; i++ {
		p := Point2{X: rng.Float64(), Y: rng.Float64()}
		idx.Insert(p)
		model = append(model, p)
	}
	for i := 0; i < 100; i++ {
		if !idx.Delete(model[i]) {
			t.Fatalf("delete %d failed", i)
		}
	}
	model = model[100:]
	got := idx.Halfplane(0.3, 0.4)
	want := 0
	for _, p := range model {
		if p.Y <= 0.3*p.X+0.4 {
			want++
		}
	}
	if len(got) != want || idx.Len() != len(model) {
		t.Fatalf("dynamic facade: got %d want %d (len %d)", len(got), want, idx.Len())
	}
	if idx.Stats().IOs() == 0 {
		t.Fatal("stats")
	}
	idx.ResetStats()
}

func TestDynamicPartitionFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	idx := NewDynamicPartitionTree(Config{BlockSize: 16})
	var model []PointD
	for i := 0; i < 200; i++ {
		p := PointD{rng.Float64(), rng.Float64(), rng.Float64()}
		idx.Insert(p)
		model = append(model, p)
	}
	if !idx.Delete(model[0]) || idx.Delete(PointD{9, 9, 9}) {
		t.Fatal("delete behaviour")
	}
	model = model[1:]
	got := idx.Halfspace([]float64{0, 0, 0.5})
	want := 0
	for _, p := range model {
		if p[2] <= 0.5 {
			want++
		}
	}
	if len(got) != want || idx.Len() != len(model) {
		t.Fatalf("got %d want %d", len(got), want)
	}
	if idx.Stats().SpaceBlocks == 0 {
		t.Fatal("stats")
	}
}

func TestEngineFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([]Point2, 2000)
	for i := range pts {
		pts[i] = Point2{X: rng.Float64(), Y: rng.Float64()}
	}
	ref := NewPlanarIndex(pts, Config{BlockSize: 32, Seed: 1})
	e := NewPlanarEngine(pts, EngineConfig{Shards: 5, Workers: 3, BlockSize: 32, Seed: 1})
	defer e.Close()
	if e.Len() != 2000 || e.NumShards() != 5 || e.NumWorkers() != 3 {
		t.Fatalf("shape: len=%d shards=%d workers=%d", e.Len(), e.NumShards(), e.NumWorkers())
	}

	// Scalar path: identical result sets, shard for shard merged.
	for _, q := range []struct{ a, b float64 }{{0.5, 0.2}, {-1, 0.9}, {0, 0.01}} {
		got, want := e.Halfplane(q.a, q.b), ref.Halfplane(q.a, q.b)
		if len(got) != len(want) {
			t.Fatalf("engine %d hits, unsharded %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("result sets differ at %d: %d vs %d", i, got[i], want[i])
			}
		}
	}

	// Batched path answers in order and routes op mismatches to Err.
	res := e.Batch([]Query{
		{Op: OpHalfplane, A: 0.5, B: 0.2},
		{Op: OpKNN, K: 4, Pt: Point2{X: 0.5, Y: 0.5}},
	})
	if res[0].Err != nil || len(res[0].IDs) == 0 {
		t.Fatalf("batched halfplane failed: %+v", res[0].Err)
	}
	if res[1].Err == nil {
		t.Fatal("kNN op on a planar engine must error")
	}

	// Aggregated stats: totals populated, worst shard bounded by total.
	e.ResetStats()
	e.Halfplane(0.5, 0.2)
	st := e.Stats()
	if st.Total.IOs() == 0 || st.SpaceBlocks == 0 || len(st.PerShard) != 5 {
		t.Fatalf("engine stats not aggregated: %+v", st)
	}
	if st.MaxShardIOs > st.Total.IOs() {
		t.Fatalf("worst shard %d exceeds total %d", st.MaxShardIOs, st.Total.IOs())
	}
}

// TestMutableEngineFacade drives the public mutable-engine surface:
// scalar Insert/Delete, OpInsert/OpDelete batch ops, HalfplaneRecs /
// HalfspaceDRecs answers byte-identical to an unsharded dynamic index
// fed the same updates, and ErrImmutable on static engines.
func TestMutableEngineFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := NewDynamicPlanarEngine(EngineConfig{Shards: 4, Workers: 2, BlockSize: 16, Seed: 3})
	defer e.Close()
	ref := NewDynamicPlanarIndex(Config{BlockSize: 16, Seed: 3})
	if !e.Mutable() {
		t.Fatal("dynamic engine must be mutable")
	}

	var pts []Point2
	for i := 0; i < 400; i++ {
		p := Point2{X: rng.Float64(), Y: rng.Float64()}
		pts = append(pts, p)
		if err := e.Insert(Rec2(p)); err != nil {
			t.Fatal(err)
		}
		ref.Insert(p)
	}
	for i := 0; i < 150; i++ {
		ok, err := e.Delete(Rec2(pts[i]))
		if err != nil || !ok || !ref.Delete(pts[i]) {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	if e.Len() != 250 || ref.Len() != 250 {
		t.Fatalf("Len %d/%d", e.Len(), ref.Len())
	}
	for _, q := range []struct{ a, b float64 }{{0.5, 0.2}, {-1, 0.9}, {0, 0.4}} {
		got, want := e.HalfplaneRecs(q.a, q.b), ref.Halfplane(q.a, q.b)
		if len(got) != len(want) {
			t.Fatalf("engine %d hits, unsharded %d", len(got), len(want))
		}
		for i := range got {
			if got[i].P2 != want[i] {
				t.Fatalf("answers differ at %d: %v vs %v", i, got[i], want[i])
			}
		}
	}

	// Batched updates apply in order; stats cover the rebuild work.
	p := Point2{X: 2, Y: 2}
	res := e.Batch([]Query{
		{Op: OpInsert, Rec: Rec2(p)},
		{Op: OpHalfplane, A: 0, B: 3},
		{Op: OpDelete, Rec: Rec2(p)},
		{Op: OpDelete, Rec: Rec2(p)},
	})
	if res[0].Err != nil || res[1].Err != nil || len(res[1].Recs) == 0 {
		t.Fatalf("batched insert+query failed: %+v", res[:2])
	}
	if !res[2].Deleted || res[3].Deleted {
		t.Fatalf("batched delete flags: %+v", res[2:])
	}
	if st := e.Stats(); st.Total.Writes == 0 {
		t.Fatalf("update traffic charged no writes: %+v", st.Total)
	}

	// d-dimensional variant.
	ed := NewDynamicPartitionEngine(EngineConfig{Shards: 3, BlockSize: 16})
	defer ed.Close()
	refD := NewDynamicPartitionTree(Config{BlockSize: 16})
	for i := 0; i < 200; i++ {
		pd := PointD{rng.Float64(), rng.Float64(), rng.Float64()}
		if err := ed.Insert(RecD(pd)); err != nil {
			t.Fatal(err)
		}
		refD.Insert(pd)
	}
	got, want := ed.HalfspaceDRecs([]float64{0.1, 0.1, 0.5}), refD.Halfspace([]float64{0.1, 0.1, 0.5})
	if len(got) != len(want) {
		t.Fatalf("partition engine %d hits, unsharded %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i].PD {
			if got[i].PD[j] != want[i][j] {
				t.Fatalf("partition answers differ at %d", i)
			}
		}
	}
	refD.ResetStats() // API symmetry: every root index exposes ResetStats
	if refD.Stats().IOs() != 0 {
		t.Fatal("DynamicPartitionTree.ResetStats did not zero counters")
	}

	// Static engines refuse updates.
	se := NewPlanarEngine(pts[:10], EngineConfig{Shards: 2})
	defer se.Close()
	if se.Mutable() {
		t.Fatal("static engine claims mutability")
	}
	if err := se.Insert(Rec2(p)); err != ErrImmutable {
		t.Fatalf("static Insert: %v", err)
	}
}

func TestEngineConjunctionAndKNNFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ptsD := make([]PointD, 900)
	for i := range ptsD {
		ptsD[i] = PointD{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	ref := NewPartitionTree(ptsD, Config{BlockSize: 32})
	e := NewPartitionEngine(ptsD, EngineConfig{Shards: 4, BlockSize: 32})
	defer e.Close()
	cs := []Constraint{
		{Coef: []float64{0.2, 0.1, 0.7}, Below: true},
		{Coef: []float64{-0.3, 0.2, 0.1}, Below: false},
	}
	got, want := e.Conjunction(cs), ref.Conjunction(cs)
	if len(got) != len(want) {
		t.Fatalf("conjunction: engine %d hits, tree %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("conjunction differs at %d", i)
		}
	}

	pts2 := make([]Point2, 700)
	for i := range pts2 {
		pts2[i] = Point2{X: rng.Float64(), Y: rng.Float64()}
	}
	kref := NewKNNIndex(pts2, Config{BlockSize: 32, Seed: 1})
	ke := NewKNNEngine(pts2, EngineConfig{Shards: 3, BlockSize: 32, Seed: 1})
	defer ke.Close()
	q := Point2{X: 0.4, Y: 0.6}
	gn, wn := ke.KNN(9, q), kref.Query(9, q)
	if len(gn) != len(wn) {
		t.Fatalf("kNN: engine %d results, unsharded %d", len(gn), len(wn))
	}
	for i := range gn {
		if gn[i] != wn[i] {
			t.Fatalf("kNN differs at %d: %+v vs %+v", i, gn[i], wn[i])
		}
	}
}

func TestRebalanceFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var pts []Point2
	var pd []PointD
	for i := 0; i < 1200; i++ {
		p := Point2{X: rng.Float64(), Y: rng.Float64()}
		pts = append(pts, p)
		pd = append(pd, PointD{p.X, p.Y})
	}

	// A pre-trained dynamic engine prunes from the very first inserts.
	e := NewDynamicPlanarEngine(EngineConfig{
		Shards: 6, BlockSize: 32, Seed: 2,
		Partitioner: KDCutLayout(), PretrainSample: pd,
	})
	defer e.Close()
	ref := NewDynamicPlanarIndex(Config{BlockSize: 32, Seed: 2})
	for _, p := range pts {
		if err := e.Insert(Rec2(p)); err != nil {
			t.Fatal(err)
		}
		ref.Insert(p)
	}
	if st := e.Stats(); st.ShardsPruned == 0 {
		// Every insert plans nothing; run one selective query.
		r := e.Batch([]Query{{Op: OpHalfplane, A: 0, B: 0.05}})[0]
		if r.Err != nil || r.ShardsPruned == 0 {
			t.Fatalf("pre-trained engine pruned nothing: %+v", r)
		}
	}

	// Hollow the right side, rebalance, and verify the facade reports
	// sane stats while answers track the unsharded reference.
	for _, p := range pts {
		if p.X > 0.5 {
			if ok, err := e.Delete(Rec2(p)); err != nil || !ok {
				t.Fatalf("delete: %v %v", ok, err)
			}
			if !ref.Delete(p) {
				t.Fatal("reference delete missed")
			}
		}
	}
	st, err := e.Rebalance(RebalanceOptions{BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if st.After.Skew > 1.5 || st.Moved == 0 {
		t.Fatalf("facade rebalance stats: %+v", st)
	}
	got, want := e.HalfplaneRecs(0.3, 0.4), ref.Halfplane(0.3, 0.4)
	if len(got) != len(want) {
		t.Fatalf("post-rebalance answer: %d recs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].P2 != want[i] {
			t.Fatalf("post-rebalance answer differs at %d", i)
		}
	}
	if err := e.Retrain(nil); err != nil {
		t.Fatalf("Retrain on live records: %v", err)
	}

	// Static engines rebalance by rebuilding onto the new layout.
	se := NewPlanarEngine(pts, EngineConfig{Shards: 4, BlockSize: 32, Seed: 1})
	defer se.Close()
	before := se.Halfplane(0.2, 0.3)
	sst, err := se.Rebalance(RebalanceOptions{Partitioner: KDCutLayout()})
	if err != nil || !sst.Rebuilt || sst.Moved == 0 {
		t.Fatalf("static facade rebalance: %+v, %v", sst, err)
	}
	after := se.Halfplane(0.2, 0.3)
	if len(before) != len(after) {
		t.Fatalf("static rebuild changed the answer: %d vs %d ids", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("static rebuild changed id %d", i)
		}
	}
}

// TestRobustnessFacade drives the public robustness surface end to end:
// fault injection on a replicated shard, breaker trip and route-around,
// Repair, and graceful degradation under a deadline — answers
// byte-identical to the healthy baseline except where degradation is
// explicitly reported.
func TestRobustnessFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := make([]Point2, 3000)
	for i := range pts {
		pts[i] = Point2{X: rng.Float64(), Y: rng.Float64()}
	}
	e := NewPlanarEngine(pts, EngineConfig{
		Shards: 2, BlockSize: 32, Seed: 7, Partitioner: KDCutLayout(),
		HedgeAfter: time.Hour, // armed but never firing: hedge timer set every run, deterministic routing
		Breaker:    &BreakerConfig{Threshold: 2, Cooldown: time.Hour},
	})
	defer e.Close()
	if err := e.Replicate(0, 2); err != nil {
		t.Fatal(err)
	}
	base := e.Halfplane(0.5, 0.3)
	if len(base) == 0 {
		t.Fatal("baseline query empty")
	}

	// Hard-fail the copy the idle engine always picks; the breaker must
	// trip it open and route reads to the survivor, answers unchanged.
	if err := e.InjectFaults(0, 0, FaultPlan{FailStall: 10 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	if err := e.FailReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := e.Halfplane(0.5, 0.3)
		if len(got) != len(base) {
			t.Fatalf("faulted answer has %d ids, want %d", len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("faulted answer differs at %d", i)
			}
		}
		states, err := e.BreakerStates(0)
		if err != nil {
			t.Fatal(err)
		}
		if states[0] == BreakerOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never tripped: states %v", states)
		}
	}

	// Repair heals the primary and re-closes the breaker.
	n, err := e.Repair(0)
	if err != nil || n != 1 {
		t.Fatalf("Repair: n=%d err=%v", n, err)
	}
	if err := e.HealReplica(0, 0); err != nil { // idempotent on a healed copy
		t.Fatal(err)
	}
	states, err := e.BreakerStates(0)
	if err != nil {
		t.Fatal(err)
	}
	for ri, s := range states {
		if s != BreakerClosed {
			t.Fatalf("replica %d state %v after repair, want closed", ri, s)
		}
	}
	got := e.Halfplane(0.5, 0.3)
	for i := range got {
		if got[i] != base[i] {
			t.Fatalf("post-repair answer differs at %d", i)
		}
	}

	// Lenient deadline engine: a stalled shard degrades the run and
	// names the shard it abandoned; HedgeAuto accepted as a config.
	soft := NewPlanarEngine(pts, EngineConfig{
		Shards: 2, BlockSize: 32, Seed: 7, Partitioner: KDCutLayout(),
		Deadline: 2 * time.Millisecond, HedgeAfter: HedgeAuto,
	})
	defer soft.Close()
	if err := soft.InjectFaults(1, 0, FaultPlan{FailStall: 200 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	if err := soft.FailReplica(1, 0); err != nil {
		t.Fatal(err)
	}
	// y <= 0x + 2 covers every point in [0,1]² — unprunable, so the
	// stalled shard is always on the plan and the deadline must bite.
	res := soft.Batch([]Query{{Op: OpHalfplane, A: 0, B: 2}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if !res[0].Degraded || len(res[0].Missing) == 0 {
		t.Fatalf("stalled run not degraded: %+v missing %v", res[0].Degraded, res[0].Missing)
	}
}
