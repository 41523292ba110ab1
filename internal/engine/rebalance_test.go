package engine

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/index"
	"linconstraint/internal/partition"
	"linconstraint/internal/workload"
)

// TestMigrationInvarianceInterleaved is the migration half of the
// engine's central invariant: an interleaved insert/delete/query
// workload with rebalances injected between batches answers
// byte-identically to (a) one unsharded dynamic index fed the same
// updates and (b) a no-rebalance round-robin engine — migration is
// pure I/O policy, invisible in every answer. CI runs this under
// -race.
func TestMigrationInvarianceInterleaved(t *testing.T) {
	for _, s := range []int{2, 5, 8} {
		rng := rand.New(rand.NewSource(90 + int64(s)))
		e := NewDynamicPlanar(Options{Shards: s, Workers: 3, BlockSize: 16, Seed: 7, Partitioner: partition.NewKDCut()})
		rr := NewDynamicPlanar(Options{Shards: s, Workers: 3, BlockSize: 16, Seed: 7})
		ref := index.NewDynamicPlanar(eio.NewDevice(16, 0), 7)
		var model []geom.Point2
		rebalances := 0
		for batchNo := 0; batchNo < 30; batchNo++ {
			var qs []Query
			for op := 0; op < 40; op++ {
				switch r := rng.Intn(20); {
				case r < 9:
					p := geom.Point2{X: rng.Float64(), Y: rng.Float64()}
					qs = append(qs, Query{Op: OpInsert, Rec: index.Record{P2: p}})
					model = append(model, p)
				case r < 13 && len(model) > 0:
					i := rng.Intn(len(model))
					qs = append(qs, Query{Op: OpDelete, Rec: index.Record{P2: model[i]}})
					model[i] = model[len(model)-1]
					model = model[:len(model)-1]
				default:
					h := Query{Op: OpHalfplane, A: rng.NormFloat64(), B: rng.Float64()}
					qs = append(qs, h)
				}
			}
			res := e.Batch(qs)
			rrRes := rr.Batch(qs)
			for i, q := range qs {
				switch q.Op {
				case OpInsert:
					if err := ref.Insert(q.Rec); err != nil {
						t.Fatal(err)
					}
					continue
				case OpDelete:
					if ok, err := ref.Delete(q.Rec); err != nil || !ok {
						t.Fatalf("S=%d batch %d q %d: reference lost the record (%v, %v)", s, batchNo, i, ok, err)
					}
					continue
				}
				if res[i].Err != nil || rrRes[i].Err != nil {
					t.Fatalf("S=%d batch %d q %d: errs %v / %v", s, batchNo, i, res[i].Err, rrRes[i].Err)
				}
				ans, err := ref.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if !recsEqual(res[i].Recs, ans.Recs) {
					t.Fatalf("S=%d batch %d q %d: rebalanced engine %d recs != unsharded %d",
						s, batchNo, i, len(res[i].Recs), len(ans.Recs))
				}
				if !recsEqual(res[i].Recs, rrRes[i].Recs) {
					t.Fatalf("S=%d batch %d q %d: rebalanced engine diverges from round-robin engine",
						s, batchNo, i)
				}
			}
			if batchNo%4 == 3 {
				st, err := e.Rebalance(RebalanceOptions{BatchSize: 16})
				if err != nil {
					t.Fatalf("S=%d batch %d: Rebalance: %v", s, batchNo, err)
				}
				rebalances++
				if st.Moved > st.Planned || st.Planned > len(model) {
					t.Fatalf("S=%d: implausible rebalance stats %+v with %d live", s, st, len(model))
				}
			}
			if e.Len() != len(model) || rr.Len() != len(model) {
				t.Fatalf("S=%d batch %d: Len %d/%d, want %d", s, batchNo, e.Len(), rr.Len(), len(model))
			}
		}
		if rebalances == 0 {
			t.Fatal("workload never rebalanced")
		}
		e.Close()
		rr.Close()
	}
}

// TestMigrationInvarianceConcurrent runs rebalances *concurrently*
// with the update/query stream: a background goroutine rebalances in
// a tight loop (tiny batches, so move batches interleave mid-run)
// while the foreground drives updates and queries and compares every
// answer byte-for-byte against the unsharded reference. Because each
// move batch is atomic under the migration lock, no query may ever
// observe a record mid-flight. CI runs this under -race.
func TestMigrationInvarianceConcurrent(t *testing.T) {
	e := NewDynamicPlanar(Options{Shards: 6, Workers: 4, BlockSize: 16, Seed: 3, Partitioner: partition.NewKDCut()})
	defer e.Close()
	ref := index.NewDynamicPlanar(eio.NewDevice(16, 0), 3)

	stop := make(chan struct{})
	var rebalances atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Rebalance(RebalanceOptions{BatchSize: 4}); err != nil {
				t.Error(err)
				return
			}
			rebalances.Add(1)
		}
	}()

	rng := rand.New(rand.NewSource(31))
	var model []geom.Point2
	for op := 0; op < 900; op++ {
		switch r := rng.Intn(10); {
		case r < 5:
			p := geom.Point2{X: rng.Float64(), Y: rng.Float64()}
			if err := e.Insert(index.Record{P2: p}); err != nil {
				t.Fatal(err)
			}
			ref.Insert(index.Record{P2: p})
			model = append(model, p)
		case r < 7 && len(model) > 0:
			i := rng.Intn(len(model))
			got, err := e.Delete(index.Record{P2: model[i]})
			if err != nil || !got {
				t.Fatalf("op %d: delete of live record during migration: %v %v", op, got, err)
			}
			if ok, _ := ref.Delete(index.Record{P2: model[i]}); !ok {
				t.Fatalf("op %d: reference lost the record", op)
			}
			model[i] = model[len(model)-1]
			model = model[:len(model)-1]
		default:
			a, b := rng.NormFloat64(), rng.Float64()
			got := ask(t, e, Query{Op: OpHalfplane, A: a, B: b}).Recs
			ans, err := ref.Query(Query{Op: OpHalfplane, A: a, B: b})
			if err != nil {
				t.Fatal(err)
			}
			if !recsEqual(got, ans.Recs) {
				t.Fatalf("op %d: answer diverged mid-migration: %d recs vs %d", op, len(got), len(ans.Recs))
			}
		}
	}
	close(stop)
	wg.Wait()
	if rebalances.Load() == 0 {
		t.Fatal("background rebalancer never completed a pass")
	}
	if e.Len() != len(model) {
		t.Fatalf("post-stress Len %d, want %d", e.Len(), len(model))
	}
}

// TestDeleteHeavySoakRebalance is the soak of ISSUE 5's acceptance
// criteria: targeted deletes hollow most shards of a spatially-placed
// engine (stragglers keep their counts nonzero, so the stale grow-only
// summaries keep the shards visitable), then one Rebalance must bring
// the live-count skew to <= 1.5 and strictly reduce mean ShardsVisited
// on selective halfplanes.
func TestDeleteHeavySoakRebalance(t *testing.T) {
	const shards = 8
	const n = 4000
	rng := rand.New(rand.NewSource(17))
	pts := workload.Uniform2(rng, n)
	pd := make([]geom.PointD, n)
	for i, p := range pts {
		pd[i] = geom.PointD{p.X, p.Y}
	}
	e := NewDynamicPlanar(Options{
		Shards: shards, BlockSize: 32, Seed: 5,
		Partitioner: partition.NewKDCut(), PretrainSample: pd,
	})
	defer e.Close()
	for _, p := range pts {
		if err := e.Insert(index.Record{P2: p}); err != nil {
			t.Fatal(err)
		}
	}

	// Hollow everything right of x = 0.25, keeping every 40th record as
	// a straggler: counts skew hard, and the stale summaries still
	// cover the cleared tiles.
	var live []geom.Point2
	for i, p := range pts {
		if p.X > 0.25 && i%40 != 0 {
			if ok, err := e.Delete(index.Record{P2: p}); err != nil || !ok {
				t.Fatalf("targeted delete: %v %v", ok, err)
			}
		} else {
			live = append(live, p)
		}
	}

	meanVisited := func() float64 {
		qrng := rand.New(rand.NewSource(23))
		total := 0
		const queries = 64
		for i := 0; i < queries; i++ {
			h := workload.HalfplaneWithSelectivity(qrng, live, 0.01)
			r := e.Batch([]Query{{Op: OpHalfplane, A: h.A, B: h.B}})[0]
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			total += r.ShardsVisited
		}
		return float64(total) / queries
	}

	hollowVisited := meanVisited()
	st, err := e.Rebalance(RebalanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Before.Skew <= 1.5 {
		t.Fatalf("precondition: hollowed skew %.2f should exceed 1.5", st.Before.Skew)
	}
	if st.After.Skew > 1.5 {
		t.Fatalf("post-rebalance skew %.2f > 1.5 (stats %+v)", st.After.Skew, st)
	}
	if st.Moved == 0 {
		t.Fatalf("soak rebalance moved nothing: %+v", st)
	}
	rebalancedVisited := meanVisited()
	if rebalancedVisited >= hollowVisited {
		t.Fatalf("mean ShardsVisited did not recover: hollowed %.2f, rebalanced %.2f",
			hollowVisited, rebalancedVisited)
	}
	if e.Len() != len(live) {
		t.Fatalf("rebalance changed the live set: Len %d, want %d", e.Len(), len(live))
	}
	t.Logf("skew %.2f -> %.2f, mean visited %.2f -> %.2f, moved %d of %d live",
		st.Before.Skew, st.After.Skew, hollowVisited, rebalancedVisited, st.Moved, len(live))
}

// TestSummaryShrinkRegression pins the satellite fix for grow-only
// summaries: a region cleared by deletes keeps costing a shard visit
// (the stale box still covers it and stragglers keep Count > 0) until
// a rebalance shrinks the summary to the live set — afterwards the
// cleared region is pruned again.
func TestSummaryShrinkRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var pd []geom.PointD
	var pts []geom.Point2
	for i := 0; i < 400; i++ {
		p := geom.Point2{X: rng.Float64() * 2, Y: rng.Float64()}
		pts = append(pts, p)
		pd = append(pd, geom.PointD{p.X, p.Y})
	}
	e := NewDynamicPlanar(Options{
		Shards: 2, BlockSize: 32, Seed: 9,
		Partitioner: partition.NewKDCut(), PretrainSample: pd,
	})
	defer e.Close()
	for _, p := range pts {
		if err := e.Insert(index.Record{P2: p}); err != nil {
			t.Fatal(err)
		}
	}
	// Clear the left half of shard 0's tile (x < 0.5), keeping the rest
	// so its count stays positive.
	for _, p := range pts {
		if p.X < 0.5 {
			if ok, err := e.Delete(index.Record{P2: p}); err != nil || !ok {
				t.Fatalf("delete: %v %v", ok, err)
			}
		}
	}
	// A steep halfplane whose region is (approximately) x < 0.4 — fully
	// inside the cleared region, so no live record qualifies.
	q := Query{Op: OpHalfplane, A: -100, B: 40}
	r := e.Batch([]Query{q})[0]
	if r.Err != nil || len(r.Recs) != 0 {
		t.Fatalf("cleared-region query: %d recs, err %v", len(r.Recs), r.Err)
	}
	if r.ShardsVisited == 0 {
		t.Fatalf("precondition: the stale summary should still force a visit (visited %d)", r.ShardsVisited)
	}
	if _, err := e.Rebalance(RebalanceOptions{}); err != nil {
		t.Fatal(err)
	}
	r = e.Batch([]Query{q})[0]
	if r.Err != nil || len(r.Recs) != 0 {
		t.Fatalf("post-rebalance cleared-region query: %d recs, err %v", len(r.Recs), r.Err)
	}
	if r.ShardsVisited != 0 {
		t.Fatalf("cleared region still visits %d shards after summary shrink", r.ShardsVisited)
	}
}

// TestStaticRebalanceRebuild: a static engine migrates by rebuilding —
// adopting a locality-aware layout via RebalanceOptions.Partitioner
// re-splits the retained build set, rebuilds every shard in parallel,
// and rebuilds the global-id tables, leaving every answer
// byte-identical while pruning starts to bite.
func TestStaticRebalanceRebuild(t *testing.T) {
	const shards = 4
	rng := rand.New(rand.NewSource(53))
	pts := workload.Uniform2(rng, 3000)
	e := NewPlanar(pts, Options{Shards: shards, BlockSize: 32, Seed: 2})
	defer e.Close()

	queries := make([]workload.Halfplane, 32)
	for i := range queries {
		queries[i] = workload.HalfplaneWithSelectivity(rng, pts, 0.01)
	}
	before := make([][]int, len(queries))
	beforeVisited := 0
	for i, h := range queries {
		r := e.Batch([]Query{{Op: OpHalfplane, A: h.A, B: h.B}})[0]
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		before[i] = append([]int(nil), r.IDs...)
		beforeVisited += r.ShardsVisited
	}
	if beforeVisited != len(queries)*shards {
		t.Fatalf("round-robin visited %d, want full fan-out %d", beforeVisited, len(queries)*shards)
	}

	st, err := e.Rebalance(RebalanceOptions{Partitioner: partition.NewKDCut()})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Rebuilt || st.Moved == 0 {
		t.Fatalf("static rebalance stats: %+v", st)
	}
	afterVisited := 0
	for i, h := range queries {
		r := e.Batch([]Query{{Op: OpHalfplane, A: h.A, B: h.B}})[0]
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if len(r.IDs) != len(before[i]) {
			t.Fatalf("query %d: %d ids after rebuild, want %d", i, len(r.IDs), len(before[i]))
		}
		for j := range r.IDs {
			if r.IDs[j] != before[i][j] {
				t.Fatalf("query %d: id %d differs after rebuild (%d vs %d)", i, j, r.IDs[j], before[i][j])
			}
		}
		afterVisited += r.ShardsVisited
	}
	if afterVisited >= beforeVisited {
		t.Fatalf("kd-cut rebuild did not prune: visited %d before, %d after", beforeVisited, afterVisited)
	}
	if e.Len() != len(pts) {
		t.Fatalf("rebuild changed Len to %d", e.Len())
	}

	// A second rebalance with the (now trained) layout is a no-op.
	st, err = e.Rebalance(RebalanceOptions{})
	if err != nil || st.Planned != 0 || st.Moved != 0 {
		t.Fatalf("idempotent rebuild: %+v, %v", st, err)
	}
}

// TestRebalanceBudget: MaxMoves bounds each call, Deferred reports the
// backlog, and repeated bounded calls converge to the balanced state.
func TestRebalanceBudget(t *testing.T) {
	e := NewDynamicPlanar(Options{Shards: 4, BlockSize: 32, Seed: 1, Partitioner: partition.NewKDCut()})
	defer e.Close()
	rng := rand.New(rand.NewSource(67))
	// Untrained layout: all inserts delegate to load balancing, so the
	// first rebalance has real work.
	for i := 0; i < 600; i++ {
		if err := e.Insert(index.Record{P2: geom.Point2{X: rng.Float64(), Y: rng.Float64()}}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := e.Rebalance(RebalanceOptions{MaxMoves: 50, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if st.Moved > 50 || st.Planned > 50 {
		t.Fatalf("budget exceeded: %+v", st)
	}
	if st.Deferred == 0 {
		t.Fatalf("untrained-to-trained migration should defer moves at budget 50: %+v", st)
	}
	for i := 0; i < 20; i++ {
		if st, err = e.Rebalance(RebalanceOptions{MaxMoves: 200}); err != nil {
			t.Fatal(err)
		}
		if st.Deferred == 0 {
			break
		}
	}
	if st.Deferred != 0 {
		t.Fatalf("bounded rebalances never converged: %+v", st)
	}
	if e.Len() != 600 {
		t.Fatalf("budgeted migration changed Len to %d", e.Len())
	}
}

// TestPretrainSample: a mutable engine built with a pre-trained layout
// routes its very first inserts spatially, so the planner prunes
// without any rebalance; Retrain(sample) gives the same effect after
// construction.
func TestPretrainSample(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := workload.Uniform2(rng, 1500)
	pd := make([]geom.PointD, len(pts))
	for i, p := range pts {
		pd[i] = geom.PointD{p.X, p.Y}
	}
	insertAll := func(e *Engine) {
		for _, p := range pts {
			if err := e.Insert(index.Record{P2: p}); err != nil {
				t.Fatal(err)
			}
		}
	}
	selVisited := func(e *Engine) int {
		h := workload.HalfplaneWithSelectivity(rand.New(rand.NewSource(3)), pts, 0.01)
		r := e.Batch([]Query{{Op: OpHalfplane, A: h.A, B: h.B}})[0]
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		return r.ShardsVisited
	}

	pre := NewDynamicPlanar(Options{Shards: 8, BlockSize: 32, Partitioner: partition.NewKDCut(), PretrainSample: pd})
	defer pre.Close()
	insertAll(pre)
	if v := selVisited(pre); v >= 8 {
		t.Fatalf("pre-trained engine visited %d of 8 shards on a selective query", v)
	}

	// Same engine without pre-training: placement delegates, every
	// shard spans (nearly) everything, so almost nothing prunes.
	raw := NewDynamicPlanar(Options{Shards: 8, BlockSize: 32, Partitioner: partition.NewKDCut()})
	defer raw.Close()
	insertAll(raw)
	rawVisited := selVisited(raw)
	if rawVisited <= selVisited(pre) {
		t.Fatalf("untrained engine visited %d, pre-trained %d — expected near-full fan-out vs pruning",
			rawVisited, selVisited(pre))
	}
	// Retrain + Rebalance recovers it online.
	if err := raw.Retrain(pd); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Rebalance(RebalanceOptions{}); err != nil {
		t.Fatal(err)
	}
	if v := selVisited(raw); v >= rawVisited {
		t.Fatalf("retrained engine still visits %d of 8 (was %d)", v, rawVisited)
	}
}

// TestRebalanceErrors: static engines without updates still rebalance
// (rebuild), but Retrain with nothing to train on and Rebalance on an
// empty mutable engine degrade cleanly.
func TestRebalanceErrors(t *testing.T) {
	e := NewDynamicPlanar(Options{Shards: 2, BlockSize: 16})
	defer e.Close()
	if err := e.Retrain(nil); err == nil {
		t.Fatal("Retrain on an empty engine should report nothing to train on")
	}
	st, err := e.Rebalance(RebalanceOptions{})
	if err != nil || st.Planned != 0 {
		t.Fatalf("empty rebalance: %+v, %v", st, err)
	}
	if err := e.Insert(index.Record{P2: geom.Point2{X: 0.5, Y: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Retrain(nil); err != nil {
		t.Fatalf("Retrain on live records: %v", err)
	}
	if !errors.Is(ErrNotEnumerable, ErrNotEnumerable) {
		t.Fatal("sentinel identity")
	}

	// Static engines reject Retrain outright (only Rebalance consumes
	// their layout state) rather than training to no effect.
	se := NewPlanar([]geom.Point2{{X: 1, Y: 1}}, Options{Shards: 2})
	defer se.Close()
	if err := se.Retrain(nil); err == nil {
		t.Fatal("Retrain on a static engine must error, not silently no-op")
	}
}

// TestDeleteProbesHomeShardFirst pins Delete's routing under a trained
// layout. Every preloaded record sits on the shard Place routes it to,
// so each delete counts down exactly that shard. A budgeted Rebalance
// then moves some records and retrains the layout, leaving many live
// records off their new home. For each of them an equal copy is
// inserted (Insert puts it on the home shard) and the record deleted
// once: the home shard's count must go down, even where the original
// sits on a lower-index shard that a sweep in index order would reach
// first. A second delete then finds the original off home, through the
// sweep, until the engine is empty.
func TestDeleteProbesHomeShardFirst(t *testing.T) {
	const shards, n = 8, 3000
	rng := rand.New(rand.NewSource(29))
	pd := workload.CubeD(rng, n, 3)
	e := NewDynamicPartition(Options{
		Shards: shards, BlockSize: 32, Seed: 5,
		Partitioner: partition.NewKDCut(), PretrainSample: pd,
	})
	defer e.Close()
	for _, p := range pd {
		if err := e.Insert(index.Record{PD: p}); err != nil {
			t.Fatal(err)
		}
	}
	counts := func() []int64 {
		c := make([]int64, shards)
		for i := range c {
			c[i] = e.counts[i].Load()
		}
		return c
	}
	// del deletes p and returns the one shard whose count went down.
	del := func(p geom.PointD) int {
		t.Helper()
		before := counts()
		if ok, err := e.Delete(index.Record{PD: p}); err != nil || !ok {
			t.Fatalf("delete %v: %v %v", p, ok, err)
		}
		after, down := counts(), -1
		for i := range after {
			switch after[i] - before[i] {
			case 0:
			case -1:
				if down >= 0 {
					t.Fatalf("delete %v counted down shards %d and %d", p, down, i)
				}
				down = i
			default:
				t.Fatalf("delete %v moved shard %d's count by %d", p, i, after[i]-before[i])
			}
		}
		if down < 0 {
			t.Fatalf("delete %v counted down no shard", p)
		}
		return down
	}

	// Hollow x > 0.4, keeping every 10th record: each delete lands on
	// its home shard.
	var live []geom.PointD
	for i, p := range pd {
		if p[0] > 0.4 && i%10 != 0 {
			if si, home := del(p), e.part.Place(p, shards); si != home {
				t.Fatalf("delete %v counted down shard %d, home %d", p, si, home)
			}
		} else {
			live = append(live, p)
		}
	}

	st, err := e.Rebalance(RebalanceOptions{MaxMoves: 100})
	if err != nil {
		t.Fatal(err)
	}
	if st.Moved == 0 || st.Deferred == 0 {
		t.Fatalf("want a partial rebalance that moved records: %+v", st)
	}
	offHome, lower := 0, 0
	for _, p := range live {
		home := e.part.Place(p, shards)
		if err := e.Insert(index.Record{PD: p}); err != nil {
			t.Fatal(err)
		}
		if si := del(p); si != home {
			t.Fatalf("delete %v with a copy on its home shard %d counted down shard %d", p, home, si)
		}
		if si := del(p); si != home {
			offHome++
			if si < home {
				lower++
			}
		}
	}
	if lower == 0 {
		t.Fatal("no original sat on a lower-index shard than its home: an index-order sweep would pass too")
	}
	if e.Len() != 0 {
		t.Fatalf("Len %d after deleting every record", e.Len())
	}
	t.Logf("rebalance moved %d, deferred %d; %d of %d originals found off home, %d of them below it",
		st.Moved, st.Deferred, offHome, len(live), lower)
}
