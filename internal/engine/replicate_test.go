package engine

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"linconstraint/internal/chan3d"
	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/index"
	"linconstraint/internal/partition"
	"linconstraint/internal/workload"
)

// TestReplicateStaticByteIdentical pins the replication half of the
// engine's central invariant on a static family: promoting and
// demoting replicas is pure I/O policy, invisible in every answer.
func TestReplicateStaticByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := workload.Uniform2(rng, 5_000)
	e := NewPlanar(pts, Options{Shards: 4, BlockSize: 64, Seed: 2, Partitioner: partition.NewKDCut()})
	defer e.Close()

	qs := make([]Query, 16)
	for i := range qs {
		h := workload.HalfplaneWithSelectivity(rng, pts, 0.05)
		qs[i] = Query{Op: OpHalfplane, A: h.A, B: h.B}
	}
	base := e.Batch(qs)

	check := func(stage string) {
		t.Helper()
		got := e.Batch(qs)
		for i := range qs {
			if got[i].Err != nil {
				t.Fatalf("%s: query %d: %v", stage, i, got[i].Err)
			}
			if !equalInts(got[i].IDs, base[i].IDs) {
				t.Fatalf("%s: query %d: answer changed under replication (%d vs %d ids)",
					stage, i, len(got[i].IDs), len(base[i].IDs))
			}
		}
	}

	if err := e.Replicate(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := e.Replicate(2, 2); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Replicas(), []int{3, 1, 2, 1}; !equalInts(got, want) {
		t.Fatalf("Replicas() = %v, want %v", got, want)
	}
	check("replicated 3x/2x")

	if err := e.Drop(0); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Replicas(), []int{1, 1, 2, 1}; !equalInts(got, want) {
		t.Fatalf("after Drop: Replicas() = %v, want %v", got, want)
	}
	check("after drop")

	// Replicate is idempotent at the current degree and validates its
	// arguments.
	if err := e.Replicate(2, 2); err != nil {
		t.Fatalf("same-degree Replicate: %v", err)
	}
	if err := e.Replicate(-1, 2); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if err := e.Replicate(99, 2); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if err := e.Replicate(0, 0); err == nil {
		t.Fatal("degree 0 accepted (the primary is never dropped)")
	}
}

// TestReplicateMutableFanout: a mutable shard's clones must track every
// later insert and delete (the write fan-out), so queries stay
// byte-identical to an unsharded reference across replication churn
// and interleaved updates.
func TestReplicateMutableFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	e := NewDynamicPlanar(Options{Shards: 3, BlockSize: 16, Seed: 5, Partitioner: partition.NewKDCut()})
	defer e.Close()
	ref := index.NewDynamicPlanar(eio.NewDevice(16, 0), 5)

	var model []geom.Point2
	step := func(ops int) {
		t.Helper()
		for op := 0; op < ops; op++ {
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
				ok, err := e.Delete(index.Record{P2: model[i]})
				if err != nil || !ok {
					t.Fatalf("delete of live record: %v %v", ok, err)
				}
				ref.Delete(index.Record{P2: model[i]})
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
					t.Fatalf("answer diverged (%d recs vs %d)", len(got), len(ans.Recs))
				}
			}
		}
		if e.Len() != len(model) {
			t.Fatalf("Len %d, want %d", e.Len(), len(model))
		}
	}

	step(300) // populate before cloning: clones replay a non-trivial multiset
	for si := 0; si < 3; si++ {
		if err := e.Replicate(si, 2+si%2); err != nil {
			t.Fatal(err)
		}
	}
	step(300) // updates fan out to every copy
	if err := e.Drop(0); err != nil {
		t.Fatal(err)
	}
	if err := e.Replicate(1, 3); err != nil {
		t.Fatal(err)
	}
	step(300)
}

// TestReplicaInvarianceConcurrent is the replication analog of the
// migration-invariance harness: a zipf-skewed interleaved read/write
// stream races a background goroutine that churns replica degrees
// (Replicate, Drop, AutoReplicate), and every answer must stay
// byte-identical to one unsharded index. CI runs this under -race.
func TestReplicaInvarianceConcurrent(t *testing.T) {
	const shards = 5
	e := NewDynamicPlanar(Options{Shards: shards, Workers: 4, BlockSize: 16, Seed: 9, Partitioner: partition.NewKDCut()})
	defer e.Close()
	ref := index.NewDynamicPlanar(eio.NewDevice(16, 0), 9)

	stop := make(chan struct{})
	var churns atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		crng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			switch i % 4 {
			case 0:
				err = e.Replicate(crng.Intn(shards), 1+crng.Intn(3))
			case 1:
				_, err = e.AutoReplicate(AutoReplicateOptions{Budget: shards + 3})
			case 2:
				err = e.Drop(crng.Intn(shards))
			default:
				err = e.Replicate(crng.Intn(shards), 2)
			}
			if err != nil {
				t.Error(err)
				return
			}
			churns.Add(1)
		}
	}()

	// Zipf-skewed update targets and query operands: most traffic lands
	// in one corner of the space, so the replicated shards really are
	// the contended ones while the invariance is checked.
	rng := rand.New(rand.NewSource(73))
	zipf := rand.NewZipf(rng, 1.4, 1, 63)
	var model []geom.Point2
	for op := 0; op < 900; op++ {
		cell := float64(zipf.Uint64()) / 64
		switch r := rng.Intn(10); {
		case r < 5:
			p := geom.Point2{X: cell + rng.Float64()/64, Y: rng.Float64()}
			if err := e.Insert(index.Record{P2: p}); err != nil {
				t.Fatal(err)
			}
			ref.Insert(index.Record{P2: p})
			model = append(model, p)
		case r < 7 && len(model) > 0:
			i := rng.Intn(len(model))
			ok, err := e.Delete(index.Record{P2: model[i]})
			if err != nil || !ok {
				t.Fatalf("op %d: delete of live record during churn: %v %v", op, ok, err)
			}
			ref.Delete(index.Record{P2: model[i]})
			model[i] = model[len(model)-1]
			model = model[:len(model)-1]
		default:
			a, b := rng.NormFloat64(), cell+rng.Float64()
			got := ask(t, e, Query{Op: OpHalfplane, A: a, B: b}).Recs
			ans, err := ref.Query(Query{Op: OpHalfplane, A: a, B: b})
			if err != nil {
				t.Fatal(err)
			}
			if !recsEqual(got, ans.Recs) {
				t.Fatalf("op %d: answer diverged under replication churn (%d recs vs %d)",
					op, len(got), len(ans.Recs))
			}
		}
	}
	close(stop)
	wg.Wait()
	if churns.Load() == 0 {
		t.Fatal("background churner never completed a pass")
	}
	if e.Len() != len(model) {
		t.Fatalf("post-stress Len %d, want %d", e.Len(), len(model))
	}
}

// TestAutoReplicatePromotesHotDemotesCold drives the traffic sketch
// directly (white box — the sketch is fed by planned visits in
// production) and checks the policy: a heavy hitter gets the budget,
// up to MaxPerShard; when the heat fades, its extra copies demote.
func TestAutoReplicatePromotesHotDemotesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	pts := workload.Uniform2(rng, 2_000)
	e := NewPlanar(pts, Options{Shards: 8, BlockSize: 64, Seed: 3})
	defer e.Close()

	for i := 0; i < 3_000; i++ {
		e.traffic.Touch(2)
		if i%10 == 0 { // background hum on the other shards
			e.traffic.Touch(uint64(i/10) % 8)
		}
	}
	if ht := e.ShardTraffic(2); ht == 0 {
		t.Fatal("sketch lost the hot shard")
	}
	hot := e.HotShards(nil)
	if len(hot) == 0 || hot[0].Key != 2 {
		t.Fatalf("HotShards top-1 = %+v, want shard 2", hot)
	}

	st, err := e.AutoReplicate(AutoReplicateOptions{Budget: 10, MaxPerShard: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Degrees[2] != 3 {
		t.Fatalf("hot shard degree = %d (degrees %v), want 3", st.Degrees[2], st.Degrees)
	}
	if st.Promoted != 2 || st.Demoted != 0 {
		t.Fatalf("promoted/demoted = %d/%d, want 2/0", st.Promoted, st.Demoted)
	}

	// Heat gone: uniform traffic below MinShare everywhere demotes the
	// extra copies back to the budget floor.
	e.traffic.Reset()
	for i := 0; i < 800; i++ {
		e.traffic.Touch(uint64(i % 8))
	}
	st, err = e.AutoReplicate(AutoReplicateOptions{Budget: 10, MaxPerShard: 3})
	if err != nil {
		t.Fatal(err)
	}
	for si, d := range st.Degrees {
		if d != 1 {
			t.Fatalf("uniform traffic left shard %d at degree %d (degrees %v)", si, d, st.Degrees)
		}
	}
	if st.Demoted != 2 {
		t.Fatalf("demoted = %d, want 2", st.Demoted)
	}
}

// TestStatsReplicaAggregation: Stats must keep the per-shard view
// logical (one entry per shard, replicas summed) while exposing the
// physical layout, and concurrent dispatch must actually spread a
// replicated shard's reads across its copies.
func TestStatsReplicaAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	pts := workload.Uniform2(rng, 2_000)
	e := NewPlanar(pts, Options{Shards: 2, BlockSize: 32, Seed: 4, IOLatency: 50 * time.Microsecond})
	defer e.Close()
	if err := e.Replicate(0, 2); err != nil {
		t.Fatal(err)
	}

	var qs []Query
	for i := 0; i < 8; i++ {
		h := workload.HalfplaneWithSelectivity(rng, pts, 0.02)
		qs = append(qs, Query{Op: OpHalfplane, A: h.A, B: h.B})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := make([]Result, 0, 1)
			one := make([]Query, 1)
			for i := 0; i < 60; i++ {
				one[0] = qs[i%len(qs)]
				res = e.BatchInto(one, res[:0])
				if res[0].Err != nil {
					t.Error(res[0].Err)
					return
				}
			}
		}()
	}
	wg.Wait()

	st := e.Stats()
	if st.Shards != 2 || len(st.PerShard) != 2 {
		t.Fatalf("logical shard view changed under replication: %d shards, %d entries", st.Shards, len(st.PerShard))
	}
	if !equalInts(st.Replicas, []int{2, 1}) {
		t.Fatalf("Replicas = %v, want [2 1]", st.Replicas)
	}
	if len(st.ReplicaReads[0]) != 2 || len(st.ReplicaReads[1]) != 1 {
		t.Fatalf("ReplicaReads shape %v", st.ReplicaReads)
	}
	// Four clients against a 2-copy shard with per-miss latency: both
	// copies must have served reads.
	if st.ReplicaReads[0][0] == 0 || st.ReplicaReads[0][1] == 0 {
		t.Fatalf("dispatch never spread across replicas: %v", st.ReplicaReads[0])
	}
	// The replicated shard's aggregate I/O covers both copies: at least
	// as many reads as the busier copy alone could produce, and space
	// is counted per physical copy.
	if st.PerShard[0].IO.IOs() == 0 {
		t.Fatal("replicated shard reported no I/O")
	}
	if st.SpaceBlocks <= st.PerShard[1].SpaceBlocks {
		t.Fatal("space aggregation lost the replicated copies")
	}

	e.ResetStats()
	st = e.Stats()
	for si := range st.ReplicaReads {
		for ri, v := range st.ReplicaReads[si] {
			if v != 0 {
				t.Fatalf("ResetStats left replica reads %d/%d at %d", si, ri, v)
			}
		}
	}
	if st.Total.IOs() != 0 {
		t.Fatal("ResetStats left device counters")
	}
}

// median3 is the median of three calls of f: the wall-clock ratio
// tests take it over three measurement windows, so one scheduler
// hiccup cannot decide a verdict.
func median3[T cmp.Ordered](f func() T) T {
	w := []T{f(), f(), f()}
	slices.Sort(w)
	return w[1]
}

// TestHotShardReplicationDoublesReadQPS is the throughput half of the
// replication claim (DESIGN.md §10): zipf(s=1.2) k-NN reads concentrate
// on shard 0 of an engine whose devices charge per-miss latency, so one
// device serializes ~43% of the traffic while the others idle. The
// engine's own sketch must name that shard, AutoReplicate must spend
// its budget there, and batched read qps must at least double. A
// small-k query near a KDCut tile's center visits exactly that tile's
// shard (the distance cutoff prunes the rest), so the query points
// alone control the skew. The gain is latency hiding, not CPU
// parallelism — clients blocked on one copy's misses yield while the
// other copies serve — so it holds on a single core.
func TestHotShardReplicationDoublesReadQPS(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const shards, clients, k, hot = 8, 8, 16, 0
	rng := rand.New(rand.NewSource(76))
	pts := workload.Uniform2(rng, 6_000)
	e := NewKNN(pts, Options{
		Shards: shards, BlockSize: 128, Seed: 1, Partitioner: partition.NewKDCut(),
		IOLatency: 200 * time.Microsecond,
	})
	defer e.Close()

	// pools[si]: query points in the middle of shard si's tile.
	pools := make([][]geom.Point2, shards)
	for si := range pools {
		box := e.sums[si].Box
		for j := 0; j < 32; j++ {
			pools[si] = append(pools[si], geom.Point2{
				X: box.Min[0] + (0.4+0.2*rng.Float64())*(box.Max[0]-box.Min[0]),
				Y: box.Min[1] + (0.4+0.2*rng.Float64())*(box.Max[1]-box.Min[1]),
			})
		}
	}
	before := make([][]chan3d.Neighbor, shards)
	for si := range before {
		before[si] = slices.Clone(ask(t, e, Query{Op: OpKNN, K: k, Pt: pools[si][0]}).Neighbors)
	}

	// window drives the zipf read mix from `clients` closed-loop callers
	// on the allocation-free BatchInto path and returns the aggregate qps.
	window := func() float64 {
		var total atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(400 * time.Millisecond)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				crng := rand.New(rand.NewSource(int64(100 + c)))
				zipf := rand.NewZipf(crng, 1.2, 1, shards-1)
				one := make([]Query, 1)
				res := make([]Result, 0, 1)
				for time.Now().Before(deadline) {
					pool := pools[zipf.Uint64()]
					one[0] = Query{Op: OpKNN, K: k, Pt: pool[crng.Intn(len(pool))]}
					res = e.BatchInto(one, res[:0])
					if res[0].Err != nil || res[0].ShardsVisited != 1 {
						t.Errorf("k-NN read: err %v, %d shards visited, want 1", res[0].Err, res[0].ShardsVisited)
						return
					}
					total.Add(1)
				}
			}()
		}
		wg.Wait()
		return float64(total.Load()) / time.Since(start).Seconds()
	}

	single := median3(window)
	if top := e.HotShards(nil); len(top) == 0 || top[0].Key != hot {
		t.Fatalf("sketch top-1 = %+v, want shard %d", top, hot)
	}
	// At s=1.2 the zipf head holds ~43% of the traffic and rank 2 at most
	// ~19%, so MinShare 0.25 leaves the head as the only promotable shard.
	st, err := e.AutoReplicate(AutoReplicateOptions{Budget: shards + 2, MaxPerShard: 3, MinShare: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if st.Degrees[hot] != 3 || st.Promoted != 2 {
		t.Fatalf("AutoReplicate degrees %v (promoted %d), want the hot shard alone at 3", st.Degrees, st.Promoted)
	}
	e.ResetStats()
	replicated := median3(window)

	for ri, n := range e.Stats().ReplicaReads[hot] {
		if n == 0 {
			t.Errorf("replica %d of the hot shard served no reads", ri)
		}
	}
	for si, want := range before {
		if got := ask(t, e, Query{Op: OpKNN, K: k, Pt: pools[si][0]}).Neighbors; !slices.Equal(got, want) {
			t.Errorf("shard %d: answer changed across replication", si)
		}
	}
	t.Logf("zipf read qps: %.0f at 1 copy, %.0f replicated (%.2fx)", single, replicated, replicated/single)
	if replicated < 2*single {
		t.Errorf("replicated qps %.0f < 2x unreplicated %.0f (%.2fx)", replicated, single, replicated/single)
	}
}

// TestReplicaChangesAfterClose: once Close has run, every replica-set
// change returns an error instead of starting workers nobody stops or
// closing a channel Close already closed, and the engine's goroutines
// all exit.
func TestReplicaChangesAfterClose(t *testing.T) {
	pts := workload.Uniform2(rand.New(rand.NewSource(75)), 400)
	before := runtime.NumGoroutine()
	e := NewPlanar(pts, Options{Shards: 4, BlockSize: 64, Seed: 1})
	if err := e.Replicate(1, 2); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if err := e.Replicate(1, 3); err == nil {
		t.Error("Replicate (grow) after Close returned nil")
	}
	if err := e.Drop(1); err == nil {
		t.Error("Drop after Close returned nil")
	}
	// No traffic: AutoReplicate would demote shard 1's extra copy.
	if _, err := e.AutoReplicate(AutoReplicateOptions{}); err == nil {
		t.Error("AutoReplicate after Close returned nil")
	}
	if _, err := e.Repair(1); err == nil {
		t.Error("Repair after Close returned nil")
	}
	if !waitFor(func() bool { return runtime.NumGoroutine() <= before }) {
		t.Errorf("%d goroutines outlive Close", runtime.NumGoroutine()-before)
	}
}

// TestReplicateRacesClose: Replicate/Drop running concurrently with
// Close either lands before Close closes the workers or errors; no
// worker outlives the engine and nothing panics. Run under -race.
func TestReplicateRacesClose(t *testing.T) {
	pts := workload.Uniform2(rand.New(rand.NewSource(76)), 400)
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		e := NewPlanar(pts, Options{Shards: 4, BlockSize: 64, Seed: 1})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for n := 0; n < 100; n++ {
				if e.Replicate(1+n%3, 1+n%2) != nil {
					return
				}
			}
			t.Error("Replicate kept succeeding after Close")
		}()
		e.Close()
		<-done
	}
	if !waitFor(func() bool { return runtime.NumGoroutine() <= before }) {
		t.Errorf("%d goroutines outlive Close", runtime.NumGoroutine()-before)
	}
}
