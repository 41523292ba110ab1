// Command sharded_feed serves a ranked-feed scenario from the sharded
// engine: a catalog of items scored on (freshness, engagement) is
// indexed once, then many concurrent clients screen it with linear
// ranking constraints — "engagement >= θ − slope·freshness", i.e. the
// complement of a halfplane query — exactly the PricePerShare-style
// constraint of the paper's §1.1, at production concurrency.
//
// The demo builds one engine with 8 shards (each shard a private
// simulated disk), fires concurrent client batches at it, verifies a
// sample of answers against an unsharded §3 index, and prints
// throughput plus the aggregated I/O accounting: summed I/O tracks
// total work (≤ S × the Theorem 3.5 bound), the worst shard tracks the
// critical path a parallel disk farm would wait for.
package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"linconstraint"
)

const (
	nItems   = 50000
	nClients = 6
	nBatches = 24 // per client
	batchLen = 16
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// Catalog: freshness in [0,1] (1 = newest), engagement long-tailed.
	items := make([]linconstraint.Point2, nItems)
	for i := range items {
		f := rng.Float64()
		e := rng.ExpFloat64() * (0.2 + 0.8*f) // newer items engage more
		items[i] = linconstraint.Point2{X: f, Y: e}
	}

	start := time.Now()
	eng := linconstraint.NewPlanarEngine(items, linconstraint.EngineConfig{
		Shards: 8, Workers: 8, BlockSize: 128, Seed: 1,
	})
	defer eng.Close()
	fmt.Printf("indexed %d items on %d shards in %v (%d blocks)\n",
		eng.Len(), eng.NumShards(), time.Since(start).Round(time.Millisecond),
		eng.Stats().SpaceBlocks)

	// A feed screen keeps items with engagement >= θ − slope·freshness.
	// The engine reports the complement (y <= a·x + b), so clients ask
	// for the items to *drop* and subtract; screens with small drop sets
	// are the common case, which is where O(log_B n + t) shines.
	screen := func() linconstraint.Query {
		slope := 0.2 + rng.Float64()*0.8
		theta := 0.05 + rng.Float64()*0.15
		return linconstraint.Query{Op: linconstraint.OpHalfplane, A: -slope, B: theta}
	}

	// Ground truth for a few screens from an unsharded index.
	ref := linconstraint.NewPlanarIndex(items, linconstraint.Config{BlockSize: 128, Seed: 1})
	for i := 0; i < 3; i++ {
		q := screen()
		res := eng.Batch([]linconstraint.Query{q})[0]
		if res.Err != nil {
			panic(res.Err)
		}
		got, want := res.IDs, ref.Halfplane(q.A, q.B)
		if len(got) != len(want) {
			panic("sharded and unsharded result sets differ")
		}
		for j := range got {
			if got[j] != want[j] {
				panic("sharded and unsharded result sets differ")
			}
		}
	}
	fmt.Println("spot-check: sharded result sets identical to the unsharded index")

	// Concurrent clients, batched screens.
	eng.ResetStats()
	start = time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var screened, dropped int
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			crng := rand.New(rand.NewSource(int64(100 + c)))
			for b := 0; b < nBatches; b++ {
				qs := make([]linconstraint.Query, batchLen)
				for i := range qs {
					slope := 0.2 + crng.Float64()*0.8
					theta := 0.05 + crng.Float64()*0.15
					qs[i] = linconstraint.Query{Op: linconstraint.OpHalfplane, A: -slope, B: theta}
				}
				for _, r := range eng.Batch(qs) {
					if r.Err != nil {
						panic(r.Err)
					}
					mu.Lock()
					screened++
					dropped += len(r.IDs)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	el := time.Since(start)

	st := eng.Stats()
	fmt.Printf("\n%d clients ran %d screens in %v (%.0f screens/sec)\n",
		nClients, screened, el.Round(time.Millisecond), float64(screened)/el.Seconds())
	fmt.Printf("mean drop set: %d of %d items\n", dropped/screened, nItems)
	fmt.Printf("summed I/O: %d (%.1f I/Os per screen; paper bound is O(log_B n + t) per shard)\n",
		st.Total.IOs(), float64(st.Total.IOs())/float64(screened))
	fmt.Printf("worst shard: #%d with %d I/Os vs fair share %d — round-robin sharding keeps shards balanced\n",
		st.WorstShard, st.MaxShardIOs, st.Total.IOs()/int64(st.Shards))
}
