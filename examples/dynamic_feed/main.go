// Command dynamic_feed exercises the dynamized indexes (§5 Remark iii
// and the engineering answer to §7 open problem 1) on a streaming
// scenario: a live order book of (price, size) offers where offers
// arrive and are cancelled continuously, and the recurring query asks
// for every offer below a sliding price/size tradeoff line.
//
// Part 1 runs the feed against one unsharded DynamicPlanarIndex. Part
// 2 replays the same kind of feed against the sharded mutable engine
// (NewDynamicPlanarEngine): inserts route to the smallest shard,
// cancels scatter-gather by value, and every query's answer is checked
// both against a brute-force book scan and byte-for-byte against an
// unsharded dynamic index fed the same updates — the engine invariant.
package main

import (
	"fmt"
	"math/rand"

	"linconstraint"
)

// newOffer prices bigger lots lower, with noise.
func newOffer(rng *rand.Rand) linconstraint.Point2 {
	size := 1 + rng.Float64()*99
	price := 100 - 0.1*size + rng.NormFloat64()*3
	return linconstraint.Point2{X: size, Y: price}
}

func main() {
	// --- Part 1: unsharded dynamic index -------------------------------
	rng := rand.New(rand.NewSource(17))
	idx := linconstraint.NewDynamicPlanarIndex(linconstraint.Config{BlockSize: 64, Seed: 1})

	var book []linconstraint.Point2
	arrivals, cancels, queries := 0, 0, 0

	for tick := 0; tick < 20000; tick++ {
		switch r := rng.Intn(10); {
		case r < 6 || len(book) == 0: // new offer
			p := newOffer(rng)
			if err := idx.Insert(linconstraint.Rec2(p)); err != nil {
				panic(err)
			}
			book = append(book, p)
			arrivals++
		case r < 8: // cancellation
			i := rng.Intn(len(book))
			if ok, err := idx.Delete(linconstraint.Rec2(book[i])); err != nil || !ok {
				panic("cancelled offer was not in the index")
			}
			book[i] = book[len(book)-1]
			book = book[:len(book)-1]
			cancels++
		default: // query: offers with price <= 98 - 0.05*size
			got := idx.Halfplane(-0.05, 98)
			want := 0
			for _, p := range book {
				if p.Y <= -0.05*p.X+98 {
					want++
				}
			}
			if len(got) != want {
				panic(fmt.Sprintf("tick %d: query mismatch %d vs %d", tick, len(got), want))
			}
			queries++
		}
	}

	idx.ResetStats()
	hits := idx.Halfplane(-0.05, 98)
	st := idx.Stats()
	fmt.Printf("unsharded: processed %d arrivals, %d cancels, %d verified queries\n",
		arrivals, cancels, queries)
	fmt.Printf("book size %d; matching offers %d; last query cost %d I/Os\n",
		idx.Len(), len(hits), st.IO.IOs())

	// --- Part 2: the sharded mutable engine -----------------------------
	eng := linconstraint.NewDynamicPlanarEngine(linconstraint.EngineConfig{
		Shards: 4, Workers: 4, BlockSize: 64, Seed: 1,
	})
	defer eng.Close()
	ref := linconstraint.NewDynamicPlanarIndex(linconstraint.Config{BlockSize: 64, Seed: 1})

	book = book[:0]
	arrivals, cancels, queries = 0, 0, 0
	for tick := 0; tick < 8000; tick++ {
		switch r := rng.Intn(10); {
		case r < 6 || len(book) == 0:
			p := newOffer(rng)
			if err := eng.Insert(linconstraint.Rec2(p)); err != nil {
				panic(err)
			}
			if err := ref.Insert(linconstraint.Rec2(p)); err != nil {
				panic(err)
			}
			book = append(book, p)
			arrivals++
		case r < 8:
			i := rng.Intn(len(book))
			ok, err := eng.Delete(linconstraint.Rec2(book[i]))
			refOK, refErr := ref.Delete(linconstraint.Rec2(book[i]))
			if err != nil || !ok || refErr != nil || !refOK {
				panic("cancelled offer was not in the engine")
			}
			book[i] = book[len(book)-1]
			book = book[:len(book)-1]
			cancels++
		default:
			res := eng.Batch([]linconstraint.Query{{Op: linconstraint.OpHalfplane, A: -0.05, B: 98}})[0]
			if res.Err != nil {
				panic(res.Err)
			}
			got, want := res.Recs, ref.Halfplane(-0.05, 98)
			if len(got) != len(want) {
				panic(fmt.Sprintf("tick %d: engine %d vs unsharded %d", tick, len(got), len(want)))
			}
			for i := range got {
				if got[i].P2 != want[i] {
					panic(fmt.Sprintf("tick %d: answers diverge at %d", tick, i))
				}
			}
			count := 0
			for _, p := range book {
				if p.Y <= -0.05*p.X+98 {
					count++
				}
			}
			if len(got) != count {
				panic(fmt.Sprintf("tick %d: engine %d vs book %d", tick, len(got), count))
			}
			queries++
		}
	}

	est := eng.Stats()
	fmt.Printf("\nengine (%d shards, %d workers): %d arrivals, %d cancels, %d queries "+
		"verified byte-identical to the unsharded index\n",
		eng.NumShards(), eng.NumWorkers(), arrivals, cancels, queries)
	fmt.Printf("live records %d; total I/O %d (%d reads, %d writes incl. rebuilds), "+
		"worst shard #%d with %d I/Os\n",
		eng.Len(), est.Total.IOs(), est.Total.Reads, est.Total.Writes,
		est.WorstShard, est.MaxShardIOs)

	eng.ResetStats()
	batch := eng.Batch([]linconstraint.Query{
		{Op: linconstraint.OpInsert, Rec: linconstraint.Rec2(newOffer(rng))},
		{Op: linconstraint.OpHalfplane, A: -0.05, B: 98},
	})
	if batch[0].Err != nil || batch[1].Err != nil {
		panic("batched insert+query failed")
	}
	est = eng.Stats()
	fmt.Printf("batched insert+query: %d matching offers, %d I/Os\n",
		len(batch[1].Recs), est.Total.IOs())
}
