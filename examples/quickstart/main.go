// Command quickstart runs the paper's own motivating example (§1.1): a
// relation Companies(Name, PricePerShare, EarningsPerShare) queried for
// all companies whose price/earnings ratio is below 10,
//
//	SELECT Name FROM Companies
//	WHERE (PricePerShare - 10 * EarningsPerShare < 0)
//
// which, viewing each (EarningsPerShare, PricePerShare) pair as a planar
// point, is the halfplane query y <= 10·x answered by the §3 structure in
// O(log_B n + t) I/Os.
package main

import (
	"fmt"
	"math/rand"

	"linconstraint"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// Build the Companies relation.
	const n = 100000
	names := make([]string, n)
	points := make([]linconstraint.Point2, n)
	for i := range points {
		eps := 0.1 + rng.Float64()*9.9 // EarningsPerShare
		pe := 5 + rng.Float64()*30     // price/earnings multiple
		names[i] = fmt.Sprintf("company-%05d", i)
		points[i] = linconstraint.Point2{X: eps, Y: eps * pe}
	}

	idx := linconstraint.NewPlanarIndex(points, linconstraint.Config{BlockSize: 128, Seed: 1})
	fmt.Printf("indexed %d companies using %d disk blocks\n", idx.Len(), idx.Stats().SpaceBlocks)

	// SELECT Name FROM Companies WHERE PricePerShare < 10 * EarningsPerShare.
	idx.ResetStats()
	rows := idx.Halfplane(10, 0)
	st := idx.Stats()
	fmt.Printf("P/E < 10 query: %d of %d companies, %d I/Os (vs %d for a scan)\n",
		len(rows), n, st.IO.IOs(), (n+127)/128)
	for _, i := range rows[:min(5, len(rows))] {
		fmt.Printf("  %s  earnings=%.2f price=%.2f P/E=%.2f\n",
			names[i], points[i].X, points[i].Y, points[i].Y/points[i].X)
	}

	// A more selective screen: P/E below 5.5.
	idx.ResetStats()
	rows = idx.Halfplane(5.5, 0)
	fmt.Printf("P/E < 5.5 query: %d companies, %d I/Os\n", len(rows), idx.Stats().IO.IOs())
}
