// Command constraintdb shows the constraint-database use case from the
// paper's introduction (constraint query languages, [34]): queries are
// conjunctions of linear constraints over record attributes, answered as
// convex-polytope reporting on the d-dimensional partition tree of §5
// (Theorem 5.2 and Remark i).
//
// The relation is Loans(income, debt, rate, amount); the query asks for
// risky loans: high debt relative to income, above-market rate, and a
// large amount — three linear constraints intersected into a convex
// region of R^4.
package main

import (
	"fmt"
	"math/rand"

	"linconstraint"
)

func main() {
	rng := rand.New(rand.NewSource(5))
	const n = 50000

	// Loans(income, debt, rate, amount) with correlated attributes.
	loans := make([]linconstraint.PointD, n)
	for i := range loans {
		income := 20 + rng.Float64()*180 // k$/yr
		debt := income*(0.1+rng.Float64()) + rng.Float64()*40
		rate := 3 + rng.Float64()*9            // %
		amount := debt*0.5 + rng.Float64()*100 // k$
		loans[i] = linconstraint.PointD{income, debt, rate, amount}
	}

	tr := linconstraint.NewPartitionTree(loans, linconstraint.Config{BlockSize: 64, Seed: 9})
	fmt.Printf("indexed %d loans (d=4) in %d blocks\n", tr.Len(), tr.Stats().SpaceBlocks)

	// Single-constraint query: amount <= 0.4*income + 20 (conservative loans).
	tr.ResetStats()
	cons := tr.Halfspace([]float64{0.4, 0, 0, 20})
	fmt.Printf("conservative loans (amount <= 0.4*income + 20): %d rows, %d I/Os\n",
		len(cons), tr.Stats().IOs())

	// Conjunction: risky loans.
	//   amount >= 1.2*debt - 10          (x4 >= 1.2*x2 - 10)
	//   amount >= 0.9*income + 40        (x4 >= 0.9*x1 + 40)
	//   amount <= 2.0*debt + 60          (x4 <= 2.0*x2 + 60)
	tr.ResetStats()
	risky := tr.Conjunction([]linconstraint.Constraint{
		{Coef: []float64{0, 1.2, 0, -10}, Below: false},
		{Coef: []float64{0.9, 0, 0, 40}, Below: false},
		{Coef: []float64{0, 2.0, 0, 60}, Below: true},
	})
	fmt.Printf("risky loans (3-constraint conjunction): %d rows, %d I/Os\n",
		len(risky), tr.Stats().IOs())
	for _, i := range risky[:min(5, len(risky))] {
		l := loans[i]
		fmt.Printf("  loan %5d: income=%.0f debt=%.0f rate=%.1f amount=%.0f\n",
			i, l[0], l[1], l[2], l[3])
	}

	// Verify against a scan (correctness demo).
	want := 0
	for _, l := range loans {
		if l[3] >= 1.2*l[1]-10 && l[3] >= 0.9*l[0]+40 && l[3] <= 2.0*l[1]+60 {
			want++
		}
	}
	fmt.Printf("scan cross-check: %d rows (match=%v)\n", want, want == len(risky))
}
