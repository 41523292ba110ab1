// Command adversarial reproduces the degradation story of §1.2: N points
// on (a tiny jitter around) the diagonal y = x, queried with a halfplane
// bounded by a slight perturbation of that diagonal. Quadtrees, kd-trees
// and R-trees must open Ω(n) nodes because every leaf region hugs the
// query boundary, while the §3 structure answers in O(log_B n + t) I/Os
// regardless of the data distribution — that worst-case robustness is the
// paper's core contribution.
package main

import (
	"fmt"
	"math/rand"

	"linconstraint"
	"linconstraint/internal/baseline"
	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	const n = 1 << 15
	const b = 64
	pts := workload.Diagonal2(rng, n, 1e-7)

	fmt.Printf("N = %d near-diagonal points, B = %d (scan cost %d I/Os)\n", n, b, n/b)
	fmt.Println("query: halfplane just below the diagonal (empty output)")
	fmt.Println()

	// The §3 structure.
	lpts := make([]linconstraint.Point2, n)
	for i, p := range pts {
		lpts[i] = linconstraint.Point2{X: p.X, Y: p.Y}
	}
	opt := linconstraint.NewPlanarIndex(lpts, linconstraint.Config{BlockSize: b, Seed: 3})

	q := workload.DiagonalAdversarialQuery(rng)
	opt.ResetStats()
	res := opt.Halfplane(q.A, q.B)
	fmt.Printf("%-22s %6d I/Os  (%d results)\n", "optimal 2D (paper §3):", opt.Stats().IO.IOs(), len(res))

	// The heuristic baselines.
	run := func(name string, mk func(*eio.Device, []geom.Point2) interface {
		Halfplane(a, b float64) []int
	}) {
		dev := eio.NewDevice(b, 0)
		idx := mk(dev, pts)
		dev.ResetCounters()
		out := idx.Halfplane(q.A, q.B)
		fmt.Printf("%-22s %6d I/Os  (%d results)\n", name+":", dev.Stats().IOs(), len(out))
	}
	run("kd-tree", func(d *eio.Device, p []geom.Point2) interface {
		Halfplane(a, b float64) []int
	} {
		return baseline.NewKDTree(d, p)
	})
	run("PR quadtree", func(d *eio.Device, p []geom.Point2) interface {
		Halfplane(a, b float64) []int
	} {
		return baseline.NewQuadtree(d, p)
	})
	run("STR R-tree", func(d *eio.Device, p []geom.Point2) interface {
		Halfplane(a, b float64) []int
	} {
		return baseline.NewRTree(d, p)
	})
	run("linear scan", func(d *eio.Device, p []geom.Point2) interface {
		Halfplane(a, b float64) []int
	} {
		return baseline.NewScan(d, p)
	})

	fmt.Println()
	fmt.Println("the heuristic structures pay near-scan cost for an empty answer;")
	fmt.Println("the paper's structure keeps its logarithmic guarantee.")
}
