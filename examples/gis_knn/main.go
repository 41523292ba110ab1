// Command gis_knn exercises the three-dimensional machinery of §4 on a
// GIS-flavored scenario: a terrain of survey stations with (x, y)
// coordinates and an elevation reading. Two query families run against
// the §4 structure:
//
//   - "visibility plane" queries — report every station below a tilted
//     plane (e.g. a line-of-sight or flood-plane analysis) — are 3D
//     halfspace reporting queries (Theorem 4.4);
//   - "nearest stations" queries — the k stations closest to an incident
//     location — use the lifting map of Theorem 4.3.
package main

import (
	"fmt"
	"math/rand"

	"linconstraint"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	const n = 20000

	// Synthetic terrain: rolling hills plus noise.
	stations := make([]linconstraint.Point3, n)
	sites := make([]linconstraint.Point2, n)
	for i := range stations {
		x, y := rng.Float64()*10, rng.Float64()*10
		elev := 0.4*x + 0.1*y + 0.5*wave(x, y) + rng.NormFloat64()*0.05
		stations[i] = linconstraint.Point3{X: x, Y: y, Z: elev}
		sites[i] = linconstraint.Point2{X: x, Y: y}
	}

	idx := linconstraint.NewIndex3D(stations, linconstraint.Window{XMin: -4, XMax: 4, YMin: -4, YMax: 4},
		linconstraint.Config{BlockSize: 64, Seed: 2})
	fmt.Printf("indexed %d stations in %d blocks\n", idx.Len(), idx.Stats().SpaceBlocks)

	// Flood plane rising to the north-east: z <= 0.35x + 0.05y + 0.8.
	idx.ResetStats()
	flooded := idx.Halfspace(0.35, 0.05, 0.8)
	fmt.Printf("flood-plane query: %d stations below the plane, %d I/Os\n",
		len(flooded), idx.Stats().IO.IOs())

	// Steeper visibility plane.
	idx.ResetStats()
	vis := idx.Halfspace(0.42, 0.12, 0.3)
	fmt.Printf("visibility query:  %d stations below the plane, %d I/Os\n",
		len(vis), idx.Stats().IO.IOs())

	// Nearest stations to an incident at (5, 5).
	knn := linconstraint.NewKNNIndex(sites, linconstraint.Config{BlockSize: 64, Seed: 2})
	knn.ResetStats()
	near := knn.Nearest(8, linconstraint.Point2{X: 5, Y: 5})
	fmt.Printf("8 nearest stations to (5,5) in %d I/Os:\n", knn.Stats().IO.IOs())
	for _, nb := range near {
		s := stations[nb.ID]
		fmt.Printf("  station %5d at (%.2f, %.2f) elev %.2f, dist %.3f\n",
			nb.ID, s.X, s.Y, s.Z, sqrt(nb.Dist2))
	}
}

func wave(x, y float64) float64 {
	// Cheap smooth bump field without importing math for show.
	s := 0.0
	for _, c := range [][3]float64{{1.3, 0.7, 1.1}, {0.6, 1.9, 2.3}} {
		u := c[0]*x + c[1]*y + c[2]
		u -= float64(int(u/6.28318)) * 6.28318
		// 4th-order sine approximation on [0, 2π)
		s += u * (6.28318 - u) / (9.8696 + 0.25*u*(6.28318-u)) * 4
	}
	return s / 8
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	g := v
	for i := 0; i < 40; i++ {
		g = (g + v/g) / 2
	}
	return g
}
