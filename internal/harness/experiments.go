package harness

import (
	"fmt"
	"math"
	"math/rand"

	"linconstraint/internal/arrangement"
	"linconstraint/internal/baseline"
	"linconstraint/internal/chan3d"
	"linconstraint/internal/cluster"
	"linconstraint/internal/eio"
	"linconstraint/internal/envelope"
	"linconstraint/internal/geom"
	"linconstraint/internal/halfspace2d"
	"linconstraint/internal/hull3d"
	"linconstraint/internal/partition"
	"linconstraint/internal/workload"
)

// All runs every experiment in DESIGN.md's index.
func All(cfg Config) []Result {
	return []Result{
		E1(cfg), E2(cfg), E3(cfg), E4(cfg), E5(cfg),
		E6(cfg), E7(cfg), E8(cfg), E9(cfg), E10(cfg),
		F1(cfg), F2(cfg), F3(cfg), F45(cfg), F6(cfg),
	}
}

func pick(quick bool, q, full []int) []int {
	if quick {
		return q
	}
	return full
}

// logB returns max(1, ceil(log_b n)).
func logB(n, b int) float64 {
	l := 0
	for v := 1; v < n; v *= b {
		l++
	}
	if l < 1 {
		l = 1
	}
	return float64(l)
}

// E1 reproduces Table 1 row "d=2: O(log_B n + t) query, O(n) space"
// (Theorem 3.5): measured query I/Os stay near-flat in N at fixed output,
// and space stays linear.
func E1(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	b := 64
	sizes := pick(cfg.Quick, []int{1 << 10, 1 << 11, 1 << 12}, []int{1 << 12, 1 << 13, 1 << 14, 1 << 15})
	queryIOs := Series{Label: "N vs avg query I/Os (t fixed ~2 blocks)"}
	spacePerN := Series{Label: "N vs space blocks per n"}
	for _, n := range sizes {
		pts := workload.Uniform2(rng, n)
		dev := eio.NewDevice(b, 0)
		idx := halfspace2d.NewPoints(dev, pts, halfspace2d.Options{Seed: cfg.Seed})
		space := float64(dev.SpaceBlocks()) / float64(dev.Blocks(n))
		var total int64
		qs := 30
		target := float64(2*b) / float64(n) // ~2 blocks of output
		for s := 0; s < qs; s++ {
			q := workload.HalfplaneWithSelectivity(rng, pts, target)
			dev.ResetCounters()
			idx.Halfplane(q.A, q.B)
			total += dev.Stats().IOs()
		}
		queryIOs.Pts = append(queryIOs.Pts, Point{X: float64(n), Y: float64(total) / float64(qs)})
		spacePerN.Pts = append(spacePerN.Pts, Point{X: float64(n), Y: space})
	}
	exp := FitExponent(queryIOs.Pts)
	pass := exp < 0.35 && MaxY(spacePerN.Pts) < 9
	return Result{
		ID:     "E1",
		Title:  "2D optimal structure (Thm 3.5)",
		Claim:  "O(log_B n + t) query I/Os worst case, O(n) blocks",
		Series: []Series{queryIOs, spacePerN},
		Fits:   []Fit{{Label: "query I/Os vs N", Exponent: exp}},
		Pass:   pass,
		Why:    "query-I/O growth exponent < 0.35 (log-like, not polynomial) and space/n bounded",
	}
}

// E2 reproduces Table 1 row "d=3: O(log_B n + t) expected, O(n log2 n)"
// (Theorem 4.4).
func E2(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	b := 32
	sizes := pick(cfg.Quick, []int{1 << 9, 1 << 10, 1 << 11}, []int{1 << 10, 1 << 11, 1 << 12, 1 << 13})
	win := hull3d.Window{XMin: -2, XMax: 2, YMin: -2, YMax: 2}
	queryIOs := Series{Label: "N vs avg query I/Os (t fixed ~2 blocks)"}
	spaceRatio := Series{Label: "N vs space blocks per n·log2(n)"}
	for _, n := range sizes {
		planes := make([]geom.Plane3, n)
		for i := range planes {
			planes[i] = geom.Plane3{A: rng.NormFloat64(), B: rng.NormFloat64(), C: rng.NormFloat64()}
		}
		dev := eio.NewDevice(b, 0)
		idx := chan3d.New(dev, planes, chan3d.Options{Window: win, Seed: cfg.Seed})
		nb := float64(dev.Blocks(n))
		spaceRatio.Pts = append(spaceRatio.Pts,
			Point{X: float64(n), Y: float64(dev.SpaceBlocks()) / (nb * math.Log2(nb+2))})
		var total int64
		qs := 30
		for s := 0; s < qs; s++ {
			// Query point with ~2 blocks of planes below it.
			x, y := rng.Float64()*2-1, rng.Float64()*2-1
			zs := make([]float64, n)
			for i, h := range planes {
				zs[i] = h.Eval(x, y)
			}
			z := kthSmallest(zs, 2*b)
			dev.ResetCounters()
			idx.Below(geom.Point3{X: x, Y: y, Z: z})
			total += dev.Stats().IOs()
		}
		queryIOs.Pts = append(queryIOs.Pts, Point{X: float64(n), Y: float64(total) / float64(qs)})
	}
	exp := FitExponent(queryIOs.Pts)
	pass := exp < 0.4
	return Result{
		ID:     "E2",
		Title:  "3D structure, expected-optimal queries (Thm 4.4)",
		Claim:  "O(log_B n + t) expected query I/Os, O(n log2 n) blocks",
		Series: []Series{queryIOs, spaceRatio},
		Fits:   []Fit{{Label: "query I/Os vs N", Exponent: exp}},
		Pass:   pass,
		Why:    "query-I/O growth exponent < 0.4 at fixed output",
	}
}

// E3 reproduces Table 1 row "d: O(n^(1-1/d)+eps + t), O(n)" (Theorem 5.2)
// for d = 2, 3, 4.
func E3(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	b := 32
	sizes := pick(cfg.Quick, []int{1 << 11, 1 << 12, 1 << 13}, []int{1 << 12, 1 << 14, 1 << 16})
	res := Result{
		ID:    "E3",
		Title: "Linear-size d-dim partition tree (Thm 5.2)",
		Claim: "O(n^(1-1/d)+eps + t) query I/Os, O(n) blocks, d = 2,3,4",
		Why:   "per-d fitted exponent of non-output I/Os within [lower, 1-1/d + 0.22] and space/n bounded",
	}
	res.Pass = true
	for d := 2; d <= 4; d++ {
		s := Series{Label: fmt.Sprintf("d=%d: N vs avg non-output query I/Os", d)}
		for _, n := range sizes {
			pts := workload.CubeD(rng, n, d)
			dev := eio.NewDevice(b, 0)
			tr := partition.New(dev, pts, partition.Options{})
			var total int64
			qs := 25
			for sIdx := 0; sIdx < qs; sIdx++ {
				q := workload.HalfspaceWithSelectivityD(rng, pts, 0.01)
				dev.ResetCounters()
				out := tr.Halfspace(q.H)
				ios := dev.Stats().IOs() - int64(len(out)/b)
				if ios < 1 {
					ios = 1
				}
				total += ios
			}
			s.Pts = append(s.Pts, Point{X: float64(n), Y: float64(total) / float64(qs)})
		}
		exp := FitExponent(s.Pts)
		res.Series = append(res.Series, s)
		res.Fits = append(res.Fits, Fit{Label: fmt.Sprintf("d=%d", d), Exponent: exp})
		want := 1 - 1/float64(d)
		if exp > want+0.22 {
			res.Pass = false
		}
	}
	return res
}

// E4 measures Table 1 row "d=3: O(n^eps + t), O(n log_B n)" (Thm 6.3)
// on the structure that serves it, the §5 tree: shallow-query I/Os must
// grow as slowly as n^eps, and its space per n/B is printed beside them.
// The note says why §6's shallow tree is not built.
func E4(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed + 4))
	b := 32
	sizes := pick(cfg.Quick, []int{1 << 11, 1 << 12, 1 << 13}, []int{1 << 12, 1 << 14, 1 << 16})
	ioS := Series{Label: "partition tree: N vs avg I/Os (shallow queries)"}
	spaceS := Series{Label: "partition tree: N vs space blocks per n/B"}
	for _, n := range sizes {
		pts := workload.CubeD(rng, n, 3)
		dev := eio.NewDevice(b, 0)
		tr := partition.New(dev, pts, partition.Options{})
		var tot int64
		qs := 25
		for s := 0; s < qs; s++ {
			q := workload.HalfspaceWithSelectivityD(rng, pts, float64(b)/float64(n))
			dev.ResetCounters()
			tr.Halfspace(q.H)
			tot += dev.Stats().IOs()
		}
		ioS.Pts = append(ioS.Pts, Point{X: float64(n), Y: float64(tot) / float64(qs)})
		spaceS.Pts = append(spaceS.Pts, Point{X: float64(n), Y: float64(dev.SpaceBlocks()) / float64(dev.Blocks(n))})
	}
	exp := FitExponent(ioS.Pts)
	return Result{
		ID:     "E4",
		Title:  "Shallow queries on the partition tree (Thm 6.3)",
		Claim:  "O(n^eps + t) query I/Os with O(n log_B n) blocks for shallow (small-output) queries",
		Series: []Series{ioS, spaceS},
		Fits:   []Fit{{Label: "partition tree", Exponent: exp}},
		Notes: []string{
			"kd cells are not shallow enough to matter: shallow planes cross 6.5-11.4 of r = 64-1024 cells (E8), far below the 4·log2(r) that would make §6's shallow tree fall back to a secondary tree, so the §5 tree serves the row in O(n) blocks rather than O(n log_B n) (DESIGN.md substitution 4)",
		},
		Pass: exp < 0.45,
		Why:  "growth exponent of shallow-query I/Os on the partition tree < 0.45",
	}
}

// E5 reproduces Table 1 row "d=3: O((n/B^(a-1))^(2/3)+eps + t),
// O(n log2 B)" (Theorem 6.1). The theorem's gain over Theorem 5.2 is that
// stopping the recursion at B^a points and switching to the §4 structure
// beats continuing (or scanning) inside those leaves; we measure exactly
// that ablation: the hybrid against the same coarse tree with scanned
// leaves, plus the fine-grained §5 tree for context.
func E5(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	b := 16
	a := 2.5
	leafCap := int(math.Pow(float64(b), a))
	sizes := pick(cfg.Quick, []int{1 << 12, 1 << 13}, []int{1 << 13, 1 << 14, 1 << 15})
	win := hull3d.Window{XMin: -2, XMax: 2, YMin: -2, YMax: 2}
	hybS := Series{Label: "hybrid (a=2.5): N vs avg non-output I/Os"}
	coarseS := Series{Label: "same tree, scanned B^a leaves: N vs avg non-output I/Os"}
	fineS := Series{Label: "plain fine partition tree: N vs avg non-output I/Os"}
	for _, n := range sizes {
		pts3 := workload.Cube3(rng, n)
		ptsD := make([]geom.PointD, n)
		for i, p := range pts3 {
			ptsD[i] = geom.PointDOf3(p)
		}
		devH := eio.NewDevice(b, 0)
		hy := partition.NewHybrid(devH, pts3, partition.HybridOptions{A: a, Copies: 1, Window: win, Seed: cfg.Seed})
		devC := eio.NewDevice(b, 0)
		coarse := partition.New(devC, ptsD, partition.Options{LeafSize: leafCap})
		devF := eio.NewDevice(b, 0)
		fine := partition.New(devF, ptsD, partition.Options{})
		var totH, totC, totF int64
		qs := 20
		for s := 0; s < qs; s++ {
			h := workload.Plane3WithSelectivity(rng, pts3, 0.01)
			hd := geom.HyperplaneD{Coef: []float64{h.A, h.B, h.C}}
			devH.ResetCounters()
			outH := hy.Halfspace(h.A, h.B, h.C)
			totH += maxI64(1, devH.Stats().IOs()-int64(len(outH)/b))
			devC.ResetCounters()
			outC := coarse.Halfspace(hd)
			totC += maxI64(1, devC.Stats().IOs()-int64(len(outC)/b))
			devF.ResetCounters()
			outF := fine.Halfspace(hd)
			totF += maxI64(1, devF.Stats().IOs()-int64(len(outF)/b))
		}
		hybS.Pts = append(hybS.Pts, Point{X: float64(n), Y: float64(totH) / float64(qs)})
		coarseS.Pts = append(coarseS.Pts, Point{X: float64(n), Y: float64(totC) / float64(qs)})
		fineS.Pts = append(fineS.Pts, Point{X: float64(n), Y: float64(totF) / float64(qs)})
	}
	pass := Mean(hybS.Pts) < Mean(coarseS.Pts)
	return Result{
		ID:     "E5",
		Title:  "Space/query tradeoff hybrid (Thm 6.1)",
		Claim:  "O((n/B^(a-1))^(2/3+eps) + t) expected I/Os using O(n log2 B) blocks",
		Series: []Series{hybS, coarseS, fineS},
		Fits: []Fit{
			{Label: "hybrid", Exponent: FitExponent(hybS.Pts)},
			{Label: "coarse scan", Exponent: FitExponent(coarseS.Pts)},
			{Label: "fine tree", Exponent: FitExponent(fineS.Pts)},
		},
		Notes: []string{
			"the §4 leaves must beat scanning the same B^a-point leaves — the exact mechanism behind Theorem 6.1's improved exponent",
		},
		Pass: pass,
		Why:  "hybrid's average non-output I/Os below the scanned-leaf variant of the same tree",
	}
}

// E6 verifies Lemma 4.1 (Clarkson–Shor conflict bounds) and Lemma 2.2
// (expected complexity of a random level).
func E6(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed + 6))
	n := pick(cfg.Quick, []int{1500}, []int{6000})[0]
	planes := make([]geom.Plane3, n)
	for i := range planes {
		planes[i] = geom.Plane3{A: rng.NormFloat64(), B: rng.NormFloat64(), C: rng.NormFloat64()}
	}
	win := hull3d.Window{XMin: -1, XMax: 1, YMin: -1, YMax: 1}
	totalS := Series{Label: "r vs total conflict size / N (Lemma 4.1a: O(1))"}
	hitS := Series{Label: "r vs avg hit-list size x r/N (Lemma 4.1b: O(1))"}
	for _, r := range []int{16, 64, 256} {
		perm := rng.Perm(n)
		sample := make([]geom.Plane3, r)
		rest := make([]geom.Plane3, 0, n-r)
		for i, pi := range perm {
			if i < r {
				sample[i] = planes[pi]
			} else {
				rest = append(rest, planes[pi])
			}
		}
		env := hull3d.Build(sample, win)
		lists := env.ConflictLists(rest)
		tot := 0
		for _, l := range lists {
			tot += len(l)
		}
		totalS.Pts = append(totalS.Pts, Point{X: float64(r), Y: float64(tot) / float64(n)})
		sum, cnt := 0, 0
		for s := 0; s < 200; s++ {
			x, y := rng.Float64()*2-1, rng.Float64()*2-1
			if ti, ok := env.LocateBrute(x, y); ok {
				sum += len(lists[ti])
				cnt++
			}
		}
		hitS.Pts = append(hitS.Pts, Point{X: float64(r), Y: float64(sum) / float64(cnt) * float64(r) / float64(n)})
	}
	// Lemma 2.2, d=2: expected complexity of a random level in [i, 2i] is
	// O(N); measure vertices/N for random lines.
	lvlS := Series{Label: "N vs random-level vertices / N (Lemma 2.2: O(1))"}
	for _, m := range pick(cfg.Quick, []int{400, 800}, []int{1000, 2000, 4000}) {
		lines := make([]geom.Line2, m)
		live := make([]int, m)
		for i := range lines {
			lines[i] = geom.Line2{A: rng.NormFloat64(), B: rng.NormFloat64()}
			live[i] = i
		}
		i0 := m / 16
		k := i0 + rng.Intn(i0+1)
		lvl := arrangement.ComputeLevel(lines, live, k)
		lvlS.Pts = append(lvlS.Pts, Point{X: float64(m), Y: float64(len(lvl.Vertices)) / float64(m)})
	}
	pass := MaxY(totalS.Pts) < 40 && MaxY(hitS.Pts) < 40 && MaxY(lvlS.Pts) < 40
	return Result{
		ID:     "E6",
		Title:  "Random-sampling bounds (Lemmas 2.2 and 4.1)",
		Claim:  "E[total conflict size] = O(N); E[hit list] = O(N/r); E[random level complexity] = O(N)",
		Series: []Series{totalS, hitS, lvlS},
		Pass:   pass,
		Why:    "all three normalized quantities bounded by a constant across the sweep",
	}
}

// E7 verifies the crossing-number bound that substitutes Theorem 5.1:
// crossings grow as r^(1-1/d).
func E7(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	res := Result{
		ID:    "E7",
		Title: "Partition crossing numbers (Thm 5.1 substitute)",
		Claim: "any hyperplane crosses at most alpha*r^(1-1/d) cells of the size-r partition",
		Why:   "fitted crossing exponent within 0.18 of 1-1/d for d = 2,3,4",
	}
	res.Pass = true
	n := pick(cfg.Quick, []int{1 << 13}, []int{1 << 15})[0]
	for d := 2; d <= 4; d++ {
		pts := workload.CubeD(rng, n, d)
		s := Series{Label: fmt.Sprintf("d=%d: r vs avg crossings", d)}
		for _, deg := range []int{64, 256, 1024} {
			dev := eio.NewDevice(64, 0)
			tr := partition.New(dev, pts, partition.Options{Degree: deg, LeafSize: n / (2 * deg)})
			r := len(tr.RootCells())
			if r < 2 {
				continue
			}
			tot := 0
			qs := 40
			for q := 0; q < qs; q++ {
				h := workload.HalfspaceWithSelectivityD(rng, pts, rng.Float64())
				tot += tr.CrossingNumber(h.H)
			}
			s.Pts = append(s.Pts, Point{X: float64(r), Y: float64(tot) / float64(qs)})
		}
		exp := FitExponent(s.Pts)
		res.Series = append(res.Series, s)
		res.Fits = append(res.Fits, Fit{Label: fmt.Sprintf("d=%d", d), Exponent: exp})
		if math.Abs(exp-(1-1/float64(d))) > 0.18 {
			res.Pass = false
		}
	}
	return res
}

// E8 measures shallow-query crossing behaviour (Theorem 6.2's regime):
// for shallow hyperplanes, the number of crossed kd cells against
// log2(r).
func E8(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed + 8))
	n := pick(cfg.Quick, []int{1 << 13}, []int{1 << 15})[0]
	pts := workload.CubeD(rng, n, 3)
	s := Series{Label: "r vs avg crossings of (N/r)-shallow planes"}
	ref := Series{Label: "r vs log2(r) reference"}
	for _, deg := range []int{64, 256, 1024} {
		dev := eio.NewDevice(64, 0)
		tr := partition.New(dev, pts, partition.Options{Degree: deg, LeafSize: n / (2 * deg)})
		r := len(tr.RootCells())
		if r < 2 {
			continue
		}
		tot, qs := 0, 40
		for q := 0; q < qs; q++ {
			h := workload.HalfspaceWithSelectivityD(rng, pts, 1/float64(r))
			tot += tr.CrossingNumber(h.H)
		}
		s.Pts = append(s.Pts, Point{X: float64(r), Y: float64(tot) / float64(qs)})
		ref.Pts = append(ref.Pts, Point{X: float64(r), Y: math.Log2(float64(r))})
	}
	exp := FitExponent(s.Pts)
	pass := exp < 2.0/3 // clearly below the non-shallow rate
	return Result{
		ID:     "E8",
		Title:  "Shallow crossing numbers (Thm 6.2 regime)",
		Claim:  "(N/r)-shallow hyperplanes cross O(log r) simplices (Matousek); kd-cells measured here",
		Series: []Series{s, ref},
		Fits:   []Fit{{Label: "shallow crossings", Exponent: exp}},
		Notes: []string{
			"kd-partitions do not guarantee the O(log r) bound, but shallow planes cross only 6.5-11.4 cells at r = 64-1024, far below the 4·log2(r) = 24-40 at which §6's shallow tree would fall back to its secondary tree; that fallback never fires, which is why E4 measures the §5 tree (DESIGN.md substitution 4)",
		},
		Pass: pass,
		Why:  "shallow crossing exponent < 2/3 (distinctly below the worst-case rate)",
	}
}

// E9 reproduces the §1.2 degradation story.
func E9(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	b := 32
	n := pick(cfg.Quick, []int{1 << 12}, []int{1 << 14})[0]
	uni := workload.Uniform2(rng, n)
	diag := workload.Diagonal2(rng, n, 1e-7)
	rows := Series{Label: "structure x workload -> avg I/Os (x encodes row)"}
	names := []string{"optimal2d", "kdtree", "quadtree", "rtree", "scan"}
	mk := func(name string, dev *eio.Device, pts []geom.Point2) func(a, bb float64) int {
		switch name {
		case "optimal2d":
			idx := halfspace2d.NewPoints(dev, pts, halfspace2d.Options{Seed: cfg.Seed})
			return func(a, bb float64) int { return len(idx.Halfplane(a, bb)) }
		case "kdtree":
			idx := baseline.NewKDTree(dev, pts)
			return func(a, bb float64) int { return len(idx.Halfplane(a, bb)) }
		case "quadtree":
			idx := baseline.NewQuadtree(dev, pts)
			return func(a, bb float64) int { return len(idx.Halfplane(a, bb)) }
		case "rtree":
			idx := baseline.NewRTree(dev, pts)
			return func(a, bb float64) int { return len(idx.Halfplane(a, bb)) }
		default:
			idx := baseline.NewScan(dev, pts)
			return func(a, bb float64) int { return len(idx.Halfplane(a, bb)) }
		}
	}
	var notes []string
	measured := map[string][2]float64{}
	for wi, pts := range [][]geom.Point2{uni, diag} {
		for ni, name := range names {
			dev := eio.NewDevice(b, 0)
			query := mk(name, dev, pts)
			var total int64
			qs := 15
			for s := 0; s < qs; s++ {
				var a, bb float64
				if wi == 0 {
					q := workload.HalfplaneWithSelectivity(rng, pts, 0.005)
					a, bb = q.A, q.B
				} else {
					q := workload.DiagonalAdversarialQuery(rng)
					a, bb = q.A, q.B
				}
				dev.ResetCounters()
				query(a, bb)
				total += dev.Stats().IOs()
			}
			avg := float64(total) / float64(qs)
			rows.Pts = append(rows.Pts, Point{X: float64(wi*10 + ni), Y: avg})
			v := measured[name]
			v[wi] = avg
			measured[name] = v
		}
	}
	for _, name := range names {
		notes = append(notes, fmt.Sprintf("%s: uniform %.1f I/Os, adversarial %.1f I/Os", name, measured[name][0], measured[name][1]))
	}
	scanCost := float64(n / b)
	pass := measured["optimal2d"][1] < scanCost/4 &&
		measured["quadtree"][1] > scanCost/2 &&
		measured["kdtree"][1] > scanCost/2
	return Result{
		ID:     "E9",
		Title:  "Adversarial degradation of heuristic baselines (§1.2)",
		Claim:  "quadtree-style structures need Ω(n) I/Os on near-diagonal data; the §3 structure stays O(log_B n + t)",
		Series: []Series{rows},
		Notes:  notes,
		Pass:   pass,
		Why:    "baselines' adversarial cost near scan cost; optimal2d far below it",
	}
}

// E10 verifies Theorem 4.3: k-NN queries cost O(log_B n + k/B) I/Os.
func E10(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed + 10))
	b := 32
	n := pick(cfg.Quick, []int{1 << 11}, []int{1 << 13})[0]
	pts := workload.Uniform2(rng, n)
	dev := eio.NewDevice(b, 0)
	knn := chan3d.NewKNN(dev, pts, chan3d.Options{Seed: cfg.Seed})
	s := Series{Label: "k vs avg query I/Os"}
	for _, k := range []int{8, 32, 128, 512} {
		var total int64
		qs := 25
		for q := 0; q < qs; q++ {
			p := geom.Point2{X: rng.Float64(), Y: rng.Float64()}
			dev.ResetCounters()
			knn.Query(k, p)
			total += dev.Stats().IOs()
		}
		s.Pts = append(s.Pts, Point{X: float64(k), Y: float64(total) / float64(qs)})
	}
	exp := FitExponent(s.Pts)
	pass := exp < 1.25
	return Result{
		ID:     "E10",
		Title:  "k-nearest neighbors via lifting (Thm 4.3)",
		Claim:  "O(log_B n + k/B) expected I/Os per k-NN query",
		Series: []Series{s},
		Fits:   []Fit{{Label: "I/Os vs k", Exponent: exp}},
		Pass:   pass,
		Why:    "I/O growth in k at most ~linear (exponent < 1.25)",
	}
}

// F1 reproduces Figure 1: the duality transform preserves above/below.
func F1(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	trials := pick(cfg.Quick, []int{2000}, []int{20000})[0]
	bad := 0
	for i := 0; i < trials; i++ {
		p := geom.Point2{X: rng.NormFloat64(), Y: rng.NormFloat64()}
		h := geom.Line2{A: rng.NormFloat64(), B: rng.NormFloat64()}
		if geom.SideOfLine2(h, p) != -geom.SideOfLine2(geom.DualOfPoint2(p), geom.DualOfLine2(h)) {
			bad++
		}
	}
	return Result{
		ID:     "F1",
		Title:  "Duality transform (Fig. 1, Lemma 2.1)",
		Claim:  "p above/on/below h iff p* above/on/below h*",
		Series: []Series{{Label: "trials vs violations", Pts: []Point{{X: float64(trials), Y: float64(bad)}}}},
		Pass:   bad == 0,
		Why:    "zero violations",
	}
}

// F2 reproduces Figure 2: arrangements and k-levels; vertex counts
// compared with Dey's O(N k^(1/3)) bound (§2.3).
func F2(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed + 12))
	n := pick(cfg.Quick, []int{300}, []int{1200})[0]
	lines := make([]geom.Line2, n)
	live := make([]int, n)
	for i := range lines {
		lines[i] = geom.Line2{A: rng.NormFloat64(), B: rng.NormFloat64()}
		live[i] = i
	}
	s := Series{Label: "k vs level vertices / (N k^(1/3))"}
	for _, k := range []int{1, 4, 16, 64} {
		lvl := arrangement.ComputeLevel(lines, live, k)
		norm := float64(len(lvl.Vertices)) / (float64(n) * math.Cbrt(float64(k)))
		s.Pts = append(s.Pts, Point{X: float64(k), Y: norm})
	}
	pass := MaxY(s.Pts) < 8
	return Result{
		ID:     "F2",
		Title:  "Arrangement k-levels (Fig. 2, Dey's bound)",
		Claim:  "a k-level of N lines has O(N k^(1/3)) vertices",
		Series: []Series{s},
		Pass:   pass,
		Why:    "normalized vertex count bounded across k",
	}
}

// F3 reproduces Figure 3: clusters induced by level vertices, checking
// the relevance property.
func F3(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	n, k := pick(cfg.Quick, []int{200}, []int{1000})[0], 8
	lines := make([]geom.Line2, n)
	live := make([]int, n)
	for i := range lines {
		lines[i] = geom.Line2{A: rng.NormFloat64(), B: rng.NormFloat64()}
		live[i] = i
	}
	cl := cluster.BuildGreedy(envelope.NewUniverse(lines), live, k)
	bad := 0
	for s := 0; s < 300; s++ {
		x := rng.NormFloat64()
		rel := cl.Relevant(x)
		in := make(map[int]bool, len(cl.Clusters[rel]))
		for _, id := range cl.Clusters[rel] {
			in[id] = true
		}
		// Every line strictly below the level at x must be in the cluster.
		ys := make([]float64, n)
		for i, l := range lines {
			ys[i] = l.Eval(x)
		}
		below := lowestK(ys, k)
		for _, id := range below {
			if !in[id] {
				bad++
				break
			}
		}
	}
	return Result{
		ID:     "F3",
		Title:  "Level clusters (Fig. 3)",
		Claim:  "the relevant cluster contains every line below the level at its x-range",
		Series: []Series{{Label: "samples vs violations", Pts: []Point{{X: 300, Y: float64(bad)}}}},
		Pass:   bad == 0,
		Why:    "zero violations",
	}
}

// F45 reproduces Figures 4–5: Lemma 3.2's size/retirement guarantees and
// Corollary 3.3's interval property.
func F45(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed + 14))
	n, k := pick(cfg.Quick, []int{400}, []int{2000})[0], 10
	lines := make([]geom.Line2, n)
	live := make([]int, n)
	for i := range lines {
		lines[i] = geom.Line2{A: rng.NormFloat64(), B: rng.NormFloat64()}
		live[i] = i
	}
	cl := cluster.BuildGreedy(envelope.NewUniverse(lines), live, k)
	maxSize, retireMin := 0, 1<<30
	for i, c := range cl.Clusters {
		if len(c) > maxSize {
			maxSize = len(c)
		}
		if i+1 < len(cl.Clusters) {
			later := make(map[int]bool)
			for _, cc := range cl.Clusters[i+1:] {
				for _, id := range cc {
					later[id] = true
				}
			}
			retired := 0
			for _, id := range c {
				if !later[id] {
					retired++
				}
			}
			if retired < retireMin {
				retireMin = retired
			}
		}
	}
	intervalOK := true
	appear := make(map[int][]int)
	for i, c := range cl.Clusters {
		for _, id := range c {
			appear[id] = append(appear[id], i)
		}
	}
	for _, idxs := range appear {
		for j := 1; j < len(idxs); j++ {
			if idxs[j] != idxs[j-1]+1 {
				intervalOK = false
			}
		}
	}
	pass := maxSize <= 3*k && len(cl.Clusters) <= n/k+1 && retireMin >= k && intervalOK
	return Result{
		ID:    "F4/F5",
		Title: "Greedy clustering guarantees (Figs. 4–5, Lemma 3.2, Cor. 3.3)",
		Claim: "|C_i| <= 3k; <= N/k clusters; >= k lines retire per cluster; cluster intervals contiguous",
		Series: []Series{{Label: "metrics (maxSize, clusters, minRetired)", Pts: []Point{
			{X: 1, Y: float64(maxSize)}, {X: 2, Y: float64(len(cl.Clusters))}, {X: 3, Y: float64(retireMin)},
		}}},
		Pass: pass,
		Why:  "all four invariants hold",
	}
}

// F6 reproduces Figure 6: a balanced partition of a small point set,
// verifying balance and crossing bounds.
func F6(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed + 15))
	n := 7 * 8
	pts := workload.CubeD(rng, n, 2)
	dev := eio.NewDevice(4, 0)
	tr := partition.New(dev, pts, partition.Options{LeafSize: n / 7, C: 1 << 20})
	cells := tr.RootCells()
	r := len(cells)
	maxCross := 0
	for q := 0; q < 100; q++ {
		h := workload.HalfspaceWithSelectivityD(rng, pts, rng.Float64())
		if c := tr.CrossingNumber(h.H); c > maxCross {
			maxCross = c
		}
	}
	bound := int(6 * math.Sqrt(float64(r)))
	pass := r >= 4 && maxCross <= bound
	return Result{
		ID:    "F6",
		Title: "Balanced simplicial partition (Fig. 6)",
		Claim: "a balanced size-r partition crossed by any line in O(sqrt r) cells",
		Series: []Series{{Label: "(r, maxCross)", Pts: []Point{
			{X: float64(r), Y: float64(maxCross)},
		}}},
		Pass: pass,
		Why:  fmt.Sprintf("max crossings %d within bound %d for r=%d", maxCross, bound, r),
	}
}

// lowestK returns the indices of the k smallest values.
func lowestK(vals []float64, k int) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	// selection by partial sort
	for i := 0; i < k && i < len(idx); i++ {
		min := i
		for j := i + 1; j < len(idx); j++ {
			if vals[idx[j]] < vals[idx[min]] {
				min = j
			}
		}
		idx[i], idx[min] = idx[min], idx[i]
	}
	if k < len(idx) {
		idx = idx[:k]
	}
	return idx
}

func kthSmallest(vals []float64, k int) float64 {
	v := append([]float64(nil), vals...)
	if k >= len(v) {
		k = len(v) - 1
	}
	// simple nth-element
	lo, hi := 0, len(v)-1
	for lo < hi {
		pivot := v[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for v[i] < pivot {
				i++
			}
			for v[j] > pivot {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return v[k]
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
