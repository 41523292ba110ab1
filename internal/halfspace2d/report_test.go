package halfspace2d

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/workload"
)

// dyadic returns a random multiple of 2⁻¹⁰ in [-4, 4): sums and
// products of a few of them are exact in float64, so a test can place a
// point exactly on a line.
func dyadic(rng *rand.Rand) float64 { return float64(rng.Intn(1<<13)-1<<12) / (1 << 10) }

// TestBelowAscendingOnDegenerateInput is the report kernel's contract:
// BelowAppend emits strictly ascending ids equal to brute force, after
// whatever the caller's buffer already held, when lines pass exactly
// through the query point (so the exact predicate, not a float
// comparison, decides membership) and when lines repeat (so one id must
// never stand in for another). The multi-layer construction needs lines
// in general position — it mis-clusters repeated or concurrent lines,
// at this commit and before it — so the odd trials, small enough to be
// one cluster (n ≤ β), carry the repeats and the lattice of concurrent
// lines, and the even trials put each query on the crossing of two
// otherwise generic lines.
func TestBelowAscendingOnDegenerateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		var lines []geom.Line2
		var qs []geom.Point2
		opt := Options{Seed: int64(trial)}
		if trial%2 == 0 {
			lines = make([]geom.Line2, 400+rng.Intn(900))
			for i := range lines {
				lines[i] = geom.Line2{A: dyadic(rng), B: dyadic(rng)}
			}
			for k := 0; k+1 < len(lines) && len(qs) < 60; k += 2 {
				// Re-aim line k+1 through a point of line k.
				q := geom.Point2{X: dyadic(rng)}
				q.Y = lines[k].A*q.X + lines[k].B
				lines[k+1].B = q.Y - lines[k+1].A*q.X
				qs = append(qs, q)
			}
		} else {
			lines = make([]geom.Line2, 8+rng.Intn(16))
			opt.Beta = len(lines) // λ ≥ β ≥ n: one cluster, no level walk
			for i := range lines {
				lines[i] = geom.Line2{A: float64(rng.Intn(7) - 3), B: float64(rng.Intn(11) - 5)}
				if i > 0 && rng.Intn(3) == 0 {
					lines[i] = lines[rng.Intn(i)]
				}
			}
			for len(qs) < 60 {
				qs = append(qs, geom.Point2{X: float64(rng.Intn(5) - 2), Y: float64(rng.Intn(15) - 7)})
			}
		}
		idx := New(eio.NewDevice(8, 0), lines, opt)
		if single := idx.Phases() == 1; single != (trial%2 == 1) {
			t.Fatalf("trial %d: n=%d built %d layers", trial, len(lines), idx.Phases())
		}
		out, onLine := []int{-1}, 0
		for _, q := range qs {
			for _, l := range lines {
				if geom.SideOfLine2(l, q) == 0 {
					onLine++
				}
			}
			out = idx.BelowAppend(q, out[:1])
			if out[0] != -1 {
				t.Fatalf("trial %d: BelowAppend overwrote the caller's prefix", trial)
			}
			got := out[1:]
			for i := 1; i < len(got); i++ {
				if got[i-1] >= got[i] {
					t.Fatalf("trial %d q=%v: ids not strictly ascending at %d: %d, %d", trial, q, i, got[i-1], got[i])
				}
			}
			if want := bruteBelow(lines, q); !slices.Equal(got, want) {
				t.Fatalf("trial %d q=%v: got %d ids, brute force %d", trial, q, len(got), len(want))
			}
		}
		if onLine < len(qs)/2 {
			t.Fatalf("trial %d: only %d exact incidences over %d queries — the fixture lost its point", trial, onLine, len(qs))
		}
	}
}

// reportFixture is the fixed instance behind the golden I/O test: 6 000
// uniform points, B = 32, and 24 halfplanes from empty to 20 % of the
// input.
func reportFixture(cacheBlocks int) (*eio.Device, *PointIndex, []workload.Halfplane) {
	rng := rand.New(rand.NewSource(7))
	pts := workload.Uniform2(rng, 6000)
	dev := eio.NewDevice(32, cacheBlocks)
	idx := NewPoints(dev, pts, Options{Seed: 3})
	qs := make([]workload.Halfplane, 24)
	for i := range qs {
		qs[i] = workload.HalfplaneWithSelectivity(rng, pts, float64(i*i)/float64(23*23)*0.2)
	}
	return dev, idx, qs
}

// TestReportIOGolden makes "the report kernel performs the block reads
// it always did, in the order it always did" a regression test. The
// goldens were recorded from the commit before the kernel existed
// (closure-per-record scans, epoch-stamped dedup, trailing sort):
// per-query reads on a cacheless device pin the count, and per-query
// misses under an 8-block LRU pin the order, because which touches hit
// depends on the sequence.
func TestReportIOGolden(t *testing.T) {
	golden := map[int][]int64{
		0: {21, 21, 21, 21, 21, 21, 21, 51, 46, 51, 82, 70, 78, 78, 111, 103, 103, 123, 130, 123, 130, 170, 189, 189},
		8: {21, 21, 21, 21, 21, 21, 21, 44, 39, 44, 67, 55, 63, 63, 96, 88, 88, 108, 108, 108, 100, 140, 159, 159},
	}
	for _, cache := range []int{0, 8} {
		dev, idx, qs := reportFixture(cache)
		dev.ResetCounters()
		var out []int
		got := make([]int64, len(qs))
		for i, h := range qs {
			before := dev.Stats()
			out = idx.HalfplaneAppend(h.A, h.B, out[:0])
			got[i] = dev.Stats().Sub(before).Reads
		}
		if !slices.Equal(got, golden[cache]) {
			t.Errorf("cache %d blocks: per-query reads\n got %v\nwant %v", cache, got, golden[cache])
		}
	}
}

// BenchmarkPlanarReport shows the shape of the report kernel's cost,
// O(records scanned + t) CPU. ns/rec — time per record of the blocks
// read — is the flat number: the same few ns at t = 10 and t = 10 000.
// ns/id falls with t and levels off, because a query scans at least one
// cluster (λ ≈ B·log_B n records) however small its answer and ~4
// records per id once the answer is large; with a trailing comparison
// sort it carried an extra log t per id. 0 allocs/op on the warmed
// buffer.
func BenchmarkPlanarReport(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	const n = 40_000
	pts := workload.Uniform2(rng, n)
	dev := eio.NewDevice(128, 0)
	idx := NewPoints(dev, pts, Options{Seed: 1})
	for _, t := range []int{10, 100, 1000, 10000} {
		qs := make([]workload.Halfplane, 64)
		for i := range qs {
			qs[i] = workload.HalfplaneWithSelectivity(rng, pts, float64(t)/n)
		}
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			out := make([]int, 0, 2*t)
			for _, h := range qs { // warm the buffer to its high-water mark
				out = idx.HalfplaneAppend(h.A, h.B, out[:0])
			}
			ids := 0
			before := dev.Stats().Reads
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := qs[i%len(qs)]
				out = idx.HalfplaneAppend(h.A, h.B, out[:0])
				ids += len(out)
			}
			ns, reads := float64(b.Elapsed().Nanoseconds()), float64(dev.Stats().Reads-before)
			b.ReportMetric(ns/float64(max(ids, 1)), "ns/id")
			b.ReportMetric(ns/(reads*float64(dev.B())), "ns/rec")
			b.ReportMetric(float64(ids)/float64(b.N), "ids/op")
			b.ReportMetric(reads/float64(b.N), "reads/op")
		})
	}
}
