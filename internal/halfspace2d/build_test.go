package halfspace2d

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/workload"
)

// TestBuildFingerprintGolden pins the §3 construction bit for bit: per
// layer its λ, every cluster's id list in stored order and the boundary
// x-coordinates' bits, then the blocks allocated. A change to how the
// build sorts, walks or loads its envelopes must leave this hash alone;
// query I/Os and every other golden depend on the same structure. The
// inputs are uniform points, whose duals are in general position.
func TestBuildFingerprintGolden(t *testing.T) {
	cases := []struct {
		name string
		pts  func() []geom.Point2
		b    int
		seed int64
		want string
	}{
		{"uniform n=2000 B=16", uniform(2_000, 1), 16, 1, "4161ac37163be236"},
		{"uniform n=12500 B=128 seed 1", uniform(12_500, 1), 128, 1, "fcece155f45c8743"},
		{"uniform n=12500 B=128 seed 2", uniform(12_500, 2), 128, 2, "9363f3bb8b06435f"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			idx := NewPoints(eio.NewDevice(c.b, 0), c.pts(), Options{Seed: c.seed})
			if got := fingerprint(idx.Index); got != c.want {
				t.Errorf("fingerprint %s, want %s (%d layers, %d blocks)", got, c.want, idx.Phases(), idx.SpaceBlocks())
			}
		})
	}
}

// TestBuildDeterministicOnEqualSlopes: lattice points share
// x-coordinates, so their dual lines share slopes, which every order of
// the build must break the same way each time: repeated builds of one
// input are identical.
func TestBuildDeterministicOnEqualSlopes(t *testing.T) {
	pts := workload.Lattice2(rand.New(rand.NewSource(3)), 3_000, 1<<16)
	first := ""
	for i := 0; i < 4; i++ {
		idx := NewPoints(eio.NewDevice(16, 0), pts, Options{Seed: 3})
		if got := fingerprint(idx.Index); i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("build %d: fingerprint %s, first build %s", i, got, first)
		}
	}
}

func uniform(n int, seed int64) func() []geom.Point2 {
	return func() []geom.Point2 { return workload.Uniform2(rand.New(rand.NewSource(seed)), n) }
}

// fingerprint hashes the built structure. The boundaries live only in
// each layer's directory, so they are read back through Rank: boundary
// i is the least float x with Rank(x) > i, found by bisecting the
// order-preserving integer image of the float64 bits.
func fingerprint(x *Index) string {
	h := fnv.New64a()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for i := range x.phases {
		p := &x.phases[i]
		put(uint64(p.lambda))
		put(uint64(len(p.clusters)))
		for _, c := range p.clusters {
			put(uint64(c.Len()))
			c.All(func(_ int, r rec) bool { put(uint64(r.ID)); return true })
		}
		if p.single {
			put(math.MaxUint64)
			continue
		}
		for r := 0; r+1 < len(p.clusters); r++ {
			put(math.Float64bits(leastAbove(p.bounds, r)))
		}
	}
	put(uint64(x.SpaceBlocks()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// leastAbove returns the least float x with d.Rank(x) > r.
func leastAbove(d *eio.Dir, r int) float64 {
	lo, hi := ordered(math.Inf(-1)), ordered(math.Inf(1))
	for lo < hi {
		mid := lo + (hi-lo)/2
		if d.Rank(unordered(mid)) > r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return unordered(lo)
}

// ordered maps a float64 to a uint64 with the same order (NaN aside).
func ordered(f float64) uint64 {
	u := math.Float64bits(f)
	if u>>63 == 1 {
		return ^u
	}
	return u | 1<<63
}

// unordered inverts ordered.
func unordered(u uint64) float64 {
	if u>>63 == 1 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

// BenchmarkPlanarBuild times the §3 construction over uniform points at
// B = 128: ns/line is the build's wall time per input line, and
// allocs/op counts its heap allocations.
func BenchmarkPlanarBuild(b *testing.B) {
	for _, n := range []int{12_500, 50_000} {
		pts := uniform(n, 1)()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewPoints(eio.NewDevice(128, 0), pts, Options{Seed: 1})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/line")
		})
	}
}
