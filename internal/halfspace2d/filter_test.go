package halfspace2d

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
)

// TestLineFilterDecidesMost: on reportFixture's 24 queries the cluster
// filter, not SideOfLine2, decides nearly every scanned record. The
// scanned records are counted by the same queries with every blockMax
// set to NaN, which sends each of them to the exact path. Measured:
// 25 of 37 384 scanned records (0.07 %) reach SideOfLine2, about one
// per query — the line a query was cut through (each halfplane passes
// through the data point at its selectivity rank) — so the bar is
// 99.8 % decided.
func TestLineFilterDecidesMost(t *testing.T) {
	_, idx, qs := reportFixture(0)
	calls := 0
	exactHook = func(geom.Line2) bool { calls++; return false }
	defer func() { exactHook = nil }()
	run := func() (int, [][]int) {
		calls = 0
		var got [][]int
		for _, h := range qs {
			got = append(got, idx.Halfplane(h.A, h.B))
		}
		return calls, got
	}
	undecided, want := run()
	for i := range idx.phases {
		for k := range idx.phases[i].lim {
			idx.phases[i].lim[k] = blockMax{A: math.NaN(), B: math.NaN()}
		}
	}
	scanned, got := run()
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("query %d: the exact path alone reports %d ids, the filter %d", i, len(got[i]), len(want[i]))
		}
	}
	t.Logf("%d of %d scanned records (%.2f %%) reached SideOfLine2", undecided, scanned, 100*float64(undecided)/float64(scanned))
	if float64(undecided) > 0.002*float64(scanned) {
		t.Errorf("%d of %d scanned records reached SideOfLine2, want at most 0.2 %%", undecided, scanned)
	}
}

// fuzzFloats decodes raw into float64s drawn from the values a float
// filter gets wrong first: ±0, subnormals, ±1e300, ±1e-300, small
// lattice integers and halves, NaN, ±Inf, and arbitrary bit patterns.
type fuzzFloats struct{ raw []byte }

func (f *fuzzFloats) byte() byte {
	if len(f.raw) == 0 {
		return 0
	}
	b := f.raw[0]
	f.raw = f.raw[1:]
	return b
}

func (f *fuzzFloats) next() float64 {
	tag := f.byte()
	neg := 1.0
	if tag&0x80 != 0 {
		neg = -1
	}
	switch tag % 10 {
	case 0:
		return math.Copysign(0, neg)
	case 1:
		return neg * 5e-324 * float64(1+f.byte())
	case 2:
		return neg * 1e300
	case 3:
		return neg * 1e-300
	case 4:
		return float64(int8(f.byte()))
	case 5:
		return float64(int8(f.byte())) / 2
	case 6:
		return neg * float64(f.byte()) / 256
	case 7:
		return math.NaN()
	case 8:
		return math.Inf(int(neg))
	default:
		var b [8]byte
		for i := range b {
			b[i] = f.byte()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// FuzzLineFilter: for a cluster of fuzzed lines — ±0, subnormal, huge,
// NaN and ±Inf coefficients, lattice lines, a third of them aimed
// through q (exactly through it whenever the arithmetic is exact) and a
// third one ulp off that — and a fuzzed finite q, every line's filtered
// decision equals SideOfLine2(l, q) >= 0: the scan of the lines as one
// single-cluster layer reports exactly the ids brute force does, with
// one filter bound per 8-line block and with one for all of them. A
// non-finite line must reach the exact path (the test's hook answers
// for it, since SideOfLine2 takes finite input only).
func FuzzLineFilter(f *testing.F) {
	f.Add([]byte{4, 1, 4, 3, 4, 2, 4, 7, 5, 3, 4, 1, 4, 1, 6, 9, 4, 250, 0x80, 5, 1})
	f.Add([]byte{9, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0xd5, 0x3f, 9, 0, 0, 0, 0, 0, 0, 0x1d, 0x40,
		9, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0x3f, 6, 77, 9, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0xe5, 0x3f, 4, 3})
	f.Add([]byte{2, 0x83, 1, 7, 8, 0x88, 9, 1, 2, 3, 4, 5, 6, 7, 8, 6, 200, 6, 10, 1, 9, 0x81, 3, 4, 4})
	// q = (3, 1) and A = 1/3: A·3 rounds to 1, so the line one ulp above
	// B = 0 has det = -5e-324 while q lies above it by ~5.5e-17.
	f.Add([]byte{4, 3, 4, 1, 4, 0, 4, 0, 9, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0xd5, 0x3f, 4, 0,
		9, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0xd5, 0x3f, 4, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		in := &fuzzFloats{raw: raw}
		q := geom.Point2{X: in.next(), Y: in.next()}
		if !finite(q.X, q.Y) {
			return
		}
		var lines []geom.Line2
		for len(in.raw) > 0 && len(lines) < 96 {
			l := geom.Line2{A: in.next(), B: in.next()}
			switch len(lines) % 3 {
			case 1: // through q whenever the arithmetic is exact
				l.B = q.Y - l.A*q.X
			case 2: // one ulp off that: det is tiny, its sign a rounding's
				l.B = math.Nextafter(q.Y-l.A*q.X, l.B)
			}
			lines = append(lines, l)
		}
		if len(lines) == 0 {
			return
		}
		// Keyed by bits: a NaN line is not == to itself.
		key := func(l geom.Line2) [2]uint64 { return [2]uint64{math.Float64bits(l.A), math.Float64bits(l.B)} }
		exact := map[[2]uint64]bool{}
		exactHook = func(l geom.Line2) bool {
			if !finite(l.A, l.B) {
				exact[key(l)] = true
				return true
			}
			return false
		}
		defer func() { exactHook = nil }()
		var want []int
		for id, l := range lines {
			if finite(l.A, l.B) && geom.SideOfLine2(l, q) >= 0 {
				want = append(want, id)
			}
		}
		// One single-cluster layer, in blocks of 8 lines (a bound per 8
		// lines of neighbouring slope) and in one block (one bound for all).
		for _, b := range []int{8, 128} {
			clear(exact)
			idx := New(eio.NewDevice(b, 0), lines, Options{Beta: len(lines)})
			if got := idx.Below(q); !slices.Equal(got, want) {
				t.Fatalf("B = %d, q %v over %d lines %v:\n got %v\nwant %v", b, q, len(lines), lines, got, want)
			}
			for id, l := range lines {
				if !finite(l.A, l.B) && !exact[key(l)] {
					t.Fatalf("B = %d, q %v: non-finite line %d %v never reached the exact path", b, q, id, l)
				}
			}
		}
	})
}
