package eio

import (
	"math"
	"sort"
	"testing"
)

// dirCase is one directory of the sweep that the tests below share: the
// bulk-loaded B+-tree that NewDir lays out — leaves of f = max(B, 4)
// keys, internal nodes of f+1 children — over n keys in runs of equal
// keys, and the blocks that tree should occupy.
type dirCase struct {
	b, run, n int
	keys      []float64
	levels    int       // the tree's height
	blocks    int64     // the spare root plus one block per node
	first     []BlockID // first block of each level, leaves first
}

// dirBase is where the sweep's directories start: not at block 0.
const dirBase = 3

// eachDirCase calls fn for B ∈ {1, 4, 5}, runs of 1, 3 and f+2 equal
// keys (runs longer than a leaf straddle leaf boundaries), and every n
// from 0 to past three levels.
func eachDirCase(t *testing.T, fn func(c dirCase)) {
	t.Helper()
	for _, b := range []int{1, 4, 5} {
		f := max(b, 4)
		for _, run := range []int{1, 3, f + 2} {
			for n := 0; n <= f*(f+1)*(f+1)+1; n++ {
				c := dirCase{b: b, run: run, n: n, keys: make([]float64, n)}
				for i := range c.keys {
					c.keys[i] = float64(2 * (i / run))
				}
				// The tree's height is the least h with n <= f·(f+1)^(h-1);
				// its blocks are the spare root, then each level's nodes,
				// leaves first.
				c.levels, c.blocks = 1, 1
				c.first = []BlockID{dirBase}
				if n > 0 {
					for full := f; n > full; full *= f + 1 {
						c.levels++
					}
					c.first = c.first[:0]
					for nodes := (n + f - 1) / f; ; nodes = (nodes + f) / (f + 1) {
						c.first = append(c.first, BlockID(dirBase+c.blocks))
						c.blocks += int64(nodes)
						if nodes == 1 {
							break
						}
					}
				}
				if len(c.first) != c.levels {
					t.Fatalf("B=%d n=%d: %d levels laid out, height %d", b, n, len(c.first), c.levels)
				}
				fn(c)
			}
		}
	}
}

// build makes the case's directory on a fresh device whose cache holds
// exactly one block per level, so after a cold Rank it holds exactly the
// blocks that Rank read.
func (c dirCase) build() (*Device, *Dir) {
	dev := NewDevice(c.b, c.levels)
	dev.Alloc(dirBase)
	return dev, NewDir(dev, c.keys)
}

// probes are the keys, a point between each key and the next, and the
// extremes.
func (c dirCase) probes() []float64 {
	ps := []float64{math.Inf(-1), -1, math.Inf(1)}
	for _, k := range c.keys {
		ps = append(ps, k, k+1)
	}
	return ps
}

// upper is the number of keys <= x.
func (c dirCase) upper(x float64) int {
	return sort.Search(c.n, func(i int) bool { return c.keys[i] > x })
}

// dirBulkLoadRank checks that Rank over a directory of every shape
// is the upper bound of x among the keys, present or absent.
func dirBulkLoadRank(t *testing.T) {
	eachDirCase(t, func(c dirCase) {
		_, d := c.build()
		for _, x := range c.probes() {
			if got, want := d.Rank(x), c.upper(x); got != want {
				t.Fatalf("B=%d run=%d n=%d: Rank(%g) = %d, want %d", c.b, c.run, c.n, x, got, want)
			}
		}
	})
}

// dirDuplicateKeys checks that Rank counts every copy of a repeated
// key, also when its run straddles leaves.
func dirDuplicateKeys(t *testing.T) {
	eachDirCase(t, func(c dirCase) {
		if c.run == 1 {
			return
		}
		_, d := c.build()
		for i := 0; i < c.n; i += c.run {
			end := min(i+c.run, c.n) // one past the run of keys[i]
			if got := d.Rank(c.keys[i]); got != end {
				t.Fatalf("B=%d run=%d n=%d: Rank(%g) = %d, want %d (all copies)", c.b, c.run, c.n, c.keys[i], got, end)
			}
			if got := d.Rank(c.keys[i] - 1); got != i {
				t.Fatalf("B=%d run=%d n=%d: Rank(%g) = %d, want %d (no copy)", c.b, c.run, c.n, c.keys[i]-1, got, i)
			}
		}
	})
}

// dirEmpty checks the directory over no keys: one empty root, which
// every Rank reads, answering 0.
func dirEmpty(t *testing.T) {
	for _, keys := range [][]float64{nil, {}} {
		dev := NewDevice(8, 0)
		d := NewDir(dev, keys)
		if got := dev.SpaceBlocks(); got != 1 {
			t.Fatalf("empty directory allocated %d blocks, want 1", got)
		}
		for _, x := range []float64{math.Inf(-1), 0, 1, math.Inf(1)} {
			dev.ResetCounters()
			if got := d.Rank(x); got != 0 {
				t.Fatalf("empty Rank(%g) = %d, want 0", x, got)
			}
			if got := dev.Stats().Reads; got != 1 {
				t.Fatalf("empty Rank(%g) read %d blocks, want 1", x, got)
			}
		}
	}
}

// dirRankIsPredecessor checks Rank as the predecessor search its
// callers make of it: keys[Rank(x)-1] is the largest key <= x, and
// Rank(x) = 0 when there is none.
func dirRankIsPredecessor(t *testing.T) {
	keys := []float64{1, 3, 5, 7, 9, 11, 13}
	d := NewDir(NewDevice(4, 0), keys)
	for _, c := range []struct {
		x    float64
		pred float64
		ok   bool
	}{
		{0, 0, false},
		{1, 1, true},
		{6, 5, true},
		{13, 13, true},
		{14, 13, true},
	} {
		r := d.Rank(c.x)
		if ok := r > 0; ok != c.ok || (ok && keys[r-1] != c.pred) {
			t.Errorf("Rank(%g) = %d, want predecessor %g (exists %v)", c.x, r, c.pred, c.ok)
		}
	}
}

// dirSearchIOIsHeight checks that every Rank reads one block per
// level, root first, down to the leaf holding the last key <= x (the
// first leaf when there is none).
func dirSearchIOIsHeight(t *testing.T) {
	eachDirCase(t, func(c dirCase) {
		f := max(c.b, 4)
		dev, d := c.build()
		for _, x := range c.probes() {
			want := c.upper(x)
			dev.ResetCounters()
			d.Rank(x)
			if got := dev.Stats(); got.Reads != int64(c.levels) || got.Hits != 0 {
				t.Fatalf("B=%d run=%d n=%d: Rank(%g) read %d blocks (%d hits), want one per level (%d)", c.b, c.run, c.n, x, got.Reads, got.Hits, c.levels)
			}
			// The path: the leaf holding key want-1 (leaf 0 when there
			// is none) and its ancestors.
			node := max(want-1, 0) / f
			for l, blk := range c.first {
				if dev.Read(blk + BlockID(node)); dev.Stats().Hits != int64(l+1) {
					t.Fatalf("B=%d run=%d n=%d: Rank(%g) did not read node %d of level %d", c.b, c.run, c.n, x, node, l)
				}
				node /= f + 1
			}
			// Root first: one more block read after a cold Rank evicts
			// the root, the least recently read.
			dev.ResetCounters()
			d.Rank(x)
			dev.Read(0)
			if dev.Read(c.first[c.levels-1]); dev.Stats().Hits != 0 {
				t.Fatalf("B=%d run=%d n=%d: Rank(%g) did not read the root first", c.b, c.run, c.n, x)
			}
		}
	})
}

// dirSpaceLinear checks that building allocates and writes exactly
// the spare root plus one block per node: linear space, written once.
func dirSpaceLinear(t *testing.T) {
	eachDirCase(t, func(c dirCase) {
		dev, _ := c.build()
		if got := dev.SpaceBlocks() - dirBase; got != c.blocks {
			t.Fatalf("B=%d run=%d n=%d: directory allocated %d blocks, want %d", c.b, c.run, c.n, got, c.blocks)
		}
		if got := dev.Stats().Writes; got != c.blocks {
			t.Fatalf("B=%d run=%d n=%d: directory wrote %d blocks, want %d", c.b, c.run, c.n, got, c.blocks)
		}
	})
}

// TestDirMatchesBPlusTreeShape checks the static directory against the
// bulk-loaded B+-tree it lays out, one property per subtest.
func TestDirMatchesBPlusTreeShape(t *testing.T) {
	for _, c := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"BulkLoadRank", dirBulkLoadRank},
		{"DuplicateKeys", dirDuplicateKeys},
		{"Empty", dirEmpty},
		{"RankIsPredecessor", dirRankIsPredecessor},
		{"SearchIOIsHeight", dirSearchIOIsHeight},
		{"SpaceLinear", dirSpaceLinear},
	} {
		t.Run(c.name, c.fn)
	}
}

func TestDirPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDir accepted unsorted keys")
		}
	}()
	NewDir(NewDevice(8, 0), []float64{2, 1})
}
