package eio

import "sort"

// Dir is a static search directory over a sorted key slice: the paper's
// §3 boundary trees T_i and the §4.1 slab directory, built once and then
// only asked for a predecessor. Its blocks are laid out as a bulk-loaded
// B+-tree — leaves of f = max(B, 4) keys, internal nodes of f+1 children,
// one block per node — so a search reads one block per level, root to
// leaf: O(log_B n) I/Os. The keys stay in the caller's slice; the
// directory keeps only the first block of each level.
type Dir struct {
	dev    *Device
	keys   []float64
	levels []dirLevel // leaves first, root last
}

// dirLevel is one level of the directory: its first block and the number
// of keys under each of its nodes.
type dirLevel struct {
	first BlockID
	span  int
}

// NewDir builds the directory over keys, which must be sorted and are
// not copied, writing one block per node (O(n/B) I/Os).
func NewDir(dev *Device, keys []float64) *Dir {
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		panic("eio: NewDir keys not sorted")
	}
	// An empty root leaf comes first, as in a B+-tree bulk-loaded into a
	// fresh tree: it stays the root of an empty directory and is left
	// behind by a non-empty one.
	root := dev.Alloc(1)
	dev.Write(root)
	d := &Dir{dev: dev, keys: keys}
	if len(keys) == 0 {
		d.levels = []dirLevel{{first: root, span: 1}}
		return d
	}
	f := max(dev.B(), 4)
	for nodes, span := (len(keys)+f-1)/f, f; ; nodes, span = (nodes+f)/(f+1), span*(f+1) {
		first := dev.Alloc(nodes)
		for i := 0; i < nodes; i++ {
			dev.Write(first + BlockID(i))
		}
		d.levels = append(d.levels, dirLevel{first: first, span: span})
		if nodes == 1 {
			return d
		}
	}
}

// Rank returns the number of keys <= x, reading one block per level,
// root first, on the path to the leaf that holds the last of them (the
// first leaf when there is none).
func (d *Dir) Rank(x float64) int {
	r := sort.Search(len(d.keys), func(i int) bool { return d.keys[i] > x })
	last := max(r-1, 0)
	for i := len(d.levels) - 1; i >= 0; i-- {
		l := d.levels[i]
		d.dev.Read(l.first + BlockID(last/l.span))
	}
	return r
}
