package metrics

import (
	"strings"
	"testing"
	"time"
)

// TestWindowedHistogramRotation drives a fake clock through slot
// rotation: observations age out after slots×interval, the merged
// quantiles track only the live window, and recycled slots are zeroed.
func TestWindowedHistogramRotation(t *testing.T) {
	var now int64 = 1_000_000_000_000 // fake unix nanos
	w := newWindowedHistogram("w", "test", 3, time.Second)
	w.clock = func() int64 { return now }
	count := func() int64 { _, n := w.Mean(); return n }

	for i := 0; i < 100; i++ {
		w.Observe(1000) // slow epoch
	}
	if c := count(); c != 100 {
		t.Fatalf("count = %d, want 100", c)
	}
	// Next interval: fast observations; both intervals still in window.
	now += int64(time.Second)
	for i := 0; i < 100; i++ {
		w.Observe(10)
	}
	q, n := w.Quantile(0.99)
	if n != 200 || q < 1000 {
		t.Fatalf("p99 over both slots = %v (n=%d), want >= 1000 over 200", q, n)
	}
	// Advance past the window: the slow slot ages out, p99 collapses.
	now += 2 * int64(time.Second)
	for i := 0; i < 100; i++ {
		w.Observe(10)
	}
	q, n = w.Quantile(0.99)
	if q >= 1000 {
		t.Fatalf("p99 after slow slot aged out = %v (n=%d), want < 1000", q, n)
	}
	// An idle gap longer than the window empties it entirely.
	now += 10 * int64(time.Second)
	if c := count(); c != 0 {
		t.Fatalf("count after idle gap = %d, want 0", c)
	}
	// A slot is recycled (zeroed) when its interval comes around again.
	w.Observe(7)
	if c := count(); c != 1 {
		t.Fatalf("count after recycle = %d, want 1", c)
	}
	if m, n := w.Mean(); n != 1 || m != 7 {
		t.Fatalf("mean = %v (n=%d), want exact 7 over 1", m, n)
	}
}

// TestWindowedHistogramExposition checks registry integration: the
// merged window appears in snapshots flagged Window, and the prom
// exposition publishes gauges (never a non-monotonic histogram).
func TestWindowedHistogramExposition(t *testing.T) {
	r := NewRegistry()
	w := r.WindowedHistogram("run_ns_win", "windowed run latency")
	if again := r.WindowedHistogram("run_ns_win", "dup"); again != w {
		t.Fatal("re-registration returned a different instrument")
	}
	for i := 0; i < 50; i++ {
		w.Observe(int64(i * 100))
	}
	snap := r.Snapshot()
	hs := snap.Histogram("run_ns_win")
	if hs == nil || !hs.Window || hs.Count != 50 {
		t.Fatalf("snapshot: %+v, want Window=true Count=50", hs)
	}
	var b strings.Builder
	r.WriteProm(&b)
	out := b.String()
	if !strings.Contains(out, "run_ns_win_count 50") {
		t.Fatalf("missing window count gauge:\n%s", out)
	}
	if !strings.Contains(out, "run_ns_win_p99 ") {
		t.Fatalf("missing window p99 gauge:\n%s", out)
	}
	if strings.Contains(out, "run_ns_win_bucket") {
		t.Fatalf("windowed histogram must not export cumulative buckets:\n%s", out)
	}
	if err := CheckProm([]byte(out)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
}

// TestWindowedObserveZeroAllocs pins the observe and quantile paths at
// zero heap allocations (the watchdog evaluates SLOs on the quantile
// path while the zero-alloc engine tests run).
func TestWindowedObserveZeroAllocs(t *testing.T) {
	w := newWindowedHistogram("w", "test", 6, 10*time.Second)
	if n := testing.AllocsPerRun(1000, func() { w.Observe(12345) }); n != 0 {
		t.Fatalf("Observe allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { w.Quantile(0.99) }); n != 0 {
		t.Fatalf("Quantile allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { w.Mean() }); n != 0 {
		t.Fatalf("Mean allocates %v/op", n)
	}
}

// TestCounterVec2 exercises the dense two-label vector and its
// snapshot/exposition plumbing.
func TestCounterVec2(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec2("plan_verdicts_total", "per op per verdict", "op", "verdict",
		[]string{"halfplane", "knn"}, []string{"visited", "pruned_box"})
	v.Inc(0, 1)
	v.Add(1, 0, 5)
	if got := v.Load(1, 0); got != 5 {
		t.Fatalf("Load(1,0) = %d", got)
	}
	var got []Series
	for _, c := range r.Snapshot().Counters {
		if c.Value != 0 {
			got = append(got, c)
		}
	}
	if len(got) != 2 || got[0].LabelVal != "halfplane" || got[0].LabelVal2 != "pruned_box" || got[0].Value != 1 {
		t.Fatalf("non-zero snapshot series %+v, want {halfplane, pruned_box} = 1 first", got)
	}
	var b strings.Builder
	r.WriteProm(&b)
	out := b.String()
	want := `plan_verdicts_total{op="knn",verdict="visited"} 5`
	if !strings.Contains(out, want) {
		t.Fatalf("missing %q in:\n%s", want, out)
	}
	if err := CheckProm([]byte(out)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	if n := testing.AllocsPerRun(1000, func() { v.Inc(1, 1) }); n != 0 {
		t.Fatalf("Inc allocates %v/op", n)
	}
}

// TestSnapshotSub checks interval deltas: counters and histogram
// buckets subtract, gauges and windowed views pass through, restarts
// clamp to zero.
func TestSnapshotSub(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reads_total", "")
	g := r.Gauge("depth", "")
	h := r.Histogram("lat_ns", "")
	vec := r.CounterVec("shard_visits_total", "", "shard", ShardLabels(2))
	c.Add(10)
	g.Set(3)
	h.Observe(100)
	h.Observe(200)
	vec.Add(0, 4)
	prev := r.Snapshot()

	c.Add(7)
	g.Set(9)
	h.Observe(300)
	vec.Add(0, 2)
	vec.Add(1, 1)
	cur := r.Snapshot()

	d := cur.Sub(prev)
	if got, _ := d.Value("reads_total", ""); got != 7 {
		t.Fatalf("counter delta = %v, want 7", got)
	}
	if got, _ := d.Value("depth", ""); got != 9 {
		t.Fatalf("gauge in delta = %v, want current 9", got)
	}
	if got, _ := d.Value("shard_visits_total", "0"); got != 2 {
		t.Fatalf("vec delta slot 0 = %v, want 2", got)
	}
	if got, _ := d.Value("shard_visits_total", "1"); got != 1 {
		t.Fatalf("vec delta slot 1 = %v, want 1", got)
	}
	dh := d.Histogram("lat_ns")
	if dh == nil || dh.Count != 1 {
		t.Fatalf("histogram delta count = %+v, want 1", dh)
	}
	// A series missing from prev keeps its current value.
	r.Counter("new_total", "").Add(42)
	d2 := r.Snapshot().Sub(prev)
	if got, _ := d2.Value("new_total", ""); got != 42 {
		t.Fatalf("new series delta = %v, want 42", got)
	}
	// A counter that went backwards (restart) clamps to zero.
	shrunk := &Snapshot{Counters: []Series{{Name: "reads_total", Value: 1}}}
	d3 := shrunk.Sub(prev)
	if got, _ := d3.Value("reads_total", ""); got != 0 {
		t.Fatalf("restart delta = %v, want 0", got)
	}
}
