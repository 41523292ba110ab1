package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestBucketMapping(t *testing.T) {
	// Exact buckets below histSub.
	for v := int64(0); v < histSub; v++ {
		if got := bucketOf(v); got != int(v) {
			t.Fatalf("bucketOf(%d) = %d, want %d", v, got, v)
		}
		if hi := bucketHigh(int(v)); hi != v {
			t.Fatalf("bucketHigh(%d) = %d, want %d", v, hi, v)
		}
	}
	// Negative clamps to 0.
	if bucketOf(-5) != 0 {
		t.Fatalf("bucketOf(-5) = %d, want 0", bucketOf(-5))
	}
	// Every value maps into a bucket whose range contains it, and
	// bucket bounds tile the line: bucketHigh is strictly increasing.
	vals := []int64{8, 9, 15, 16, 100, 1023, 1024, 123456789, math.MaxInt64 / 2, math.MaxInt64}
	for _, v := range vals {
		b := bucketOf(v)
		if b < 0 || b >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		if v > bucketHigh(b) {
			t.Fatalf("value %d above its bucket %d bound %d", v, b, bucketHigh(b))
		}
		if b > 0 && v <= bucketHigh(b-1) {
			t.Fatalf("value %d not above previous bucket %d bound %d", v, b-1, bucketHigh(b-1))
		}
	}
	for i := 1; i < histBuckets; i++ {
		if bucketHigh(i) <= bucketHigh(i-1) {
			t.Fatalf("bucketHigh not increasing at %d: %d <= %d", i, bucketHigh(i), bucketHigh(i-1))
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
	// 1000 observations 1..1000: p50 should bound 500 within one
	// bucket (12.5% log-linear error), p99 bound 990 likewise.
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if c := h.Count(); c != 1000 {
		t.Fatalf("count = %d, want 1000", c)
	}
	for _, tc := range []struct {
		q    float64
		true float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1.0, 1000}} {
		got := h.Quantile(tc.q)
		if got < tc.true || got > tc.true*1.3 {
			t.Errorf("q=%.2f: got %v, want in [%v, %v]", tc.q, got, tc.true, tc.true*1.3)
		}
	}
	// p0 is the smallest non-empty bucket's bound.
	if got := h.Quantile(0); got < 1 || got > 2 {
		t.Errorf("q=0: got %v, want ~1", got)
	}
}

// TestHistogramConcurrent hammers Observe from many goroutines while
// snapshots run — the -race CI step turns any unsynchronized access
// into a failure, and the final count checks no observation was lost.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const (
		writers = 8
		perW    = 10000
	)
	var writersWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	readerWG.Add(1)
	go func() { // concurrent snapshotter
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Quantile(0.99)
				_ = h.Count()
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perW; i++ {
				h.Observe(int64(w*1000 + i))
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readerWG.Wait()
	if c := h.Count(); c != writers*perW {
		t.Fatalf("count = %d, want %d", c, writers*perW)
	}
}

// TestRegistryConcurrent registers and observes from many goroutines
// while Snapshot and WriteProm run, under -race in CI.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "latency")
	c := r.Counter("ops_total", "ops")
	v := r.CounterVec("shard_ops_total", "per-shard ops", "shard", ShardLabels(4))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				h.Observe(int64(i))
				c.Inc()
				v.Inc(w)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		_ = r.Snapshot()
		var b strings.Builder
		r.WriteProm(&b)
	}
	wg.Wait()
	snap := r.Snapshot()
	if got, ok := snap.Value("ops_total", ""); !ok || got != 4*5000 {
		t.Fatalf("ops_total = %v (ok=%v), want %d", got, ok, 4*5000)
	}
	var sum float64
	for i := 0; i < 4; i++ {
		val, ok := snap.Value("shard_ops_total", v.LabelVal(i))
		if !ok {
			t.Fatalf("missing shard_ops_total slot %d", i)
		}
		sum += val
	}
	if sum != 4*5000 {
		t.Fatalf("shard_ops_total sum = %v, want %d", sum, 4*5000)
	}
}

func TestPromExpositionParses(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("query_latency_ns", "per-query latency")
	g := r.Gauge("deferred", "deferred moves")
	r.Counter("runs_total", "runs").Add(3)
	vec := r.CounterVec("shard_queries_total", "per-shard queries", "shard", ShardLabels(3))
	for i := int64(1); i < 10000; i *= 3 {
		h.Observe(i)
	}
	g.Set(-7)
	vec.Inc(1)
	r.RegisterCollector(func(emit func(kind Kind, name, labelKey, labelVal string, v float64)) {
		emit(KindCounter, "io_reads_total", "shard", "0", 42)
		emit(KindGauge, "space_blocks", "", "", 17.5)
	})
	var b strings.Builder
	r.WriteProm(&b)
	out := b.String()
	if err := CheckProm([]byte(out)); err != nil {
		t.Fatalf("CheckProm rejected own exposition: %v\n%s", err, out)
	}
	for _, want := range []string{
		"query_latency_ns_bucket{le=\"+Inf\"} 9",
		"query_latency_ns_count 9",
		"query_latency_ns_p50 ",
		"query_latency_ns_p99 ",
		"deferred -7",
		"runs_total 3",
		`shard_queries_total{shard="1"} 1`,
		`io_reads_total{shard="0"} 42`,
		"space_blocks 17.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCheckPromRejects(t *testing.T) {
	bad := []string{
		"not a metric line at all!!",
		"name{unterminated 3",
		"h_bucket{le=\"10\"} 5\nh_bucket{le=\"20\"} 3\nh_bucket{le=\"+Inf\"} 5", // non-cumulative
		"h_bucket{le=\"10\"} 5", // no +Inf
	}
	for _, payload := range bad {
		if err := CheckProm([]byte(payload)); err == nil {
			t.Errorf("CheckProm accepted %q", payload)
		}
	}
	if err := CheckProm([]byte("# a comment\nok_total 5\n")); err != nil {
		t.Errorf("CheckProm rejected valid payload: %v", err)
	}
}

func TestMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x").Inc()
	mux := Mux(r)
	for _, tc := range []struct {
		path string
		want string
	}{
		{"/metrics", "x_total 1"},
		{"/metrics?format=json", `"x_total"`},
		{"/metrics.json", `"x_total"`},
	} {
		req := httptest.NewRequest("GET", tc.path, nil)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", tc.path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: body missing %q:\n%s", tc.path, tc.want, rec.Body.String())
		}
	}
	// pprof index answers too (mounted on the same mux).
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/: status %d", rec.Code)
	}
}

func TestRing(t *testing.T) {
	r := NewRing[int](4)
	if r.Len() != 0 {
		t.Fatal("fresh ring not empty")
	}
	for i := 1; i <= 6; i++ {
		r.Put(i)
	}
	got := r.Snapshot(nil)
	want := []int{3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("snapshot %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot %v, want %v (oldest first)", got, want)
		}
	}
	// Reused dst stays allocation-free.
	buf := make([]int, 0, 4)
	if n := testing.AllocsPerRun(10, func() { buf = r.Snapshot(buf[:0]) }); n != 0 {
		t.Errorf("Ring.Snapshot into reused dst: %.1f allocs, want 0", n)
	}
}

func TestObserveZeroAllocs(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_ns", "h")
	c := r.Counter("c_total", "c")
	v := r.CounterVec("v_total", "v", "shard", ShardLabels(8))
	i := int64(0)
	if n := testing.AllocsPerRun(100, func() {
		h.Observe(i)
		c.Inc()
		v.Inc(int(i % 8))
		i += 37
	}); n != 0 {
		t.Fatalf("observe path: %.1f allocs/op, want 0", n)
	}
}
