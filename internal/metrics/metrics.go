// Package metrics is the engine's allocation-free instrumentation
// core. Every observation on a hot path — a counter bump, a gauge
// store, a histogram observe — is a single atomic operation on
// pre-registered storage: instruments are created once at construction
// (never per query), carry no labels at observe time, and allocate
// only when built or scraped. That is what lets the engine's
// steady-state query path stay at zero heap allocations with metrics
// and the flight recorder enabled (the TestInstrumentedQueryZeroAllocs
// regression pins it).
//
// The histogram is fixed-bucket and log-scale: 8 sub-buckets per
// power-of-two octave over the non-negative int64 range (values below
// 8 get exact single-value buckets), so Observe is one bit-twiddle
// plus one atomic add, Quantile is a bucket walk with a bounded ~±6%
// relative error, and the bucket count (488) is a compile-time
// constant — no resizing, no mutation of bucket boundaries, ever.
// Fixed buckets are a deliberate trade: an adaptive histogram (HDR
// auto-ranging, t-digest) is more precise per byte but resizes or
// rebalances under writes, which would need a lock or an allocation on
// the observe path. Latency telemetry steers admission control and
// rebalance policy, where "p99 grew 4x" matters and "p99 grew 6%"
// does not.
//
// A Registry collects instruments for export: a consistent Snapshot
// for programmatic consumers (the bench ledger reads it), a Prometheus
// text exposition (WriteProm, served by Mux) for scrapers, and a JSON
// document for humans with curl. Collectors let owners of
// non-instrument state (the engine's per-shard devices) contribute
// scrape-time series without paying anything on their hot paths.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"net/http/pprof"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// --- instruments -----------------------------------------------------------

// desc is what every instrument carries for export: its registered name
// and help text.
type desc struct{ name, help string }

func (d *desc) describe() *desc { return d }

// instrument is one registered series family: it describes itself and
// appends its current samples to a Snapshot.
type instrument interface {
	describe() *desc
	collect(s *Snapshot)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	desc
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the exposition to stay
// meaningful; this is not checked on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

func (c *Counter) collect(s *Snapshot) {
	s.Counters = append(s.Counters, Series{Name: c.name, Value: float64(c.Load())})
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	desc
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

func (g *Gauge) collect(s *Snapshot) {
	s.Gauges = append(s.Gauges, Series{Name: g.name, Value: float64(g.Load())})
}

// Bucket layout: values 0..7 map to exact buckets 0..7; a value v >= 8
// with floor(log2 v) = e lands in bucket 8 + (e-3)*8 + m where m is
// the 3 bits below the leading bit. int64 values have e <= 62, so the
// bucket space is 8 + 60*8 = 488 (the last octave, e = 62, is
// included).
const (
	histSubBits = 3
	histSub     = 1 << histSubBits // 8 sub-buckets per octave
	histBuckets = histSub + (62-histSubBits+1)*histSub
)

// Histogram is a fixed-bucket log-scale histogram of non-negative
// int64 observations (the engine feeds it nanoseconds). Observe is one
// atomic add; negative values clamp to 0. All snapshot-side methods
// (Quantile, Count, the registry snapshot) read the buckets with atomic loads
// and may observe a torn view across buckets while writers are active
// — each bucket is exact, totals are eventually consistent — which is
// the documented price of a lock-free observe path.
type Histogram struct {
	desc
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	e := bits.Len64(u) - 1 // floor(log2 u), >= histSubBits
	m := int(u>>(uint(e)-histSubBits)) & (histSub - 1)
	return histSub + (e-histSubBits)*histSub + m
}

// bucketHigh returns the largest value that maps to bucket i (the
// Prometheus `le` bound of the bucket).
func bucketHigh(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := histSubBits + (i-histSub)/histSub
	m := (i - histSub) % histSub
	lo := uint64(1)<<uint(e) + uint64(m)<<uint(e-histSubBits)
	hi := lo + uint64(1)<<uint(e-histSubBits) - 1
	if hi > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(hi)
}

// Observe records one value: one atomic add on the pre-computed
// bucket.
func (h *Histogram) Observe(v int64) { h.buckets[bucketOf(v)].Add(1) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) of
// the observed values: the high edge of the bucket holding the rank.
// With 8 sub-buckets per octave the bound is within ~12.5% of the true
// value. Returns 0 when nothing was observed.
func (h *Histogram) Quantile(q float64) float64 {
	var counts [histBuckets]int64
	total := h.snapshotCounts(&counts)
	return quantileOf(&counts, total, q)
}

// snapshotCounts copies the buckets out and returns the total.
func (h *Histogram) snapshotCounts(dst *[histBuckets]int64) int64 {
	var total int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		dst[i] = c
		total += c
	}
	return total
}

func (h *Histogram) collect(s *Snapshot) {
	hs := HistogramSnapshot{Name: h.name}
	hs.Count = h.snapshotCounts(&hs.bucket)
	hs.finish()
	s.Histograms = append(s.Histograms, hs)
}

func quantileOf(counts *[histBuckets]int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range counts {
		cum += counts[i]
		if cum >= rank {
			return float64(bucketHigh(i))
		}
	}
	return float64(bucketHigh(histBuckets - 1))
}

// CounterVec is a fixed-cardinality family of counters over one label
// (e.g. one counter per shard, or per op kind). The label values are
// fixed at registration, so an increment is an index into a
// pre-allocated slot — no map lookup, no label formatting, no
// allocation.
type CounterVec struct {
	desc
	label     string
	labelVals []string
	vals      []atomic.Int64
}

// Inc adds 1 to slot i.
func (v *CounterVec) Inc(i int) { v.vals[i].Add(1) }

// Add adds n to slot i.
func (v *CounterVec) Add(i, n int64) { v.vals[i].Add(n) }

func (v *CounterVec) collect(s *Snapshot) {
	for i := range v.vals {
		s.Counters = append(s.Counters, Series{
			Name: v.name, LabelKey: v.label, LabelVal: v.labelVals[i], Value: float64(v.vals[i].Load()),
		})
	}
}

// CounterVec2 is a fixed-cardinality family of counters over two
// labels (e.g. op kind × prune verdict). Both label-value sets are
// fixed at registration and the slots are a dense row-major array, so
// an increment is one index computation plus one atomic add — same
// zero-allocation contract as CounterVec.
type CounterVec2 struct {
	desc
	label1, label2 string
	vals1, vals2   []string
	vals           []atomic.Int64 // row-major: i*len(vals2)+j
}

func (v *CounterVec2) slot(i, j int) int { return i*len(v.vals2) + j }

// Inc adds 1 to slot (i, j).
func (v *CounterVec2) Inc(i, j int) { v.vals[v.slot(i, j)].Add(1) }

// Add adds n to slot (i, j).
func (v *CounterVec2) Add(i, j int, n int64) { v.vals[v.slot(i, j)].Add(n) }

// Load returns slot (i, j)'s value.
func (v *CounterVec2) Load(i, j int) int64 { return v.vals[v.slot(i, j)].Load() }

func (v *CounterVec2) collect(s *Snapshot) {
	for i := range v.vals1 {
		for j := range v.vals2 {
			s.Counters = append(s.Counters, Series{
				Name: v.name, LabelKey: v.label1, LabelVal: v.vals1[i],
				LabelKey2: v.label2, LabelVal2: v.vals2[j], Value: float64(v.Load(i, j)),
			})
		}
	}
}

// --- registry --------------------------------------------------------------

// Kind classifies a collector-emitted series.
type Kind int

const (
	// KindCounter marks a cumulative series.
	KindCounter Kind = iota
	// KindGauge marks an instantaneous series.
	KindGauge
)

// Collector contributes scrape-time series computed from state that is
// not an instrument (e.g. the engine's per-shard device counters).
// Collectors run under the registry's lock at snapshot time; emit may
// be called any number of times with (kind, name, labelKey, labelVal,
// value) — empty labelKey means an unlabeled series.
type Collector func(emit func(kind Kind, name, labelKey, labelVal string, v float64))

// Registry holds a set of named instruments and serves them as a
// consistent Snapshot, Prometheus text, or JSON. Instrument
// constructors are idempotent by name: asking for an existing name
// returns the existing instrument (and panics on a kind mismatch), so
// components sharing a registry share series. The zero Registry is
// ready to use.
type Registry struct {
	mu         sync.Mutex
	byName     map[string]instrument
	order      []instrument // registration order, for stable exposition
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// register returns the instrument registered under name, or registers
// the one mk builds. A name held by an instrument of another kind
// panics.
func register[T instrument](r *Registry, name string, mk func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byName[name]; ok {
		t, ok := in.(T)
		if !ok {
			panic(fmt.Sprintf("metrics: %s already registered as a %T, wanted a %T", name, in, t))
		}
		return t
	}
	if r.byName == nil {
		r.byName = map[string]instrument{}
	}
	t := mk()
	r.byName[name] = t
	r.order = append(r.order, t)
	return t
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	return register(r, name, func() *Counter { return &Counter{desc: desc{name, help}} })
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return register(r, name, func() *Gauge { return &Gauge{desc: desc{name, help}} })
}

// Histogram returns the histogram registered under name, creating it
// on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	return register(r, name, func() *Histogram { return &Histogram{desc: desc{name, help}} })
}

// CounterVec returns the counter vector registered under name,
// creating it with the given label key and values on first use. A
// second registration under the same name must carry the same
// cardinality.
func (r *Registry) CounterVec(name, help, label string, labelVals []string) *CounterVec {
	v := register(r, name, func() *CounterVec {
		return &CounterVec{desc: desc{name, help}, label: label,
			labelVals: append([]string(nil), labelVals...), vals: make([]atomic.Int64, len(labelVals))}
	})
	if len(v.vals) != len(labelVals) {
		panic(fmt.Sprintf("metrics: counter vec %q re-registered with cardinality %d (was %d)", name, len(labelVals), len(v.vals)))
	}
	return v
}

// CounterVec2 returns the two-label counter vector registered under
// name, creating it with the given label keys and value sets on first
// use. A second registration under the same name must carry the same
// cardinality in both dimensions.
func (r *Registry) CounterVec2(name, help, label1, label2 string, vals1, vals2 []string) *CounterVec2 {
	v := register(r, name, func() *CounterVec2 {
		return &CounterVec2{desc: desc{name, help}, label1: label1, label2: label2,
			vals1: append([]string(nil), vals1...), vals2: append([]string(nil), vals2...),
			vals: make([]atomic.Int64, len(vals1)*len(vals2))}
	})
	if len(v.vals1) != len(vals1) || len(v.vals2) != len(vals2) {
		panic(fmt.Sprintf("metrics: counter vec2 %q re-registered with cardinality %dx%d (was %dx%d)",
			name, len(vals1), len(vals2), len(v.vals1), len(v.vals2)))
	}
	return v
}

// WindowedHistogram returns the rotating-window histogram registered
// under name, creating it on first use over windowSlots × windowInterval.
// Its merged view is exported as _count and quantile gauges (not a
// Prometheus histogram — windowed bucket counts are not cumulative).
func (r *Registry) WindowedHistogram(name, help string) *WindowedHistogram {
	return register(r, name, func() *WindowedHistogram {
		return newWindowedHistogram(name, help, windowSlots, windowInterval)
	})
}

// RegisterCollector adds a scrape-time collector.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// --- snapshot --------------------------------------------------------------

// Series is one exported scalar series of a Snapshot. Two-label
// series (CounterVec2) carry a second key/value pair.
type Series struct {
	Name      string  `json:"name"`
	LabelKey  string  `json:"label,omitempty"`
	LabelVal  string  `json:"label_value,omitempty"`
	LabelKey2 string  `json:"label2,omitempty"`
	LabelVal2 string  `json:"label2_value,omitempty"`
	Value     float64 `json:"value"`
}

// HistogramSnapshot summarizes one histogram at snapshot time. Sum is
// approximated from bucket midpoints (the observe path keeps no exact
// sum — that would be a second atomic add).
type HistogramSnapshot struct {
	Name string `json:"name"`
	// Window is true for windowed histograms: the counts cover only
	// the rotation window, so the exposition publishes gauges (count
	// plus quantiles) instead of a cumulative Prometheus histogram.
	Window bool    `json:"window,omitempty"`
	Count  int64   `json:"count"`
	Sum    float64 `json:"sum_approx"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
	Max    float64 `json:"max"`
	bucket [histBuckets]int64
}

// Quantile returns the q-quantile upper bound of the snapshot.
func (h *HistogramSnapshot) Quantile(q float64) float64 {
	return quantileOf(&h.bucket, h.Count, q)
}

// finish derives Sum/Max/quantiles from the populated buckets.
func (h *HistogramSnapshot) finish() {
	h.Sum, h.Max = 0, 0
	for i, c := range h.bucket {
		if c == 0 {
			continue
		}
		hi := float64(bucketHigh(i))
		h.Sum += hi * float64(c) // upper-edge approximation
		h.Max = hi
	}
	h.P50 = quantileOf(&h.bucket, h.Count, 0.50)
	h.P90 = quantileOf(&h.bucket, h.Count, 0.90)
	h.P99 = quantileOf(&h.bucket, h.Count, 0.99)
}

// Snapshot is a point-in-time view of a registry, safe to read and
// serialize after the scrape.
type Snapshot struct {
	Counters   []Series            `json:"counters"`
	Gauges     []Series            `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Histogram returns the named histogram snapshot, or nil.
func (s *Snapshot) Histogram(name string) *HistogramSnapshot {
	for i := range s.Histograms {
		if s.Histograms[i].Name == name {
			return &s.Histograms[i]
		}
	}
	return nil
}

// Value returns the value of the named (optionally labeled) scalar
// series, and whether it exists.
func (s *Snapshot) Value(name, labelVal string) (float64, bool) {
	for _, c := range s.Counters {
		if c.Name == name && c.LabelVal == labelVal {
			return c.Value, true
		}
	}
	for _, g := range s.Gauges {
		if g.Name == name && g.LabelVal == labelVal {
			return g.Value, true
		}
	}
	return 0, false
}

// seriesKey identifies a series across snapshots for interval deltas.
type seriesKey struct {
	name, k1, v1, k2, v2 string
}

// Sub returns the interval delta current − prev: cumulative series
// (counters, collector counters, histogram buckets) are subtracted
// pairwise by (name, labels); gauges and windowed histograms are
// instantaneous and pass through at their current value. Series absent
// from prev keep their current value (they started at zero). Negative
// deltas (a restarted counter) clamp to zero. This is the one interval
// implementation shared by bench's report (bench/report.go) and any
// consumer that wants "what happened since the last scrape".
func (s *Snapshot) Sub(prev *Snapshot) *Snapshot {
	out := &Snapshot{}
	prevC := make(map[seriesKey]float64, len(prev.Counters))
	for _, c := range prev.Counters {
		prevC[seriesKey{c.Name, c.LabelKey, c.LabelVal, c.LabelKey2, c.LabelVal2}] = c.Value
	}
	out.Counters = make([]Series, 0, len(s.Counters))
	for _, c := range s.Counters {
		d := c.Value - prevC[seriesKey{c.Name, c.LabelKey, c.LabelVal, c.LabelKey2, c.LabelVal2}]
		if d < 0 {
			d = 0
		}
		c.Value = d
		out.Counters = append(out.Counters, c)
	}
	out.Gauges = append(out.Gauges, s.Gauges...)
	prevH := make(map[string]*HistogramSnapshot, len(prev.Histograms))
	for i := range prev.Histograms {
		prevH[prev.Histograms[i].Name] = &prev.Histograms[i]
	}
	out.Histograms = make([]HistogramSnapshot, 0, len(s.Histograms))
	for i := range s.Histograms {
		h := s.Histograms[i] // copy
		if p := prevH[h.Name]; p != nil && !h.Window {
			h.Count = 0
			for b := range h.bucket {
				d := h.bucket[b] - p.bucket[b]
				if d < 0 {
					d = 0
				}
				h.bucket[b] = d
				h.Count += d
			}
			h.finish()
		}
		out.Histograms = append(out.Histograms, h)
	}
	return out
}

// Snapshot materializes every instrument and collector into a
// point-in-time view. The snapshot allocates; it is the scrape path,
// not the observe path.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := &Snapshot{}
	for _, in := range r.order {
		in.collect(snap)
	}
	for _, c := range r.collectors {
		c(func(kind Kind, name, labelKey, labelVal string, v float64) {
			s := Series{Name: name, LabelKey: labelKey, LabelVal: labelVal, Value: v}
			if kind == KindGauge {
				snap.Gauges = append(snap.Gauges, s)
			} else {
				snap.Counters = append(snap.Counters, s)
			}
		})
	}
	return snap
}

// --- exposition ------------------------------------------------------------

func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}

// WriteProm writes the registry in Prometheus text exposition format
// (version 0.0.4). Histograms export the standard _bucket/_sum/_count
// triple (non-empty buckets plus +Inf; _sum is the bucket-midpoint
// approximation) and additionally _p50/_p90/_p99 gauges, so a scraper
// gets quantiles without needing recording rules.
func (r *Registry) WriteProm(w *strings.Builder) {
	snap := r.Snapshot()
	// Group labeled series by name so TYPE/HELP headers print once.
	wroteHeader := map[string]bool{}
	header := func(name, typ, help string) {
		if !wroteHeader[name] {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
			wroteHeader[name] = true
		}
	}
	quantiles := func(h *HistogramSnapshot) {
		for _, p := range [...]struct {
			suffix string
			v      float64
		}{{"_p50", h.P50}, {"_p90", h.P90}, {"_p99", h.P99}} {
			name := h.Name + p.suffix
			header(name, "gauge", "histogram quantile upper bound")
			fmt.Fprintf(w, "%s %s\n", name, promFloat(p.v))
		}
	}
	for _, c := range snap.Counters {
		header(c.Name, "counter", r.helpOf(c.Name))
		switch {
		case c.LabelKey == "":
			fmt.Fprintf(w, "%s %s\n", c.Name, promFloat(c.Value))
		case c.LabelKey2 == "":
			fmt.Fprintf(w, "%s{%s=%q} %s\n", c.Name, c.LabelKey, c.LabelVal, promFloat(c.Value))
		default:
			fmt.Fprintf(w, "%s{%s=%q,%s=%q} %s\n", c.Name,
				c.LabelKey, c.LabelVal, c.LabelKey2, c.LabelVal2, promFloat(c.Value))
		}
	}
	for _, g := range snap.Gauges {
		header(g.Name, "gauge", r.helpOf(g.Name))
		if g.LabelKey == "" {
			fmt.Fprintf(w, "%s %s\n", g.Name, promFloat(g.Value))
		} else {
			fmt.Fprintf(w, "%s{%s=%q} %s\n", g.Name, g.LabelKey, g.LabelVal, promFloat(g.Value))
		}
	}
	for i := range snap.Histograms {
		h := &snap.Histograms[i]
		if h.Window {
			// Windowed counts shrink as slots rotate out, so a
			// cumulative histogram exposition would violate counter
			// monotonicity; publish the merged window as gauges.
			name := h.Name + "_count"
			header(name, "gauge", r.helpOf(h.Name)+" (window count)")
			fmt.Fprintf(w, "%s %d\n", name, h.Count)
			quantiles(h)
			continue
		}
		header(h.Name, "histogram", r.helpOf(h.Name))
		var cum int64
		for bi, c := range h.bucket {
			if c == 0 {
				continue
			}
			cum += c
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", h.Name, bucketHigh(bi), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, h.Count)
		fmt.Fprintf(w, "%s_sum %s\n", h.Name, promFloat(h.Sum))
		fmt.Fprintf(w, "%s_count %d\n", h.Name, h.Count)
		quantiles(h)
	}
}

// helpOf returns the help text registered under name; collector series
// have none of their own.
func (r *Registry) helpOf(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byName[name]; ok {
		return in.describe().help
	}
	return "collector series"
}

// Mux returns an http.ServeMux exposing the registry and the standard
// pprof profiles:
//
//	/metrics        Prometheus text format
//	/metrics.json   JSON snapshot
//	/debug/pprof/   net/http/pprof index (profile, heap, goroutine, ...)
func Mux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		var b strings.Builder
		r.WriteProm(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// --- exposition validation -------------------------------------------------

var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[-+]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)( [0-9]+)?$`)

// CheckProm validates a Prometheus text payload: every line must be a
// comment or a well-formed sample, every histogram must close with a
// le="+Inf" bucket, and cumulative bucket counts must be
// non-decreasing. It is the CI smoke's parser (no external promtool in
// the environment).
func CheckProm(payload []byte) error {
	lines := strings.Split(string(payload), "\n")
	lastCum := map[string]float64{} // histogram name -> last cumulative bucket count
	hasInf := map[string]bool{}
	for ln, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			return fmt.Errorf("line %d: malformed sample %q", ln+1, line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			base := strings.TrimSuffix(name, "_bucket")
			var v float64
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				fmt.Sscanf(line[i+1:], "%g", &v)
			}
			if v < lastCum[base] {
				return fmt.Errorf("line %d: histogram %s bucket counts not cumulative", ln+1, base)
			}
			lastCum[base] = v
			if strings.Contains(line, `le="+Inf"`) {
				hasInf[base] = true
			}
		}
	}
	var missing []string
	for base := range lastCum {
		if !hasInf[base] {
			missing = append(missing, base)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		return fmt.Errorf("histograms missing le=\"+Inf\": %s", strings.Join(missing, ", "))
	}
	return nil
}

// ShardLabels returns the label values "0".."n-1", the per-shard
// counter-vec convention (pre-formatted once so no per-observe
// formatting ever happens).
func ShardLabels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%d", i)
	}
	return out
}
