package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"testing"
)

// smoke is every workload and probe at a size that runs in seconds.
var smoke = scale{
	planarN: 20_000, batchIoN: 20_000, dynN: 20_000,
	pool: 64, batchIoPool: 32, dynPool: 16,
	insertPool: 4096, recheckEvery: 20,
	probeN: 1500, probeQ: 60,
	setups:    1,
	sampleCap: 1 << 14, spanCap: 1 << 15,
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// manifest is BENCHMARK.json as the tables in this package define it.
func manifest() map[string]any {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	ws := make([]workload, len(specs))
	for i, sp := range specs {
		ws[i] = workload{sp.name, sp.why}
	}
	return map[string]any{
		"command":     []string{"go", "run", "./bench"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	}
}

// TestManifest holds the committed BENCHMARK.json to the tables the
// command measures by, and the tables to the contract's limits.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed, want any
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(manifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(enc, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, want) {
		t.Errorf("BENCHMARK.json differs from the tables in bench/, which give:\n%s", enc)
	}

	seen := map[string]bool{}
	check := func(d metricDef) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q unit %q: bad or repeated name, or bad unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		check(d.metricDef)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		check(d)
	}
	if !seen["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}
	for _, sp := range specs {
		if !nameRE.MatchString(sp.name) || seen[sp.name] || len(sp.why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or why over 200 characters", sp.name)
		}
		seen[sp.name] = true
	}
}

// TestWorkloadsSmoke runs all four workloads, untraced and traced, and
// checks that the waterfall closes.
func TestWorkloadsSmoke(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		t.Run(sp.name, func(t *testing.T) {
			_, r, err := measure(sp, 7, smoke, 0.3, "0")
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, endToEndDefs())
			for _, d := range endToEnd {
				if !(r.Metrics[d.Name].Value > 0) {
					t.Errorf("%s = %v: an end-to-end metric is never 0", d.Name, r.Metrics[d.Name].Value)
				}
			}

			spanPath := filepath.Join(t.TempDir(), "spans.json")
			e, r, err := measure(sp, 7, smoke, 0.6, spanPath)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, perLayer)
			// Timed from outside, the engine must account for what it
			// says it spent inside (the histogram is ±6% by construction).
			t.Logf("outside/inside = %.3f", e.Closure)
			if math.Abs(e.Closure-1) > 0.10 {
				t.Errorf("BatchInto timed from outside is %.3f× engine_run_total_ns, want within 10%%", e.Closure)
			}
			v := func(name string) float64 { return r.Metrics[name].Value }
			if sp.name == "planar_batch_io" && v("engine.shards_visited_per_query") != shards {
				t.Errorf("round-robin layout visited %v shards per query, want %d", v("engine.shards_visited_per_query"), shards)
			}
			checkSpans(t, spanPath, sp.serve)
		})
	}
}

func checkResult(t *testing.T, r result, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d defined", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		got, ok := r.Metrics[d.Name]
		// Only the overhead share, a difference of two noisy rates, may dip below 0.
		if !ok || got.Unit != d.Unit || math.IsNaN(got.Value) || got.Value < 0 && d.Name != "trace.overhead_share" {
			t.Errorf("metric %s: emitted %v (present %v), want unit %q and a value >= 0", d.Name, got, ok, d.Unit)
		}
	}
}

// checkSpans reads a span file back: every span but the roots hangs under
// a recorded span, and no request's children outlast it.
func checkSpans(t *testing.T, path string, served bool) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f spanFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Spans) == 0 || f.Dropped != 0 {
		t.Fatalf("%d spans recorded, %d dropped", len(f.Spans), f.Dropped)
	}
	rootName := "caller.op"
	if served {
		rootName = "http.roundtrip"
	}
	byID := map[int64]span{}
	for _, s := range f.Spans {
		byID[s.ID] = s
	}
	var rootNs, childNs int64
	names := map[string]int{}
	for _, s := range f.Spans {
		names[s.Name]++
		if s.EndNs < s.StartNs {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Parent == 0 {
			if s.Name != rootName {
				t.Fatalf("span %+v has no parent and is not a %s", s, rootName)
			}
			rootNs += s.EndNs - s.StartNs
			continue
		}
		if p, ok := byID[s.Parent]; !ok || p.Name != rootName {
			t.Fatalf("span %+v: parent missing or not a root", s)
		}
		childNs += s.EndNs - s.StartNs
	}
	if childNs > rootNs {
		t.Errorf("children cover %dns of %dns of their requests", childNs, rootNs)
	}
	want := []string{rootName, "engine.BatchInto"}
	if served {
		want = append(want, "server.queue_wait", "server.batch_wait")
	}
	for _, n := range want {
		if names[n] == 0 {
			t.Errorf("no %s span recorded", n)
		}
	}
}

// TestMidAfter checks the selection against a full sort.
func TestMidAfter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 5000
	res := make([]float64, n)
	for i := range res {
		res[i] = rng.NormFloat64()
	}
	sorted := slices.Clone(res)
	slices.Sort(sorted)
	for _, rank := range []int{1, n / 100, n / 2, n - 1} {
		want := (sorted[rank-1] + sorted[rank]) / 2
		if got := midAfter(res, rank); got != want {
			t.Errorf("rank=%d: midAfter = %v, want %v", rank, got, want)
		}
	}
}
