// Command bench is the repository's benchmark: one command that builds
// what a workload needs, checks every answer against a brute-force
// oracle, measures for a fixed time and prints every metric by name and
// unit. BENCHMARK.json at the repository root is its contract;
// bench/README.md explains the workloads and metrics.
//
//	go run ./bench -workload planar_direct -seed 1 -seconds 15 -trace 0
//	go run ./bench -workload planar_serve -seed 1 -seconds 15 -trace 1
//	go run ./bench -agree
//
// With -trace 0 the last line of standard output holds the end-to-end
// metrics; with -trace 1 (or -trace FILE) it holds the per-layer metrics
// of a traced run, and the spans go to .bench_out/ (or FILE).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// env is printed on the line before the result, so a number is never
// separated from the machine and inputs that produced it.
type env struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Traced        bool    `json:"traced"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	Clients       int     `json:"clients"`
	Ops           int64   `json:"ops"`
	Samples       int     `json:"samples"`
	Scale         string  `json:"scale"`
	SleepActualUs float64 `json:"eio.sleep_actual_us"`
	SpanFile      string  `json:"span_file,omitempty"`
	Closure       float64 `json:"engine_outside_over_inside,omitempty"`
}

// runSeconds is how long the driver measures each run (BENCHMARK.json).
const runSeconds = 15

var started = time.Now()

// logf reports progress on standard error, stamped with the time since start.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: [%5.1fs] "+format+"\n", append([]any{time.Since(started).Seconds()}, args...)...)
}

// commit asks git about the working directory, and only about it: the
// driver's checkout is not a repository, and one above it is not this one.
// (go run does not stamp vcs.revision into the build info.)
func commit() string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// measure runs one workload and returns the env line and the result.
// trace is "0", "1" or a span file path.
func measure(sp *spec, seed int64, sc scale, seconds float64, trace string) (env, result, error) {
	e := env{
		Workload: sp.name, Seed: seed, Seconds: seconds, Traced: trace != "0",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Scale: fmt.Sprintf("%+v", sc), SleepActualUs: sleepActualUs(),
	}
	in := sp.gen(rand.New(rand.NewSource(seed)), sc)
	logf("%s: inputs generated from seed %d", sp.name, seed)
	if !e.Traced {
		o, err := runOnce(sp, in, seed, sc, seconds, nil)
		if err != nil {
			return e, result{}, err
		}
		e.Clients, e.Ops, e.Samples = o.clients, o.rec.ops, o.rec.samples()
		return e, newResult(o.rec, endToEndDefs(), endToEndValues(o)), nil
	}

	// Half the time untraced, half traced, so the traced run knows what
	// its own instrumentation cost. Neither half repeats set-up.
	sc.setups = 1
	plain, err := runOnce(sp, in, seed, sc, seconds/2, nil)
	if err != nil {
		return e, result{}, err
	}
	tr := newTracer(sc.spanCap)
	o, err := runOnce(sp, in, seed, sc, seconds/2, tr)
	if err != nil {
		return e, result{}, err
	}
	m := map[string]float64{"eio.sleep_actual_us": e.SleepActualUs}
	runProbes(seed, sc, m)
	logf("%s: layer probes done", sp.name)
	perLayerValues(m, plain, o)
	e.SpanFile = trace
	if trace == "1" {
		e.SpanFile = filepath.Join(".bench_out", "spans_"+sp.name+".json")
	}
	if err := tr.write(e.SpanFile, sp.name, seed); err != nil {
		return e, result{}, fmt.Errorf("span file: %w", err)
	}
	e.Clients, e.Ops, e.Samples, e.Closure = o.clients, o.rec.ops, o.rec.samples(), closure(o)
	o.rec.attempted += plain.rec.attempted
	o.rec.failed += plain.rec.failed
	return e, newResult(o.rec, perLayer, m), nil
}

func newResult(rec *recorder, defs []metricDef, vals map[string]float64) result {
	r := result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.Name] = value{v, d.Unit}
	}
	return r
}

// agreeRounds is how many times -agree runs each of its two sets. One run
// of dyn_mixed's CPU per op strays 30% from the next about one time in
// ten on the runner this was written on; the driver compares medians of
// ten runs, and -agree does the same with three.
const agreeRounds = 3

// agree runs the untraced set twice, round by round (A B A B A B), and
// reports every end-to-end metric whose two medians differ by more than
// its bound.
func agree(seed int64, sc scale, seconds float64) (bad int, err error) {
	for i := range specs {
		sp := &specs[i]
		sets := [2]map[string][]float64{{}, {}}
		for round := 0; round < agreeRounds; round++ {
			for k := range sets {
				_, r, err := measure(sp, seed, sc, seconds, "0")
				if err != nil {
					return bad, err
				}
				if !r.Correct {
					bad++
				}
				for name, v := range r.Metrics {
					sets[k][name] = append(sets[k][name], v.Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := "ok"
			if !(diff <= d.Bound) {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Printf("%-16s %-17s %.5g %.5g %s: medians %.5g %.5g differ %.2f%%, bound %.0f%% %s\n",
				sp.name, d.Name, sets[0][d.Name], sets[1][d.Name], d.Unit, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	return bad, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "one of planar_direct, planar_serve, planar_batch_io, dyn_mixed")
		seed    = flag.Int64("seed", 1, "every input derives from it")
		seconds = flag.Float64("seconds", runSeconds, "length of the timed phase")
		trace   = flag.String("trace", "0", `0: end-to-end metrics; 1: per-layer metrics, spans to .bench_out/; else: span file path`)
		doAgree = flag.Bool("agree", false, "run the untraced set twice, three rounds each, and fail unless every end-to-end median agrees within its bound")
	)
	flag.Parse()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
		os.Exit(1)
	}
	if *seconds <= 0 {
		fail("-seconds must be positive")
	}
	if *doAgree {
		bad, err := agree(*seed, fullScale, *seconds)
		if err != nil {
			fail("%v", err)
		}
		if bad > 0 {
			fail("%d end-to-end readings disagree beyond their bound", bad)
		}
		return
	}
	sp := specByName(*name)
	if sp == nil {
		fail("unknown -workload %q", *name)
	}
	e, r, err := measure(sp, *seed, fullScale, *seconds, *trace)
	if err != nil {
		fail("%v", err)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(struct {
		Env env `json:"env"`
	}{e}); err != nil {
		fail("%v", err)
	}
	if err := out.Encode(r); err != nil {
		fail("%v", err)
	}
	if !r.Correct {
		fail("%d of %d answers failed the oracle or were refused", r.Failed, r.Attempted)
	}
}
