package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"linconstraint/internal/engine"
	"linconstraint/internal/metrics"
	"linconstraint/internal/partition"
	"linconstraint/internal/workload"
)

// TestExportedSeriesHaveConsumers pins the exported telemetry to what
// something reads. It arms an engine with every telemetry and
// robustness option and a server on one registry, scrapes
// /metrics.json, and compares the set of base series names with the
// table below, where every row names the series' consumer: the CI
// scrape smoke's grep, the bench ledger, a run-time reader in the
// engine, or the test that checks the behaviour through it. A series
// added without a row, or a row whose series is gone, fails the test.
func TestExportedSeriesHaveConsumers(t *testing.T) {
	const ci = "CI lcserve smoke grep"
	consumers := map[string]string{
		"engine_run_plan_ns":              "bench engine.plan_us_mean",
		"engine_run_exec_ns":              "bench engine.exec_us_mean",
		"engine_run_wait_ns":              "bench engine.wait_us_mean",
		"engine_run_merge_ns":             "bench engine.merge_us_mean",
		"engine_run_total_ns":             ci + "; bench engine_outside_over_inside",
		"engine_shard_visits_total":       ci,
		"engine_plan_verdicts_total":      ci,
		"engine_arena_fresh_total":        "TestStragglerDoesNotPinOtherArenas (arena reuse)",
		"engine_hedges_total":             ci,
		"engine_hedge_wins_total":         ci,
		"engine_deadline_misses_total":    ci,
		"engine_degraded_runs_total":      ci,
		"engine_breaker_trips_total":      ci,
		"engine_run_total_ns_win":         ci + "; engine: HedgeAuto delay and the p99 SLO bound",
		"engine_query_shards_visited_win": ci + "; engine: the visited SLO bound",
		"engine_health_events_total":      ci,
		"engine_watchdog_ticks_total":     ci,
		"engine_slo_evals_total":          ci,
		"engine_shard_io_reads_total":     ci,
		"engine_breaker_state":            ci,
		"server_requests_total":           ci,
		"server_shed_total":               ci,
		"server_batches_total":            ci,
		"server_queue_depth":              ci,
		"server_batch_size":               ci,
		"server_queue_wait_ns_win":        ci,
		"server_request_ns_win":           ci,
	}

	rng := rand.New(rand.NewSource(3))
	pts := workload.Uniform2(rng, 2_000)
	reg := metrics.NewRegistry()
	eng := engine.NewPlanar(pts, engine.Options{
		Shards: 4, BlockSize: 64, Seed: 1, Partitioner: partition.NewKDCut(),
		Metrics:        reg,
		FlightRecorder: engine.FlightRecorderConfig{TotalNs: 1},
		Watchdog:       &engine.WatchdogConfig{Interval: time.Millisecond, LatencyP99Ns: 1, MeanShardsVisited: 1},
		Breaker:        &engine.BreakerConfig{},
		Deadline:       time.Hour, HedgeAfter: time.Hour,
	})
	defer eng.Close()
	srv := New(eng, Config{Metrics: reg})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	if code, resp := getQuery(t, hs.Client(), hs.URL+"/query?op=halfplane&a=0.2&b=0.3"); code != http.StatusOK {
		t.Fatalf("query: status %d (%s)", code, resp.Err)
	}

	scrape := httptest.NewRecorder()
	metrics.Mux(reg).ServeHTTP(scrape, httptest.NewRequest("GET", "/metrics.json", nil))
	var snap metrics.Snapshot
	if err := json.Unmarshal(scrape.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, s := range slices.Concat(snap.Counters, snap.Gauges) {
		exported[s.Name] = true
	}
	for _, h := range snap.Histograms {
		exported[h.Name] = true
	}
	for name := range exported {
		if consumers[name] == "" {
			t.Errorf("%s is exported but names no consumer: give it a row or delete it", name)
		}
	}
	for name := range consumers {
		if !exported[name] {
			t.Errorf("%s has a consumer row but is not exported", name)
		}
	}
}
