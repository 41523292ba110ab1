package linconstraint_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"linconstraint"
	"linconstraint/internal/metrics"
)

// TestServeFacade drives the public Serve front-end end to end: an
// HTTP query answered through the batcher must match the engine's
// direct answer, the server metrics must land on the shared registry,
// and shutdown must follow the server-then-engine ordering.
func TestServeFacade(t *testing.T) {
	pts := []linconstraint.Point2{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 5}, {X: 3, Y: 1}}
	reg := linconstraint.NewMetrics()
	eng := linconstraint.NewPlanarEngine(pts, linconstraint.EngineConfig{
		Shards: 2, BlockSize: 16, Metrics: reg,
	})

	srv := linconstraint.Serve(eng, linconstraint.ServerConfig{
		MaxBatch: 4, Metrics: reg,
	})
	hs := httptest.NewServer(srv)

	ans := eng.Batch([]linconstraint.Query{{Op: linconstraint.OpHalfplane, A: 0, B: 2}})[0] // y <= 2
	if ans.Err != nil {
		t.Fatal(ans.Err)
	}
	want := ans.IDs
	hr, err := hs.Client().Get(hs.URL + "/query?op=halfplane&a=0&b=2")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", hr.StatusCode)
	}
	var resp linconstraint.ServerResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(resp.IDs, want) {
		t.Fatalf("served IDs %v, want %v", resp.IDs, want)
	}
	if resp.Lat.TotalNs <= 0 {
		t.Fatalf("missing latency attribution: %+v", resp.Lat)
	}

	// The server's series share the engine's registry and the
	// exposition still passes the promtool stand-in.
	rr := httptest.NewRecorder()
	linconstraint.MetricsHandler(reg).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, series := range []string{"server_requests_total{", "server_batches_total ", "server_queue_depth ", "engine_run_total_ns"} {
		if !strings.Contains(body, series) {
			t.Errorf("exposition missing %q", series)
		}
	}
	if err := metrics.CheckProm([]byte(body)); err != nil {
		t.Errorf("promcheck: %v", err)
	}

	// Shutdown ordering: server first, then the engine.
	hs.Close()
	srv.Close()
	eng.Close()

	var after linconstraint.ServerResponse
	if st := srv.Do(linconstraint.Query{Op: linconstraint.OpHalfplane}, &after); st != linconstraint.ServeClosed {
		t.Fatalf("Do after Close: %v, want ServeClosed", st)
	}
}
