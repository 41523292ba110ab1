package linconstraint

// Engine introspection endpoints (DESIGN.md §11). MetricsHandler
// serves the registry — aggregates. The endpoints here serve the
// engine's time-resolved evidence: the flight recorder's captured
// anomalous runs, the watchdog's health events, and an on-demand plan
// explain that answers "what would the planner do with this query"
// without running it.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"linconstraint/internal/metrics"
)

// DebugHandler returns MetricsHandler(reg) extended with eng's
// introspection endpoints:
//
//	/debug/slow     flight-recorder captures, oldest first (JSON)
//	/debug/health   watchdog health events, oldest first (JSON)
//	/debug/explain  plan a query from URL parameters without running it
//
// /debug/explain selects the query with op=halfplane|halfspace3|
// halfspaceD|knn plus the op's parameters — a, b, c for the halfplane
// and halfspace families, coef=v1,v2,... for the d-dimensional one,
// k, x, y for k-NN — and reports the planner's verdict for every
// shard. lcserve -listen mounts this handler beside /query.
func DebugHandler(reg *Metrics, eng *Engine) http.Handler {
	mux := metrics.Mux(reg)
	mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, r *http.Request) {
		type slowJSON struct {
			Reason string `json:"reason"`
			SlowTrace
		}
		traces := eng.SlowQueries(nil)
		out := make([]slowJSON, len(traces))
		for i, tr := range traces {
			out[i] = slowJSON{Reason: tr.Reason.String(), SlowTrace: tr}
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, r *http.Request) {
		type healthJSON struct {
			Kind string `json:"kind"`
			HealthEvent
		}
		events := eng.Health(nil)
		out := make([]healthJSON, len(events))
		for i, ev := range events {
			out[i] = healthJSON{Kind: ev.Kind.String(), HealthEvent: ev}
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/debug/explain", func(w http.ResponseWriter, r *http.Request) {
		q, err := explainQuery(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var ex Explain
		eng.ExplainInto(q, &ex)
		type shardJSON struct {
			Shard    int      `json:"shard"`
			Verdict  string   `json:"verdict"`
			MinDist2 *float64 `json:"min_dist2,omitempty"`
		}
		resp := struct {
			Op      string      `json:"op"`
			Visited int         `json:"visited"`
			Pruned  int         `json:"pruned"`
			Shards  []shardJSON `json:"shards"`
		}{Op: ex.Op.String()}
		for si, v := range ex.Verdicts {
			s := shardJSON{Shard: si, Verdict: v.String()}
			if si < len(ex.MinDist2) && ex.MinDist2[si] >= 0 {
				d := ex.MinDist2[si]
				s.MinDist2 = &d
			}
			if v.Pruned() {
				resp.Pruned++
			} else {
				resp.Visited++
			}
			resp.Shards = append(resp.Shards, s)
		}
		writeJSON(w, resp)
	})
	return mux
}

// explainQuery builds the Query a /debug/explain request describes.
// NaN and ±Inf operands are rejected, as /query rejects them.
func explainQuery(v url.Values) (Query, error) {
	num := func(name, s string) (float64, error) {
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("parameter %q: %v", name, err)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("parameter %q: operands must be finite numbers", name)
		}
		return x, nil
	}
	f := func(name string) (float64, error) {
		s := v.Get(name)
		if s == "" {
			return 0, fmt.Errorf("missing parameter %q", name)
		}
		return num(name, s)
	}
	var q Query
	var err error
	switch op := v.Get("op"); op {
	case "halfplane":
		q.Op = OpHalfplane
		if q.A, err = f("a"); err == nil {
			q.B, err = f("b")
		}
	case "halfspace3":
		q.Op = OpHalfspace3
		if q.A, err = f("a"); err == nil {
			if q.B, err = f("b"); err == nil {
				q.C, err = f("c")
			}
		}
	case "halfspaceD":
		q.Op = OpHalfspaceD
		for _, s := range strings.Split(v.Get("coef"), ",") {
			x, perr := num("coef", strings.TrimSpace(s))
			if perr != nil {
				return q, perr
			}
			q.Coef = append(q.Coef, x)
		}
	case "knn":
		q.Op = OpKNN
		k, kerr := strconv.Atoi(v.Get("k"))
		if kerr != nil || k <= 0 {
			return q, fmt.Errorf("parameter \"k\": want a positive integer")
		}
		q.K = k
		if q.Pt.X, err = f("x"); err == nil {
			q.Pt.Y, err = f("y")
		}
	default:
		err = fmt.Errorf("unknown op %q (want halfplane, halfspace3, halfspaceD or knn)", op)
	}
	return q, err
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
