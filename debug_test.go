package linconstraint_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"linconstraint"
)

// TestDebugExplainRejectsNonFinite pins /debug/explain to the rule
// /query applies: a NaN or ±Inf operand in any float parameter is a
// 400, never a plan.
func TestDebugExplainRejectsNonFinite(t *testing.T) {
	pts := []linconstraint.Point2{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 5}, {X: 3, Y: 1}}
	reg := linconstraint.NewMetrics()
	eng := linconstraint.NewPlanarEngine(pts, linconstraint.EngineConfig{Shards: 2, Metrics: reg})
	defer eng.Close()
	h := linconstraint.DebugHandler(reg, eng)

	for _, tc := range []struct {
		name, query string
		want        int
	}{
		{"finite halfplane", "op=halfplane&a=0.5&b=0.1", http.StatusOK},
		{"halfplane a NaN", "op=halfplane&a=NaN&b=0.1", http.StatusBadRequest},
		{"halfplane b Inf", "op=halfplane&a=0.5&b=Inf", http.StatusBadRequest},
		{"halfplane b -Inf", "op=halfplane&a=0.5&b=-Inf", http.StatusBadRequest},
		{"halfspace3 c NaN", "op=halfspace3&a=0&b=0&c=NaN", http.StatusBadRequest},
		{"halfspace3 a +Inf", "op=halfspace3&a=%2BInf&b=0&c=1", http.StatusBadRequest},
		{"halfspaceD coef NaN", "op=halfspaceD&coef=0.1,NaN,0.5", http.StatusBadRequest},
		{"halfspaceD coef Inf", "op=halfspaceD&coef=Inf", http.StatusBadRequest},
		{"knn x NaN", "op=knn&k=3&x=NaN&y=0.5", http.StatusBadRequest},
		{"knn y -Inf", "op=knn&k=3&x=0.5&y=-Inf", http.StatusBadRequest},
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/explain?"+tc.query, nil))
		if rr.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rr.Code, tc.want, rr.Body.String())
		}
	}
}
