package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"linconstraint/internal/geom"
	"linconstraint/internal/index"
)

// The HTTP face of the batcher. One endpoint:
//
//	POST /query   JSON body, one query object (wireQuery)
//	GET  /query   the same parameters as a query string (curl-friendly;
//	              conjunction uses repeated constraint= params)
//	GET  /healthz liveness
//
// Status codes: 200 complete, 206 degraded/partial, 400 unparseable,
// non-finite operand, a k, constraint count or coefficient count over
// its bound, unsupported op, or an insert or delete on a static engine
// (engine.ErrImmutable, open or closed), 413 body over maxBodyBytes, 429
// shed by admission control, 503 shutting down, 500 engine error. The
// body is always a Response (plus an error string when not 200/206).

// maxBodyBytes bounds a POST body; the largest legitimate query (a
// conjunction of a few d-dim constraints) is a few hundred bytes.
const maxBodyBytes = 1 << 20

// Bounds on one query's size, far above any legitimate query: a k-NN k
// sizes the engine's per-shard candidate lists, and the constraints and
// their coefficients the planner's and every shard's work. A query over
// a bound is a 400, before it reaches the engine.
const (
	maxK           = 1 << 16
	maxConstraints = 64
	maxCoefs       = 64 // per constraint or halfspaceD operand: dimension d + 1
)

// wireQuery is the JSON request schema. Op selects which fields are
// read, mirroring index.Query; the names match Op.String().
type wireQuery struct {
	Op string `json:"op"`
	// halfplane: y <= a·x + b. halfspace3: z <= a·x + b·y + c.
	A float64 `json:"a,omitempty"`
	B float64 `json:"b,omitempty"`
	C float64 `json:"c,omitempty"`
	// halfspaceD: x_d <= coef·(x,1).
	Coef []float64 `json:"coef,omitempty"`
	// conjunction.
	Constraints []wireConstraint `json:"constraints,omitempty"`
	// knn.
	K int     `json:"k,omitempty"`
	X float64 `json:"x,omitempty"`
	Y float64 `json:"y,omitempty"`
	// insert / delete: rec2 is a planar [x,y], recd a d-dim point.
	Rec2 []float64 `json:"rec2,omitempty"`
	RecD []float64 `json:"recd,omitempty"`
}

type wireConstraint struct {
	Coef  []float64 `json:"coef"`
	Below bool      `json:"below"`
}

var opsByName = map[string]index.Op{
	index.OpHalfplane.String():   index.OpHalfplane,
	index.OpHalfspace3.String():  index.OpHalfspace3,
	index.OpHalfspaceD.String():  index.OpHalfspaceD,
	index.OpConjunction.String(): index.OpConjunction,
	index.OpKNN.String():         index.OpKNN,
	index.OpInsert.String():      index.OpInsert,
	index.OpDelete.String():      index.OpDelete,
}

// finite reports whether every x is a finite number.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// toQuery builds the engine query. Operand slices (Coef, Constraints,
// Rec.PD) are freshly allocated here and never pooled — see request.
// NaN and ±Inf operands (strconv.ParseFloat accepts their spellings on
// the GET form) are rejected here, before anything reaches the index.
func (w *wireQuery) toQuery() (index.Query, string) {
	op, ok := opsByName[w.Op]
	if !ok {
		return index.Query{}, "unknown op " + strconv.Quote(w.Op)
	}
	ok = finite(w.A, w.B, w.C, w.X, w.Y) && finite(w.Coef...) && finite(w.Rec2...) && finite(w.RecD...)
	for _, c := range w.Constraints {
		ok = ok && finite(c.Coef...)
	}
	if !ok {
		return index.Query{}, "operands must be finite numbers"
	}
	q := index.Query{Op: op}
	switch op {
	case index.OpHalfplane:
		q.A, q.B = w.A, w.B
	case index.OpHalfspace3:
		q.A, q.B, q.C = w.A, w.B, w.C
	case index.OpHalfspaceD:
		if len(w.Coef) == 0 {
			return q, "halfspaceD needs coef"
		}
		if len(w.Coef) > maxCoefs {
			return q, fmt.Sprintf("coef: more than %d coefficients", maxCoefs)
		}
		q.Coef = append([]float64(nil), w.Coef...)
	case index.OpConjunction:
		if len(w.Constraints) == 0 {
			return q, "conjunction needs constraints"
		}
		if len(w.Constraints) > maxConstraints {
			return q, fmt.Sprintf("conjunction: more than %d constraints", maxConstraints)
		}
		q.Constraints = make([]index.Constraint, len(w.Constraints))
		for i, c := range w.Constraints {
			if len(c.Coef) == 0 {
				return q, "constraint needs coef"
			}
			if len(c.Coef) > maxCoefs {
				return q, fmt.Sprintf("constraint: more than %d coefficients", maxCoefs)
			}
			q.Constraints[i] = index.Constraint{Coef: append([]float64(nil), c.Coef...), Below: c.Below}
		}
	case index.OpKNN:
		if w.K <= 0 || w.K > maxK {
			return q, fmt.Sprintf("knn needs 0 < k <= %d", maxK)
		}
		q.K = w.K
		q.Pt = geom.Point2{X: w.X, Y: w.Y}
	case index.OpInsert, index.OpDelete:
		switch {
		case len(w.RecD) > 0:
			q.Rec.PD = append(geom.PointD(nil), w.RecD...)
		case len(w.Rec2) == 2:
			q.Rec.P2 = geom.Point2{X: w.Rec2[0], Y: w.Rec2[1]}
		default:
			return q, w.Op + " needs rec2=[x,y] or recd=[...]"
		}
	}
	return q, ""
}

// fromForm decodes the GET parameter form into w. List-valued fields
// are comma-separated; conjunction constraints repeat the constraint
// parameter as "below:c0,c1,..." or "above:c0,c1,...".
func (w *wireQuery) fromForm(v map[string][]string) string {
	get := func(k string) string {
		if vs := v[k]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	w.Op = get("op")
	var err string
	f := func(k string) float64 {
		s := get(k)
		if s == "" {
			return 0
		}
		x, e := strconv.ParseFloat(s, 64)
		if e != nil && err == "" {
			err = "bad " + k
		}
		return x
	}
	csv := func(k string) []float64 {
		s := get(k)
		if s == "" {
			return nil
		}
		parts := strings.Split(s, ",")
		out := make([]float64, len(parts))
		for i, p := range parts {
			x, e := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if e != nil && err == "" {
				err = "bad " + k
			}
			out[i] = x
		}
		return out
	}
	w.A, w.B, w.C = f("a"), f("b"), f("c")
	w.X, w.Y = f("x"), f("y")
	if s := get("k"); s != "" {
		k, e := strconv.Atoi(s)
		if e != nil {
			return "bad k"
		}
		w.K = k
	}
	w.Coef = csv("coef")
	w.Rec2 = csv("rec2")
	w.RecD = csv("recd")
	for _, s := range v["constraint"] {
		side, coefs, ok := strings.Cut(s, ":")
		if !ok || (side != "below" && side != "above") {
			return "constraint wants below:c0,c1,... or above:c0,c1,..."
		}
		var c wireConstraint
		c.Below = side == "below"
		for _, p := range strings.Split(coefs, ",") {
			x, e := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if e != nil {
				return "bad constraint coef"
			}
			c.Coef = append(c.Coef, x)
		}
		w.Constraints = append(w.Constraints, c)
	}
	return err
}

// ServeHTTP implements http.Handler over Do.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		w.Write([]byte("ok\n"))
		return
	case "/query", "/":
	default:
		http.NotFound(w, r)
		return
	}
	var wq wireQuery
	switch r.Method {
	case http.MethodPost:
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&wq); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			httpError(w, code, "bad JSON: "+err.Error())
			return
		}
	case http.MethodGet:
		if msg := wq.fromForm(r.URL.Query()); msg != "" {
			httpError(w, http.StatusBadRequest, msg)
			return
		}
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	q, msg := wq.toQuery()
	if msg != "" {
		httpError(w, http.StatusBadRequest, msg)
		return
	}
	rp := s.getReply()
	defer s.replyPool.Put(rp)
	st := s.Do(q, &rp.resp)
	if rp.resp.Err == "" && st != StatusOK && st != StatusPartial {
		rp.resp.Err = st.String()
	}
	var err error
	if rp.buf, err = appendResponse(rp.buf[:0], &rp.resp); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if st == StatusShed {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(rp.buf)))
	w.WriteHeader(st.HTTPCode())
	// A failed write means the client is gone; net/http tears the
	// connection down and there is nobody left to tell.
	_, _ = w.Write(rp.buf)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Err string `json:"error"`
	}{msg})
}

// reply is the handler's pooled per-request state: the Response Do
// fills and the buffer it is encoded into, both reused at capacity.
type reply struct {
	resp Response
	buf  []byte
}

func (s *Server) getReply() *reply {
	if v := s.replyPool.Get(); v != nil {
		return v.(*reply)
	}
	return &reply{}
}
