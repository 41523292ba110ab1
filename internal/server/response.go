package server

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"

	"linconstraint/internal/engine"
)

// Status classifies the outcome of one submitted query.
type Status int

const (
	// StatusOK: complete answer.
	StatusOK Status = iota
	// StatusPartial: the run blew its deadline and degraded; the
	// answer covers the visited shards only, Missing lists the rest.
	StatusPartial
	// StatusShed: every stripe's admission ring was full; the query
	// never reached the engine. Retry later.
	StatusShed
	// StatusClosed: the server is shutting down, or its engine is
	// closed (engine.ErrClosed).
	StatusClosed
	// StatusBadRequest: unparseable query, an op outside the engine's
	// family (index.ErrUnsupported), or an insert or delete on an engine
	// whose family takes no updates (engine.ErrImmutable).
	StatusBadRequest
	// StatusError: the engine reported an error.
	StatusError
)

// HTTPCode maps a Status onto the wire status the handler writes.
func (s Status) HTTPCode() int {
	switch s {
	case StatusOK:
		return http.StatusOK
	case StatusPartial:
		return http.StatusPartialContent
	case StatusShed:
		return http.StatusTooManyRequests
	case StatusClosed:
		return http.StatusServiceUnavailable
	case StatusBadRequest:
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusPartial:
		return "partial"
	case StatusShed:
		return "shed"
	case StatusClosed:
		return "closed"
	case StatusBadRequest:
		return "bad_request"
	default:
		return "error"
	}
}

// Neighbor is one k-NN answer on the wire.
type Neighbor struct {
	ID    int     `json:"id"`
	Dist2 float64 `json:"dist2"`
}

// Latency is the per-request attribution: time in the admission ring,
// time between being popped and the flush (the flusher gathering the
// rest of the batch — it never waits for one to fill), the shared
// engine run, and the end-to-end total from admission to demux.
type Latency struct {
	QueueNs int64 `json:"queue_ns"`
	BatchNs int64 `json:"batch_ns"`
	RunNs   int64 `json:"run_ns"`
	TotalNs int64 `json:"total_ns"`
}

// Response is one query's answer, deep-copied out of the engine's
// arena by the flusher so it stays valid after the next batch runs.
// Reused Responses keep their buffer capacity across reset/fill.
type Response struct {
	IDs       []int       `json:"ids,omitempty"`
	Recs      [][]float64 `json:"recs,omitempty"`
	Neighbors []Neighbor  `json:"neighbors,omitempty"`
	Deleted   bool        `json:"deleted,omitempty"`
	Degraded  bool        `json:"degraded,omitempty"`
	Missing   []int       `json:"missing,omitempty"`

	ShardsVisited int     `json:"shards_visited,omitempty"`
	ShardsPruned  int     `json:"shards_pruned,omitempty"`
	Batch         int     `json:"batch,omitempty"` // size of the coalesced run that answered
	Err           string  `json:"error,omitempty"`
	Lat           Latency `json:"lat"`
}

func (o *Response) reset() {
	o.IDs = o.IDs[:0]
	o.Recs = o.Recs[:0]
	o.Neighbors = o.Neighbors[:0]
	o.Missing = o.Missing[:0]
	o.Deleted, o.Degraded = false, false
	o.ShardsVisited, o.ShardsPruned, o.Batch = 0, 0, 0
	o.Err = ""
	o.Lat = Latency{}
}

// fill deep-copies r into o, reusing o's slices (rows included) so a
// recycled Response allocates only on capacity growth.
func (o *Response) fill(r *engine.Result, batch int) {
	o.IDs = append(o.IDs[:0], r.IDs...)
	// Re-expose previously used rows so their capacity is reused.
	if n := len(r.Recs); n <= cap(o.Recs) {
		o.Recs = o.Recs[:n]
	} else {
		o.Recs = append(o.Recs[:cap(o.Recs)], make([][]float64, n-cap(o.Recs))...)
	}
	for i := range r.Recs {
		rec := &r.Recs[i]
		row := o.Recs[i][:0]
		if rec.PD != nil {
			row = append(row, rec.PD...)
		} else {
			row = append(row, rec.P2.X, rec.P2.Y)
		}
		o.Recs[i] = row
	}
	o.Neighbors = o.Neighbors[:0]
	for _, n := range r.Neighbors {
		o.Neighbors = append(o.Neighbors, Neighbor{ID: n.ID, Dist2: n.Dist2})
	}
	o.Missing = append(o.Missing[:0], r.Missing...)
	o.Deleted = r.Deleted
	o.Degraded = r.Degraded
	o.ShardsVisited = r.ShardsVisited
	o.ShardsPruned = r.ShardsPruned
	o.Batch = batch
}

// errNonFinite is appendResponse's one failure: JSON has no spelling
// for NaN or ±Inf (json.Marshal fails on them too). Operands are
// checked finite at the door, so only an overflowing k-NN distance can
// produce one.
var errNonFinite = errors.New("server: non-finite number in response")

// appendResponse appends r's wire form to dst: byte for byte what
// json.Marshal(r) plus a newline produces (FuzzAppendResponse holds it
// to that), without the reflection walk — an answer is a thousand ids,
// and strconv.AppendInt is most of what encoding them has to cost.
// Fields appear in Response's declaration order with its omitempty
// rules; lat is always last.
func appendResponse(dst []byte, r *Response) ([]byte, error) {
	var err error
	dst = append(dst, '{')
	if len(r.IDs) > 0 {
		dst = appendInts(append(dst, `"ids":`...), r.IDs)
		dst = append(dst, ',')
	}
	if len(r.Recs) > 0 {
		dst = append(dst, `"recs":[`...)
		for i, row := range r.Recs {
			if i > 0 {
				dst = append(dst, ',')
			}
			if row == nil {
				dst = append(dst, "null"...)
				continue
			}
			dst = append(dst, '[')
			for j, x := range row {
				if j > 0 {
					dst = append(dst, ',')
				}
				if dst, err = appendFloat(dst, x); err != nil {
					return dst, err
				}
			}
			dst = append(dst, ']')
		}
		dst = append(dst, "],"...)
	}
	if len(r.Neighbors) > 0 {
		dst = append(dst, `"neighbors":[`...)
		for i, n := range r.Neighbors {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, `{"id":`...), int64(n.ID), 10)
			if dst, err = appendFloat(append(dst, `,"dist2":`...), n.Dist2); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, "],"...)
	}
	if r.Deleted {
		dst = append(dst, `"deleted":true,`...)
	}
	if r.Degraded {
		dst = append(dst, `"degraded":true,`...)
	}
	if len(r.Missing) > 0 {
		dst = appendInts(append(dst, `"missing":`...), r.Missing)
		dst = append(dst, ',')
	}
	dst = appendNonZero(dst, `"shards_visited":`, r.ShardsVisited)
	dst = appendNonZero(dst, `"shards_pruned":`, r.ShardsPruned)
	dst = appendNonZero(dst, `"batch":`, r.Batch)
	if r.Err != "" {
		// Only non-200/206 replies carry an error string, so its escaping
		// rules stay encoding/json's own rather than a copy of them.
		var s []byte
		if s, err = json.Marshal(r.Err); err != nil {
			return dst, err
		}
		dst = append(append(append(dst, `"error":`...), s...), ',')
	}
	dst = strconv.AppendInt(append(dst, `"lat":{"queue_ns":`...), r.Lat.QueueNs, 10)
	dst = strconv.AppendInt(append(dst, `,"batch_ns":`...), r.Lat.BatchNs, 10)
	dst = strconv.AppendInt(append(dst, `,"run_ns":`...), r.Lat.RunNs, 10)
	dst = strconv.AppendInt(append(dst, `,"total_ns":`...), r.Lat.TotalNs, 10)
	return append(dst, "}}\n"...), nil
}

// appendNonZero appends an omitempty int field, trailing comma included.
func appendNonZero(dst []byte, key string, v int) []byte {
	if v == 0 {
		return dst
	}
	return append(strconv.AppendInt(append(dst, key...), int64(v), 10), ',')
}

func appendInts(dst []byte, xs []int) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// appendFloat formats x as encoding/json does: the shortest digits that
// round-trip, %f form unless the exponent is below -6 or at least 21,
// and then %e with a one-digit negative exponent unpadded (1e-7, not
// 1e-07).
func appendFloat(dst []byte, x float64) ([]byte, error) {
	if !finite(x) {
		return dst, errNonFinite
	}
	abs := math.Abs(x)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(dst, x, 'f', -1, 64), nil
	}
	dst = strconv.AppendFloat(dst, x, 'e', -1, 64)
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}
