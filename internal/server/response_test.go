package server

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzAppendResponse holds appendResponse to its contract: for every
// Response, exactly the bytes of json.Marshal plus a newline (what
// json.Encoder wrote before it), and an error exactly when json.Marshal
// has one (a NaN or ±Inf float). The flag bits choose which optional
// fields are populated and with what row shapes.
func FuzzAppendResponse(f *testing.F) {
	negZero := math.Copysign(0, -1)
	// ids only, the planar_serve shape.
	f.Add([]byte{1, 2, 3, 200}, 0.0, 0.0, 0.0, int64(0), uint8(0), int64(1), int64(7), int64(1), "")
	// 2-d and d-dim rows beside a nil and an empty one; floats on both
	// sides of the 'f'/'e' cutoffs.
	f.Add([]byte{}, 1e-7, 1e21, negZero, int64(0), uint8(0x0f), int64(0), int64(0), int64(0), "")
	f.Add([]byte{9}, 1e-6, 1e20, 5e-324, int64(-1), uint8(0x03), int64(2), int64(0), int64(64), "")
	f.Add([]byte{}, 123456789.125, -0.000001234, 1.7976931348623157e308, int64(3), uint8(0x13), int64(0), int64(0), int64(0), "")
	// neighbours, deleted, degraded with missing shards.
	f.Add([]byte{4, 5, 6, 7}, 0.25, 2.5e-9, 1e100, int64(math.MaxInt64), uint8(0xf0), int64(3), int64(5), int64(16), "")
	// error strings that need escaping: quotes, control bytes, HTML,
	// U+2028, invalid UTF-8.
	f.Add([]byte{}, 0.0, 0.0, 0.0, int64(0), uint8(0), int64(0), int64(0), int64(0), "engine: \"bad\" <op>&\n\t\x00\x1f\u2028\xff\\")
	f.Add([]byte{1}, 0.0, 0.0, 0.0, int64(0), uint8(0), int64(math.MinInt64), int64(-1), int64(1), "shed")
	// what json.Marshal refuses, appendResponse must refuse too.
	f.Add([]byte{}, math.NaN(), 0.0, 0.0, int64(0), uint8(0x01), int64(0), int64(0), int64(0), "")
	f.Add([]byte{}, 0.0, 0.0, math.Inf(1), int64(0), uint8(0x10), int64(0), int64(0), int64(0), "")

	f.Fuzz(func(t *testing.T, ids []byte, x, y, z float64, nb int64, flags uint8, a, b, c int64, errStr string) {
		r := Response{
			ShardsVisited: int(a), ShardsPruned: int(b), Batch: int(c), Err: errStr,
			Deleted: flags&0x20 != 0, Degraded: flags&0x40 != 0,
			Lat: Latency{QueueNs: a, BatchNs: b, RunNs: c, TotalNs: nb},
		}
		for _, id := range ids {
			r.IDs = append(r.IDs, int(int8(id))*int(a|1))
		}
		if flags&0x01 != 0 {
			r.Recs = append(r.Recs, []float64{x, y})
		}
		if flags&0x02 != 0 {
			r.Recs = append(r.Recs, []float64{z, y, x, z, -x})
		}
		if flags&0x04 != 0 {
			r.Recs = append(r.Recs, nil)
		}
		if flags&0x08 != 0 {
			r.Recs = append(r.Recs, []float64{})
		}
		if flags&0x10 != 0 {
			r.Neighbors = append(r.Neighbors, Neighbor{ID: int(nb), Dist2: z}, Neighbor{ID: len(ids), Dist2: x})
		}
		if flags&0x80 != 0 {
			r.Missing = append(r.Missing, r.IDs[:len(r.IDs)/2]...)
		}

		want, wantErr := json.Marshal(&r)
		prefix := []byte("kept:")
		got, err := appendResponse(prefix, &r)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("appendResponse error %v, json.Marshal error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if want = append(append(prefix[:len(prefix):len(prefix)], want...), '\n'); !bytes.Equal(got, want) {
			t.Fatalf("appendResponse\n got %q\nwant %q", got, want)
		}
	})
}
