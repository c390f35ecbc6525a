package serve

// Per-request statement-statistics plumbing: the pooled accumulator
// handlers use to report their selector shape, the middleware hook
// that folds each finished request into the qstats digest table, and
// the GET /v1/stats/queries endpoint that exposes the table.

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"xpdl/internal/obs/qstats"
)

// reqAcc carries per-request digest inputs from a handler back to the
// middleware: the compiled selector's shape (select paths) and an
// optional row count for endpoints whose payload does not imply one.
// Instances are pooled; the middleware owns get/put.
type reqAcc struct {
	shape     string
	shapeHash uint64
	rows      int64
}

type accCtxKey struct{}

var accPool = sync.Pool{New: func() any { return new(reqAcc) }}

func getAcc() *reqAcc {
	a := accPool.Get().(*reqAcc)
	*a = reqAcc{}
	return a
}

func putAcc(a *reqAcc) { accPool.Put(a) }

// accFrom returns the request's accumulator, nil when stats are off
// (or the endpoint is excluded) — callers must tolerate nil.
func accFrom(ctx context.Context) *reqAcc {
	a, _ := ctx.Value(accCtxKey{}).(*reqAcc)
	return a
}

func protoName(bin bool) string {
	if bin {
		return "bin"
	}
	return "json"
}

// recordStats folds one finished request into the digest table. The
// generation is read back from the X-Xpdl-Generation response header
// (stamped by snapshot()), so stats survive hot swaps and still name
// the generation that answered last.
func (s *Server) recordStats(r *http.Request, name string, bin bool, acc *reqAcc,
	sw *statusWriter, traceID string, dur time.Duration, payload any, allocs int64) {
	rows := acc.rows
	if rows == 0 {
		rows = rowsOf(payload)
	}
	gen := int64(0)
	if g := sw.Header().Get("X-Xpdl-Generation"); g != "" {
		if v, err := strconv.ParseUint(g, 10, 63); err == nil {
			gen = int64(v)
		}
	}
	reqBytes := r.ContentLength
	if reqBytes < 0 {
		reqBytes = 0
	}
	s.qstats.Record(qstats.Key{
		Endpoint:  name,
		Model:     r.PathValue("model"),
		Shape:     acc.shape,
		ShapeHash: acc.shapeHash,
		Proto:     protoName(bin),
	}, qstats.Sample{
		Latency:    dur,
		Rows:       rows,
		ReqBytes:   reqBytes,
		RespBytes:  sw.bytes,
		Err:        sw.status >= 400,
		Generation: gen,
		TraceID:    traceID,
		Allocs:     allocs,
	})
}

// rowsOf derives the "rows returned" figure from a handler payload.
func rowsOf(payload any) int64 {
	switch p := payload.(type) {
	case selection:
		return int64(p.count)
	case EvalResponse:
		return 1
	case BatchResponse:
		return int64(len(p.Results))
	case ModelsResponse:
		return int64(len(p.Models))
	case JobsResponse:
		return int64(len(p.Jobs))
	}
	return 0
}

// statSortKeys names the orderings ?sort= accepts.
var statSortKeys = map[string]func(a, b *QueryStatRow) bool{
	"calls":   func(a, b *QueryStatRow) bool { return a.Calls > b.Calls },
	"latency": func(a, b *QueryStatRow) bool { return a.LatencySumS > b.LatencySumS },
	"p99":     func(a, b *QueryStatRow) bool { return a.P99S > b.P99S },
	"bytes": func(a, b *QueryStatRow) bool {
		return a.ReqBytes+a.RespBytes > b.ReqBytes+b.RespBytes
	},
	"errors": func(a, b *QueryStatRow) bool { return a.Errors > b.Errors },
	"rows":   func(a, b *QueryStatRow) bool { return a.Rows > b.Rows },
	"recent": func(a, b *QueryStatRow) bool { return a.LastSeen.After(b.LastSeen) },
}

// handleQueryStats serves the digest table: sortable (?sort=),
// limitable (?limit=) and filterable by model (?model=). The endpoint
// itself is excluded from recording, so polling it never perturbs
// what it measures.
func (s *Server) handleQueryStats(w http.ResponseWriter, r *http.Request) (any, error) {
	if s.qstats == nil {
		return nil, notFound("query statistics disabled (Config.QueryStatsOff)")
	}
	q := r.URL.Query()
	sortKey := q.Get("sort")
	if sortKey == "" {
		sortKey = "calls"
	}
	less, ok := statSortKeys[sortKey]
	if !ok {
		return nil, badRequest("unknown sort %q (want calls, latency, p99, bytes, errors, rows or recent)", sortKey)
	}
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			return nil, badRequest("limit must be a non-negative integer")
		}
		limit = v
	}
	model := q.Get("model")

	rows := s.qstats.Rows()
	out := make([]QueryStatRow, 0, len(rows))
	for i := range rows {
		if model != "" && rows[i].Model != model {
			continue
		}
		out = append(out, statRowOf(&rows[i]))
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if less(a, b) != less(b, a) {
			return less(a, b)
		}
		// Deterministic tiebreak so identical runs render identically.
		if a.Endpoint != b.Endpoint {
			return a.Endpoint < b.Endpoint
		}
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.Shape != b.Shape {
			return a.Shape < b.Shape
		}
		return a.Proto < b.Proto
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}

	resp := QueryStatsResponse{
		BucketBounds: s.qstats.BucketBounds(),
		Digests:      s.qstats.Len(),
		Recorded:     s.qstats.Recorded(),
		Evicted:      s.qstats.Evicted(),
		Rows:         out,
		Slow:         []SlowQueryJSON{},
	}
	for _, e := range s.qstats.Slowest() {
		if model != "" && e.Model != model {
			continue
		}
		resp.Slow = append(resp.Slow, SlowQueryJSON{
			LatencyMS: float64(e.LatencyNS) / 1e6,
			Endpoint:  e.Endpoint,
			Model:     e.Model,
			Shape:     e.Shape,
			Proto:     e.Proto,
			TraceID:   e.TraceID,
			Error:     e.Err,
			At:        time.Unix(0, e.AtNS).UTC(),
		})
	}
	return resp, nil
}

func statRowOf(r *qstats.Row) QueryStatRow {
	return QueryStatRow{
		Endpoint:     r.Endpoint,
		Model:        r.Model,
		Shape:        r.Shape,
		Proto:        r.Proto,
		Calls:        r.Calls,
		Errors:       r.Errors,
		Rows:         r.Rows,
		ReqBytes:     r.ReqBytes,
		RespBytes:    r.RespBytes,
		LatencySumS:  r.LatencySum,
		P50S:         r.P50,
		P99S:         r.P99,
		BucketCounts: r.BucketCounts,
		AllocSamples: r.AllocSamples,
		AllocObjects: r.AllocObjects,
		LastGen:      r.LastGen,
		FirstSeen:    r.FirstSeen.UTC(),
		LastSeen:     r.LastSeen.UTC(),
	}
}
