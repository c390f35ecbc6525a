package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// benchDo drives one request through the in-process mux.
func benchDo(b *testing.B, srv *Server, method, target, body string) {
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s %s: status %d", method, target, rec.Code)
	}
}

// BenchmarkServeSummary measures the hot path of an already-resident
// snapshot: pointer load, LRU touch, derived-analysis roll-up, JSON
// encode.
func BenchmarkServeSummary(b *testing.B) {
	srv, _ := newModelServer(b, Config{})
	benchDo(b, srv, http.MethodGet, "/v1/models/myriad_standalone/summary", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDo(b, srv, http.MethodGet, "/v1/models/myriad_standalone/summary", "")
	}
}

// BenchmarkServeSelect measures selector evaluation over the resident
// snapshot.
func BenchmarkServeSelect(b *testing.B) {
	srv, _ := newModelServer(b, Config{})
	benchDo(b, srv, http.MethodGet, "/v1/models/myriad_standalone/select?q=%2F%2Fcore", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDo(b, srv, http.MethodGet, "/v1/models/myriad_standalone/select?q=%2F%2Fcore", "")
	}
}

// BenchmarkServeEval measures expression evaluation through the full
// request-decode path.
func BenchmarkServeEval(b *testing.B) {
	srv, _ := newModelServer(b, Config{})
	const body = `{"expr": "num_cores() >= 4 && installed('StarPU')"}`
	benchDo(b, srv, http.MethodPost, "/v1/models/myriad_standalone/eval", body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDo(b, srv, http.MethodPost, "/v1/models/myriad_standalone/eval", body)
	}
}

// benchProtoDo drives one request with an optional binary-protocol
// negotiation.
func benchProtoDo(b *testing.B, srv *Server, method, target, body string, bin bool) {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if bin {
		req.Header.Set("Accept", ContentTypeBinary)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s %s: status %d", method, target, rec.Code)
	}
}

// BenchmarkServeBinary measures the binary protocol's serving hot
// paths against the classic JSON ones — the numbers behind the alloc
// budget in testdata/alloc_budget.json and CI's BENCH_6.json gate.
func BenchmarkServeBinary(b *testing.B) {
	srv, _ := newModelServer(b, Config{})
	cases := []struct {
		name, method, target, body string
		bin                        bool
	}{
		{"summary-json", http.MethodGet, "/v1/models/myriad_standalone/summary", "", false},
		{"summary-bin", http.MethodGet, "/v1/models/myriad_standalone/summary", "", true},
		{"select-json", http.MethodGet, "/v1/models/myriad_standalone/select?q=%2F%2Fcore", "", false},
		{"select-bin", http.MethodGet, "/v1/models/myriad_standalone/select?q=%2F%2Fcore", "", true},
		{"element-json", http.MethodGet, "/v1/models/myriad_standalone/element?ident=myriad_standalone", "", false},
		{"element-bin", http.MethodGet, "/v1/models/myriad_standalone/element?ident=myriad_standalone", "", true},
		{"batch-bin", http.MethodPost, "/v1/models/myriad_standalone/batch",
			`{"ops": [{"op": "select", "selector": "//core"}, {"op": "eval", "expr": "num_cores()"}]}`, true},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			benchProtoDo(b, srv, c.method, c.target, c.body, c.bin)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchProtoDo(b, srv, c.method, c.target, c.body, c.bin)
			}
		})
	}
}

// BenchmarkServeLargeQuery measures the XScluster (44,161 nodes)
// answers whose cost once grew with the model: the unlimited //core
// select (21,544 elements) in both protocols, and platform-function
// evals that walked the whole tree before the root aggregates.
func BenchmarkServeLargeQuery(b *testing.B) {
	srv, _ := newModelServer(b, Config{})
	const base = "/v1/models/XScluster/"
	cases := []struct {
		name, method, target, body string
		bin                        bool
	}{
		{"core-json", http.MethodGet, base + "select?q=%2F%2Fcore", "", false},
		{"core-bin", http.MethodGet, base + "select?q=%2F%2Fcore", "", true},
		{"core-limit3-json", http.MethodGet, base + "select?q=%2F%2Fcore&limit=3", "", false},
		{"eval-num_cores", http.MethodPost, base + "eval", `{"expr": "num_cores()"}`, false},
		{"eval-installed-cores", http.MethodPost, base + "eval", `{"expr": "installed('CUDA') && num_cores() > 5"}`, false},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			benchProtoDo(b, srv, c.method, c.target, c.body, c.bin)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchProtoDo(b, srv, c.method, c.target, c.body, c.bin)
			}
		})
	}
}
