package serve

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newHTTPStack boots server + httptest listener + typed client.
func newHTTPStack(t testing.TB, cfg Config) (*httptest.Server, *Client, *Store) {
	t.Helper()
	srv, store := newModelServer(t, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.HTTP = ts.Client()
	return ts, c, store
}

func TestServerEndpoints(t *testing.T) {
	ts, c, store := newHTTPStack(t, Config{AllowRefresh: true})
	ctx := context.Background()
	const m = "liu_gpu_server"

	t.Run("model info and generation headers", func(t *testing.T) {
		info, err := c.Model(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		if info.Ident != m || info.Generation == 0 || info.Nodes == 0 || info.Fingerprint == "" {
			t.Fatalf("info = %+v", info)
		}
		resp, err := http.Get(ts.URL + "/v1/models/" + m + "/summary")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if g := resp.Header.Get("X-Xpdl-Generation"); g == "" || g == "0" {
			t.Fatalf("X-Xpdl-Generation = %q", g)
		}
		if fp := resp.Header.Get("X-Xpdl-Fingerprint"); fp != info.Fingerprint {
			t.Fatalf("fingerprint header %q != %q", fp, info.Fingerprint)
		}
	})

	t.Run("healthz and models", func(t *testing.T) {
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Status != "ok" || len(h.Resident) == 0 {
			t.Fatalf("health = %+v", h)
		}
		ms, err := c.Models(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms.Models) == 0 || ms.Models[0].Ident != m {
			t.Fatalf("models = %+v", ms)
		}
	})

	t.Run("summary matches the paper's derived analysis", func(t *testing.T) {
		sum, err := c.Summary(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		// 4 host cores + 13 SMX * 192 cores (core_test.go).
		if want := 4 + 13*192; sum.Cores != want {
			t.Fatalf("cores = %d, want %d", sum.Cores, want)
		}
		if sum.CUDADevices != 1 {
			t.Fatalf("cudaDevices = %d, want 1", sum.CUDADevices)
		}
		if sum.StaticPowerW <= 0 {
			t.Fatalf("staticPowerW = %g", sum.StaticPowerW)
		}
		found := false
		for _, pkg := range sum.Installed {
			if strings.HasPrefix(pkg, "CUBLAS") {
				found = true
			}
		}
		if !found {
			t.Fatalf("installed list %v misses CUBLAS", sum.Installed)
		}
	})

	t.Run("element lookup", func(t *testing.T) {
		e, err := c.Element(ctx, m, "gpu1")
		if err != nil {
			t.Fatal(err)
		}
		if e.Kind != "device" || e.ID != "gpu1" {
			t.Fatalf("element = %+v", e)
		}
		if len(e.Children) == 0 {
			t.Fatal("gpu1 has no children in the resolved tree")
		}
	})

	t.Run("selector evaluation", func(t *testing.T) {
		sel, err := c.Select(ctx, m, "//device", 0)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Count < 1 || sel.Elements[0].Kind != "device" {
			t.Fatalf("select //device = %+v", sel)
		}
		limited, err := c.Select(ctx, m, "//core", 3)
		if err != nil {
			t.Fatal(err)
		}
		if limited.Count <= 3 || len(limited.Elements) != 3 {
			t.Fatalf("limited select: count=%d elements=%d", limited.Count, len(limited.Elements))
		}
	})

	t.Run("expression evaluation", func(t *testing.T) {
		v, err := c.Eval(ctx, m, "installed('CUBLAS') && num_cores() >= 4", nil)
		if err != nil {
			t.Fatal(err)
		}
		if v.Kind != "bool" || !v.Bool {
			t.Fatalf("eval = %+v", v)
		}
		withVars, err := c.Eval(ctx, m, "n * 2 + num_cuda_devices()", map[string]any{"n": 10.0})
		if err != nil {
			t.Fatal(err)
		}
		if withVars.Kind != "number" || withVars.Num != 21 {
			t.Fatalf("eval with vars = %+v", withVars)
		}
	})

	t.Run("energy table query", func(t *testing.T) {
		listing, err := c.EnergyTable(ctx, m, "e5_isa")
		if err != nil {
			t.Fatal(err)
		}
		hasDivsd := false
		for _, n := range listing.Instructions {
			if n == "divsd" {
				hasDivsd = true
			}
		}
		if !hasDivsd {
			t.Fatalf("table listing %v misses divsd", listing.Instructions)
		}
		at, err := c.EnergyAt(ctx, m, "e5_isa", "divsd", 3.0)
		if err != nil {
			t.Fatal(err)
		}
		if at.EnergyJ == nil {
			t.Fatal("no energy value")
		}
		// Listing 14: divsd at 3.0 GHz = 19.934 nJ.
		if got := *at.EnergyJ; math.Abs(got-19.934e-9) > 1e-12 {
			t.Fatalf("divsd@3.0GHz = %g J, want 19.934e-9", got)
		}
	})

	t.Run("transfer cost query", func(t *testing.T) {
		tr, err := c.Transfer(ctx, m, "up_link", 1<<20, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tr.BandwidthBps <= 0 || tr.TimeS <= 0 {
			t.Fatalf("transfer = %+v", tr)
		}
	})

	t.Run("composition dispatch", func(t *testing.T) {
		resp, err := c.Dispatch(ctx, m, DispatchRequest{
			Component: "spmv",
			Vars:      map[string]any{"n": 100000.0},
			Variants: []VariantJSON{
				{Name: "cuda", Selectable: "installed('CUBLAS') && num_cuda_devices() >= 1", Cost: "n / 1000"},
				{Name: "cpu", Selectable: "num_cores() >= 1", Cost: "n / 10"},
				{Name: "fpga", Selectable: "has_kind('fpga')", Cost: "1"},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Chosen != "cuda" {
			t.Fatalf("chosen = %q, want cuda (response %+v)", resp.Chosen, resp)
		}
		if len(resp.Selectable) != 2 {
			t.Fatalf("selectable = %v, want [cpu cuda]", resp.Selectable)
		}
	})

	t.Run("tree and json exports", func(t *testing.T) {
		var tree bytes.Buffer
		if err := c.Tree(ctx, m, &tree); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(tree.String(), "system "+m) {
			t.Fatalf("tree starts %q", tree.String()[:40])
		}
		var js bytes.Buffer
		if err := c.JSON(ctx, m, &js); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(js.String(), `"kind"`) {
			t.Fatal("json export misses kind field")
		}
	})

	t.Run("manual refresh is a no-op on unchanged models", func(t *testing.T) {
		before, _ := store.Peek(m)
		r, err := c.Refresh(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		if r.Swapped {
			t.Fatal("unchanged model reported swapped")
		}
		after, _ := store.Peek(m)
		if before != after {
			t.Fatal("refresh replaced an unchanged snapshot")
		}
	})
}

func TestServerClientErrors(t *testing.T) {
	_, c, _ := newHTTPStack(t, Config{})
	ctx := context.Background()
	const m = "myriad_standalone"

	cases := []struct {
		name string
		do   func() error
		want int
	}{
		{"unknown model", func() error {
			_, err := c.Summary(ctx, "no_such_system")
			return err
		}, http.StatusNotFound},
		{"unknown element", func() error {
			_, err := c.Element(ctx, m, "no_such_element")
			return err
		}, http.StatusNotFound},
		{"bad selector", func() error {
			_, err := c.Select(ctx, m, "//cache[", 0)
			return err
		}, http.StatusBadRequest},
		{"oversized selector", func() error {
			_, err := c.Select(ctx, m, "//"+strings.Repeat("x", maxSelectorLen), 0)
			return err
		}, http.StatusBadRequest},
		{"deep selector", func() error {
			_, err := c.Select(ctx, m, strings.Repeat("/a", maxSelectorSegs+1), 0)
			return err
		}, http.StatusBadRequest},
		{"negative limit", func() error {
			_, err := c.Select(ctx, m, "//core", -1)
			return err
		}, http.StatusBadRequest},
		{"absurd limit", func() error {
			_, err := c.Select(ctx, m, "//core", maxSelectLimit+1)
			return err
		}, http.StatusBadRequest},
		{"empty expr", func() error {
			_, err := c.Eval(ctx, m, "", nil)
			return err
		}, http.StatusBadRequest},
		{"malformed expr", func() error {
			_, err := c.Eval(ctx, m, "1 +", nil)
			return err
		}, http.StatusBadRequest},
		{"unknown energy table", func() error {
			_, err := c.EnergyTable(ctx, m, "no_table")
			return err
		}, http.StatusNotFound},
		{"dispatch without variants", func() error {
			_, err := c.Dispatch(ctx, m, DispatchRequest{})
			return err
		}, http.StatusBadRequest},
		{"refresh disabled", func() error {
			_, err := c.Refresh(ctx, m)
			return err
		}, http.StatusNotFound}, // route not mounted without AllowRefresh
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.do()
			if err == nil {
				t.Fatal("expected an error")
			}
			var ae *apiStatusError
			if !errorsAs(err, &ae) {
				t.Fatalf("error %v is not an API status error", err)
			}
			if ae.Status != tc.want {
				t.Fatalf("status = %d, want %d (%v)", ae.Status, tc.want, err)
			}
		})
	}
}

// errorsAs avoids importing errors just for the assertion helper.
func errorsAs(err error, target **apiStatusError) bool {
	for err != nil {
		if ae, ok := err.(*apiStatusError); ok {
			*target = ae
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestServerMalformedJSONBodies(t *testing.T) {
	ts, _, _ := newHTTPStack(t, Config{})
	const m = "myriad_standalone"
	// Warm the model so body errors are the only variable.
	resp, err := http.Get(ts.URL + "/v1/models/" + m + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	bodies := []string{
		``,
		`{`,
		`[]`,
		`{"expr": 42}`,
		`{"expr": "1"} trailing`,
		`{"expr": "1", "vars": {"x": {"nested": true}}}`,
		strings.Repeat("x", 1024),
	}
	for _, body := range bodies {
		for _, path := range []string{"/eval", "/select", "/dispatch"} {
			resp, err := http.Post(ts.URL+"/v1/models/"+m+path, "application/json",
				strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode/100 != 4 {
				t.Fatalf("POST %s with body %q: status %d, want 4xx", path, body, resp.StatusCode)
			}
		}
	}
}

func TestServerMetricsExposition(t *testing.T) {
	ts, c, _ := newHTTPStack(t, Config{})
	ctx := context.Background()
	if _, err := c.Summary(ctx, "myriad_standalone"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"xpdld_summary_seconds_bucket", // per-endpoint latency histogram
		"xpdld_responses_2xx_total",
		"xpdl_serve_model_loads_total", // store metrics from the default registry
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics misses %s:\n%s", want, text[:min(len(text), 800)])
		}
	}
}

func TestServerConcurrencyLimiter(t *testing.T) {
	l := newStubLoader()
	l.delay = 50 * time.Millisecond
	store := NewStore(l, 0)
	srv := NewServer(Config{Store: store, MaxInFlight: 1, RequestTimeout: 10 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// One slow request holds the only slot; a second must be rejected
	// with 503 once its timeout expires.
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/v1/models/slow/summary")
			if err != nil {
				done <- 0
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
	}
	a, b := <-done, <-done
	if !(a == http.StatusServiceUnavailable || b == http.StatusServiceUnavailable) {
		t.Fatalf("no request was shed: %d, %d", a, b)
	}
}

// TestAcceptsBinary is the content-negotiation table: the exact binary
// media type opts in on the fast path; parameters, letter case and
// lists go through the parser; everything else stays classic.
func TestAcceptsBinary(t *testing.T) {
	cases := []struct {
		accept string
		want   bool
	}{
		{"", false},
		{ContentTypeBinary, true},
		{"application/x-xpdl-bin; charset=binary", true},
		{"Application/X-Xpdl-Bin", true},
		{"APPLICATION/X-XPDL-BIN;q=0.5", true},
		{"application/x-xpdl-bin;q=1", true},
		{"application/x-xpdl-bin;q=0", false},
		{"application/x-xpdl-bin;q=0.0", false},
		{"application/json, application/x-xpdl-bin", true},
		{"application/json;q=0.9,  application/x-xpdl-bin;q=0.1", true},
		{"application/json", false},
		{"*/*", false},
		{"application/*", false},
		{"application/x-xpdl-binary", false},
		{"text/plain; note=\"application/x-xpdl-bin\"", false},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		if c.accept != "" {
			req.Header.Set("Accept", c.accept)
		}
		if got := acceptsBinary(req); got != c.want {
			t.Errorf("Accept %q: acceptsBinary %v, want %v", c.accept, got, c.want)
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set("Accept", ContentTypeBinary)
	if got := testing.AllocsPerRun(100, func() { acceptsBinary(req) }); got != 0 {
		t.Fatalf("exact binary Accept: %.1f allocs/op, want 0", got)
	}
}
