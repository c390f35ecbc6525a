package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"xpdl/internal/serve"
)

func TestPercentileTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, tc := range []struct {
		p    float64
		want float64
		ok   bool
	}{
		{50, 50, true},
		{90, 90, true},  // 10 samples beyond
		{91, 91, false}, // 9 beyond
		{99, 99, false},
	} {
		v, ok := percentile(xs, tc.p)
		if v != tc.want || ok != tc.ok {
			t.Errorf("p%g = %v, %v; want %v, %v", tc.p, v, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(xs[:19], 50); ok {
		t.Error("median of 19 samples has 9 beyond it, want not ok")
	}
	if _, ok := percentile(xs[:20], 50); !ok {
		t.Error("median of 20 samples has 10 beyond it, want ok")
	}
	if _, ok := percentile(nil, 99); ok {
		t.Error("empty input reported ok")
	}
}

// summaryServer answers every request with one summary after an
// optional per-request delay.
func summaryServer(t *testing.T, delay func(n int64) time.Duration) (*httptest.Server, *queryEnv) {
	t.Helper()
	sum := serve.SummaryResponse{Cores: 4, Installed: []string{"CUDA_6.0"}}
	body, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay(n.Add(1)))
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Xpdl-Fingerprint", "fp")
		_, _ = w.Write(body)
	}))
	pool := []request{{Model: "m", Kind: "summary", Method: "GET", Path: modelPath("m", "summary")}}
	q := &queryEnv{t: newTarget(srv.URL), pool: pool, ver: newVerifier(pool, [][]byte{body}, map[string]string{"m": "fp"})}
	return srv, q
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// The first two requests stall 80ms and hold both connections, so
	// the requests due meanwhile are sent late.
	srv, q := summaryServer(t, func(n int64) time.Duration {
		if n <= 2 {
			return 80 * time.Millisecond
		}
		return 0
	})
	defer srv.Close()
	defer q.t.close()
	sched := make([]schedItem, 20)
	samples := q.openLoop(context.Background(), sched, 100, 200*time.Millisecond)
	if len(samples) != 20 {
		t.Fatalf("%d samples, want 20", len(samples))
	}
	lateOnes := 0
	for _, s := range samples {
		if s.err != nil {
			t.Fatal(s.err)
		}
		if s.sent.Before(s.due) || s.done.Before(s.sent) {
			t.Fatalf("sample sent %v before due %v or done before sent", s.sent, s.due)
		}
		// Latency runs from the due time: it includes the lateness.
		if lat, rtt := s.done.Sub(s.due), s.done.Sub(s.sent); lat < rtt {
			t.Fatalf("latency %v shorter than round trip %v", lat, rtt)
		}
		if s.sent.Sub(s.due) > 20*time.Millisecond {
			lateOnes++
		}
	}
	if lateOnes < 3 {
		t.Fatalf("%d requests sent late behind the stall, want at least 3", lateOnes)
	}
	m, c := newMetrics(), &counts{}
	queryResult{open: samples, closedWall: time.Second}.summarize(q.pool, m, c)
	if c.attempted != 20 || c.failed != 0 {
		t.Fatalf("counts %+v", c)
	}
	if m.opP50 <= 0 {
		t.Fatalf("query p50 = %v", m.opP50)
	}
}

func TestVerifierCountsWrongAnswers(t *testing.T) {
	srv, q := summaryServer(t, func(int64) time.Duration { return 0 })
	defer srv.Close()
	defer q.t.close()
	q.ver.expect[0] = []byte(`{"cores":5}`)
	var buf bytes.Buffer
	if s := q.send(context.Background(), schedItem{}, time.Now(), &buf); s.err == nil {
		t.Fatal("wrong answer passed the oracle")
	}
	q.ver.fps["m"] = "other"
	if s := q.send(context.Background(), schedItem{}, time.Now(), &buf); s.err == nil {
		t.Fatal("wrong fingerprint passed the oracle")
	}
}

func testCatalogs() []catalog {
	return []catalog{
		{Model: modelLiu, Idents: []string{"a", "b", "c", "d"}, Selectors: []string{"//core", "//cache"}, Table: "e5_isa", Insts: []string{"divsd", "add"}},
		{Model: modelXS, Idents: []string{"x", "y", "z"}, Selectors: []string{"//node", "//cpu"}, Table: "e5_isa", Insts: []string{"mov"}},
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	inputs := func(seed int64) any {
		pool := genPool(seed, testCatalogs(), 12)
		var edits []edit
		g := newEditGen(seed, []string{"15", "22", "25", "1.5"})
		for i := 0; i < 50; i++ {
			edits = append(edits, g.next())
		}
		return []any{pool, genSchedule(seed, len(pool), 500), edits, genSpecs(seed, sweepSpecs)}
	}
	if !reflect.DeepEqual(inputs(7), inputs(7)) {
		t.Fatal("the same seed gave different inputs")
	}
	a, b := inputs(7).([]any), inputs(8).([]any)
	for i, name := range []string{"query pool", "schedule", "edits", "sweep specs"} {
		if reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("seeds 7 and 8 gave the same %s", name)
		}
	}
}

func TestEditsNeverRewriteTheCurrentValue(t *testing.T) {
	cur := []string{"15", "22", "25", "1.5"}
	g := newEditGen(3, cur)
	for i := 0; i < 1000; i++ {
		e := g.next()
		if e.Value == cur[e.Target] {
			t.Fatalf("edit %d rewrites target %d with its current value %s", i, e.Target, e.Value)
		}
		cur[e.Target] = e.Value
	}
}

func TestScheduleComposition(t *testing.T) {
	sched := genSchedule(1, 22, 10000)
	var coreJSON, coreBin, tree, bin int
	for _, it := range sched {
		switch {
		case it.Entry == 20 && it.Bin:
			coreBin++
		case it.Entry == 20:
			coreJSON++
		case it.Entry == 21:
			tree++
		}
		if it.Bin {
			bin++
		}
	}
	if coreJSON != 200 || coreBin != 200 || tree != 100 {
		t.Errorf("large answers: //core %d JSON + %d binary, tree %d; want 200 + 200, 100", coreJSON, coreBin, tree)
	}
	if bin < 4900 || bin > 5100 {
		t.Errorf("%d binary requests of %d, want about half", bin, len(sched))
	}
}

func TestExportHas(t *testing.T) {
	body := []byte(`{
  "kind": "cpu",
  "type": "Intel_Xeon_E5_2630L",
  "attrs": {
    "static_power": {
      "unit": "W",
      "value": 17.5
    }
  },
  "children": [
    {
      "kind": "core",
      "attrs": {
        "static_power": {
          "value": 3
        }
      }
    }
  ]
}`)
	if !exportHas(body, "Intel_Xeon_E5_2630L", "static_power", "17.5") {
		t.Error("edited value not found")
	}
	if exportHas(body, "Intel_Xeon_E5_2630L", "static_power", "3") {
		t.Error("a child's value was taken for the node's")
	}
	if exportHas(body, "DDR3_4G", "static_power", "17.5") {
		t.Error("found a type that is not in the export")
	}
}

func TestHeapFromMetrics(t *testing.T) {
	mb, err := heapFromMetrics([]byte("# TYPE go_memstats_heap_alloc_bytes gauge\ngo_memstats_heap_alloc_bytes 2.097152e+06\n"))
	if err != nil || mb != 2 {
		t.Fatalf("heap = %v, %v; want 2 MB", mb, err)
	}
}

// TestProcessCPUCountsBusyTime spins this process until its CPU time
// advances by a few clock ticks and checks that no more time passed than
// the spin took.
func TestProcessCPUCountsBusyTime(t *testing.T) {
	c0, err := processCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	x := 0
	for {
		for i := 0; i < 1e6; i++ {
			x += i
		}
		c1, err := processCPU(os.Getpid())
		if err != nil {
			t.Fatal(err)
		}
		if d := c1 - c0; d >= 5*clockTick {
			if wall := time.Since(start); d > wall+2*clockTick {
				t.Fatalf("CPU time grew %v in %v of wall time", d, wall)
			}
			return
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("CPU time did not advance: %v after 10 s of spinning (%d)", c1-c0, x)
		}
	}
}

// treeDigest hashes every file under dir with its relative path.
func treeDigest(t *testing.T, dir string) [32]byte {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		h.Write([]byte(rel))
		h.Write(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestRunLeavesModelsUnchanged runs a short edit workload, which
// rewrites descriptors, and checks that it wrote only its private copy.
func TestRunLeavesModelsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs xpdld")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "xpdld")
	if out, err := exec.Command("go", "build", "-o", bin, "xpdl/cmd/xpdld").CombinedOutput(); err != nil {
		t.Fatalf("build xpdld: %v\n%s", err, out)
	}
	models := filepath.Join(root, "models")
	before := treeDigest(t, models)
	res, err := run(options{workload: "edit", seed: 5, seconds: 0.5, root: root, xpdld: bin})
	if err != nil {
		t.Fatal(err)
	}
	if res.c.attempted == 0 || res.c.failed != 0 || len(res.m.problems) != 0 {
		t.Fatalf("edit run: %d attempted, %d failed, problems %v", res.c.attempted, res.c.failed, res.m.problems)
	}
	if treeDigest(t, models) != before {
		t.Fatal("the run changed the repository's models/")
	}
}
