package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"xpdl/internal/expr"
	"xpdl/internal/model"
	"xpdl/internal/rtmodel"
)

// allocBudget is the checked-in allocation ceiling for the binary
// serving hot paths (testdata/alloc_budget.json). The values carry
// headroom over the measured numbers; a regression that blows through
// them — an encoder that stopped pooling, a response that started
// marshaling per request — fails this test and the CI bench gate.
type allocBudget struct {
	// SelectBinEncode bounds encoding one indexed-select answer into a
	// pooled encoder, framing included. This is the protocol layer
	// alone and must stay at (effectively) zero.
	SelectBinEncode float64 `json:"select_bin_encode"`
	// ServeSelectBin bounds a whole binary /select request through the
	// HTTP stack (mux, tracing, limiter, handler, encode).
	ServeSelectBin float64 `json:"serve_select_bin"`
	// ServeSummaryBin bounds a whole binary /summary request — the
	// pre-serialized path, so it is the floor the stack imposes.
	ServeSummaryBin float64 `json:"serve_summary_bin"`
	// ServeSelectJSON bounds a whole JSON /select request, appended
	// straight into its wire buffer (no encoding/json, no refs slice).
	ServeSelectJSON float64 `json:"serve_select_json"`
	// EvalRootAggregate bounds evaluating a constraint over the root
	// aggregates on XScluster; a platform function that walked the
	// model would allocate per element (~44k).
	EvalRootAggregate float64 `json:"eval_root_aggregate"`
	// ExportRender bounds rendering the XScluster /json export (19.5 MB)
	// into its buffer presized from the previous generation, as a
	// publish does: buffer, renderer and binary header, nothing per node.
	ExportRender float64 `json:"export_render"`
	// SnapshotRetainedMB bounds the live heap, in MiB, held only by the
	// published XScluster snapshot: runtime model, indexes and
	// pre-serialized answers. A composed tree kept next to the runtime
	// model would add ~28 MiB.
	SnapshotRetainedMB float64 `json:"snapshot_retained_mb"`
}

func readAllocBudget(t *testing.T) allocBudget {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "alloc_budget.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b allocBudget
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBinarySelectAllocBudget gates allocations per operation on the
// binary select path against the checked-in budget.
func TestBinarySelectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	budget := readAllocBudget(t)
	srv, store := newModelServer(t, Config{})
	snap, err := store.Get(context.Background(), "myriad_standalone")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.runSelect(nil, snap, "//core", 0)
	if err != nil {
		t.Fatal(err)
	}

	// Protocol layer alone: pooled encoder, encode, frame headers.
	encodeOnce := func() {
		e := getEnc()
		resp.encodeTo(e)
		var hdr [rtmodel.MaxFrameHeader]byte
		n := rtmodel.PutWireHeader(hdr[:])
		_ = rtmodel.PutFrameHeader(hdr[n:], frameSelect, len(e.Buf))
		putEnc(e)
	}
	encodeOnce() // warm the pool and the buffer capacity
	if got := testing.AllocsPerRun(500, encodeOnce); got > budget.SelectBinEncode {
		t.Errorf("binary select encode: %.1f allocs/op, budget %.0f", got, budget.SelectBinEncode)
	}

	// Whole-request paths, harness included.
	request := func(target string) func() {
		return func() {
			req := httptest.NewRequest(http.MethodGet, target, nil)
			req.Header.Set("Accept", ContentTypeBinary)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: status %d", target, rec.Code)
			}
		}
	}
	sel := request("/v1/models/myriad_standalone/select?q=%2F%2Fcore")
	sel()
	if got := testing.AllocsPerRun(200, sel); got > budget.ServeSelectBin {
		t.Errorf("binary select request: %.1f allocs/op, budget %.0f", got, budget.ServeSelectBin)
	}
	sum := request("/v1/models/myriad_standalone/summary")
	sum()
	if got := testing.AllocsPerRun(200, sum); got > budget.ServeSummaryBin {
		t.Errorf("binary summary request: %.1f allocs/op, budget %.0f", got, budget.ServeSummaryBin)
	}
}

// TestJSONSelectAndEvalAllocBudget gates the two query paths that
// answer from per-snapshot state: a JSON select request and a
// platform-function eval.
func TestJSONSelectAndEvalAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	budget := readAllocBudget(t)
	srv, store := newModelServer(t, Config{})
	sel := func() {
		req := httptest.NewRequest(http.MethodGet, "/v1/models/myriad_standalone/select?q=%2F%2Fcore", nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("JSON select: status %d", rec.Code)
		}
	}
	sel()
	if got := testing.AllocsPerRun(200, sel); got > budget.ServeSelectJSON {
		t.Errorf("JSON select request: %.1f allocs/op, budget %.0f", got, budget.ServeSelectJSON)
	}

	snap, err := store.Get(context.Background(), "XScluster")
	if err != nil {
		t.Fatal(err)
	}
	env := snap.Session.Env(nil)
	const src = "installed('CUDA') && num_cores() > 5"
	eval := func() {
		if v, err := expr.Eval(src, env); err != nil || !v.Bool {
			t.Fatalf("eval %s: %v, %v", src, v, err)
		}
	}
	eval()
	if got := testing.AllocsPerRun(200, eval); got > budget.EvalRootAggregate {
		t.Errorf("root-aggregate eval: %.1f allocs/op, budget %.0f", got, budget.EvalRootAggregate)
	}
}

// TestExportRenderAllocBudget gates the publish-time export render of
// the largest zoo model against the checked-in budget.
func TestExportRenderAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	budget := readAllocBudget(t)
	_, store := newModelServer(t, Config{})
	snap, err := store.Get(context.Background(), "XScluster")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.pre.export.body) == 0 {
		t.Fatal("XScluster was published without an export")
	}
	got := testing.AllocsPerRun(3, func() {
		if len(renderExport(snap, snap).body) == 0 {
			t.Fatal("empty export")
		}
	})
	t.Logf("XScluster export render: %.0f allocs/op", got)
	if got > budget.ExportRender {
		t.Errorf("XScluster export render: %.1f allocs/op, budget %.0f", got, budget.ExportRender)
	}
}

// TestRawAnswersShareBody checks that a prepared snapshot holds its
// byte-stream answers once: the binary tree and export keep only an
// envelope header, and header plus body is the complete envelope.
func TestRawAnswersShareBody(t *testing.T) {
	_, store := newModelServer(t, Config{})
	snap, err := store.Get(context.Background(), "liu_gpu_server")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		pe    *preEncoded
		frame rtmodel.FrameType
	}{
		"tree":   {&snap.pre.tree, frameRawTree},
		"export": {&snap.pre.export, frameRawJSON},
	} {
		pe := c.pe
		if !pe.raw || len(pe.bin) > rtmodel.MaxFrameHeader || len(pe.body) == 0 {
			t.Fatalf("%s: raw %v, %d-byte binary form over a %d-byte body", name, pe.raw, len(pe.bin), len(pe.body))
		}
		ft, payload, rest, err := rtmodel.DecodeEnvelope(append(append([]byte(nil), pe.bin...), pe.body...))
		if err != nil || ft != c.frame || len(rest) != 0 || !bytes.Equal(payload, pe.body) {
			t.Fatalf("%s: header + body decodes to frame %d, %d-byte payload, %d trailing, err %v",
				name, ft, len(payload), len(rest), err)
		}
	}
	// The summary stays a complete envelope of its own.
	if snap.pre.summary.raw {
		t.Fatal("summary marked raw")
	}
}

// liveHeap returns the bytes of live heap objects after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSnapshotRetainedBudget gates the heap a published XScluster
// snapshot retains — live heap with the snapshot resident minus live
// heap after it is evicted and dropped, loader and repository cache
// alive throughout — against the checked-in budget.
func TestSnapshotRetainedBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	budget := readAllocBudget(t)
	_, store := newModelServer(t, Config{})
	snap, err := store.Get(context.Background(), "XScluster")
	if err != nil {
		t.Fatal(err)
	}
	nodes := snap.Nodes()
	with := liveHeap()
	runtime.KeepAlive(snap)
	if !store.Evict("XScluster") {
		t.Fatal("XScluster was not resident")
	}
	without := liveHeap()
	retainedMB := (float64(with) - float64(without)) / (1 << 20)
	t.Logf("XScluster snapshot retains %.1f MiB (%d nodes)", retainedMB, nodes)
	if retainedMB > budget.SnapshotRetainedMB {
		t.Errorf("XScluster snapshot retains %.1f MiB, budget %.0f", retainedMB, budget.SnapshotRetainedMB)
	}
}

// TestSnapshotHoldsNoComposedTree walks the Snapshot type graph: the
// only path to a *model.Component is the captured descriptor closure
// (parsed descriptors shared with the repository cache), never a
// composed instance tree.
func TestSnapshotHoldsNoComposedTree(t *testing.T) {
	target := reflect.TypeOf((*model.Component)(nil))
	var paths []string
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if typ == target {
			paths = append(paths, path)
			return
		}
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path)
		case reflect.Map:
			walk(typ.Key(), path+"[key]")
			walk(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(Snapshot{}), "Snapshot")
	if got := strings.Join(paths, ", "); got != "Snapshot.descs.Descs[].Comp" {
		t.Fatalf("paths from Snapshot to *model.Component: %s", got)
	}
}

// TestTreeAnswerExactSize checks that a prepared snapshot holds its
// tree answer in a body with no spare capacity.
func TestTreeAnswerExactSize(t *testing.T) {
	_, store := newModelServer(t, Config{})
	for _, m := range []string{"liu_gpu_server", "XScluster"} {
		snap, err := store.Get(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		body := snap.pre.tree.body
		if len(body) == 0 || cap(body) != len(body) {
			t.Fatalf("%s: tree body len %d, cap %d", m, len(body), cap(body))
		}
		t.Logf("%s: %d-byte tree over %d nodes", m, len(body), snap.Nodes())
	}
}
