package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

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
	// ExportRender bounds rendering the XScluster /json export (19.5 MB)
	// into its buffer presized from the previous generation, as a
	// publish does: buffer, renderer and binary header, nothing per node.
	ExportRender float64 `json:"export_render"`
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
		_ = rtmodel.PutFrameHeader(hdr[n:], resp.frame(), len(e.Buf))
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
