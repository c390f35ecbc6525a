package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"xpdl/internal/query"
	"xpdl/internal/rtmodel"
)

// The select appender (selectwire.go) is held byte for byte to the
// reference below: the SelectResponse the handlers built before it,
// rendered by encoding/json (indented, as Server.writeJSON renders)
// and by SelectResponse.encodeTo.

// selectRef builds the reference answer from the session directly.
func selectRef(tb testing.TB, s *query.Session, sel string, limit int) SelectResponse {
	tb.Helper()
	elems, err := s.Select(sel)
	if err != nil {
		tb.Fatalf("select %q: %v", sel, err)
	}
	resp := SelectResponse{Count: len(elems), Elements: []ElementRef{}}
	if limit > 0 && len(elems) > limit {
		elems = elems[:limit]
	}
	for _, e := range elems {
		resp.Elements = append(resp.Elements, refOf(e))
	}
	return resp
}

// selectJSONRef renders resp with encoding/json.
func selectJSONRef(tb testing.TB, resp SelectResponse) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// selectBinRef renders resp as a complete binary envelope.
func selectBinRef(resp SelectResponse) []byte {
	var e rtmodel.Enc
	resp.encodeTo(&e)
	return rtmodel.AppendFrame(rtmodel.AppendWireHeader(nil), frameSelect, e.Buf)
}

// selectCorpus is the candidate selector list of the perfbench query
// workload, plus selectors that match nothing.
var selectCorpus = []string{
	"//core", "//cache", "//memory", "//device", "//cpu", "//socket", "//node",
	"//interconnect", "//cache[name=L1]", "//cache[name=L2]", "//group", "//power_model",
	"//no_such_kind", "//core[7]",
}

// TestSelectAnswerBytes runs the corpus — every system model, every
// selector, limits 0, 1 and 16 — through GET and POST in both
// protocols and compares each answer with the reference bytes.
func TestSelectAnswerBytes(t *testing.T) {
	srv, store := newModelServer(t, Config{})
	for _, m := range parityModels {
		snap, err := store.Get(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		base := "/v1/models/" + m + "/select"
		for _, sel := range selectCorpus {
			for _, limit := range []int{0, 1, 16} {
				ref := selectRef(t, snap.Session, sel, limit)
				want := map[bool][]byte{false: selectJSONRef(t, ref), true: selectBinRef(ref)}
				body, _ := json.Marshal(SelectRequest{Selector: sel, Limit: limit})
				reqs := []struct {
					method, target string
					body           []byte
				}{
					{http.MethodGet, base + "?q=" + url.QueryEscape(sel) + "&limit=" + strconv.Itoa(limit), nil},
					{http.MethodPost, base, body},
				}
				for _, r := range reqs {
					for _, bin := range []bool{false, true} {
						rec := doProto(t, srv, r.method, r.target, r.body, bin)
						if rec.Code != http.StatusOK {
							t.Fatalf("%s %s %s (bin=%v): status %d: %s",
								m, r.method, r.target, bin, rec.Code, rec.Body.String())
						}
						if !bytes.Equal(rec.Body.Bytes(), want[bin]) {
							t.Fatalf("%s %s %s limit %d (bin=%v): answer differs from the reference\ngot:\n%q\nwant:\n%q",
								m, r.method, sel, limit, bin, rec.Body.Bytes(), want[bin])
						}
					}
				}
			}
		}
	}
}

// TestSelectLimitCount pins what a limited select reports: Count is
// the number of matches, the element list stops at the limit.
func TestSelectLimitCount(t *testing.T) {
	srv, store := newModelServer(t, Config{})
	snap, err := store.Get(context.Background(), "XScluster")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := srv.runSelect(nil, snap, "//core", 3)
	if err != nil {
		t.Fatal(err)
	}
	if sel.count != 21544 || len(sel.elems) != 3 || cap(sel.elems) != 21544 {
		t.Fatalf("//core limit 3: count %d, %d elements (cap %d); want 21544, 3 (cap 21544)",
			sel.count, len(sel.elems), cap(sel.elems))
	}
}

// FuzzSelectJSON holds the select appender to the reference on hostile
// kinds, idents and paths: markup characters, control bytes, invalid
// UTF-8, U+2028/U+2029, empty idents (which drop the key and reuse the
// parent's path). Both protocols are written through writeSelection,
// so the presized buffers are exercised by escapes that outgrow them.
func FuzzSelectJSON(f *testing.F) {
	f.Add("core", "c0", "L1")
	f.Add("<kind&>", "id\x00\x1f\x7f", "\xff\xfe")
	f.Add("k", "  ", "a\"b\\c\t\n")
	f.Add("", "", "")
	f.Add("\xc3", "</script>", "\xe2\x80")
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, kind, ident, name string) {
		m := &rtmodel.Model{Nodes: []rtmodel.Node{
			{Kind: "system", ID: name, Parent: -1, Children: []int32{1, 3}},
			{Kind: kind, ID: ident, Name: name, Parent: 0, Children: []int32{2}},
			{Kind: kind, Name: name, Parent: 1},
			{Kind: name, ID: kind + ident, Parent: 0},
		}}
		s := query.NewSession(m)
		elems, err := s.Select("//*")
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int{0, 2} {
			sel := selection{count: len(elems), elems: elems}
			if limit > 0 {
				sel.elems = elems[:limit]
			}
			ref := sel.response()
			for bin, want := range map[bool][]byte{false: selectJSONRef(t, ref), true: selectBinRef(ref)} {
				rec := httptest.NewRecorder()
				srv.writeSelection(rec, bin, sel)
				if !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("kind %q ident %q name %q (bin=%v):\ngot  %q\nwant %q",
						kind, ident, name, bin, rec.Body.Bytes(), want)
				}
			}
		}
	})
}
