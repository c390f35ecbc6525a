package rtmodel

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"xpdl/internal/units"
)

// hostileModel exercises every corner of the export's byte contract:
// HTML-sensitive and control characters, invalid UTF-8, the JavaScript
// line separators, duplicate and unsorted map keys, and the float
// formats at the exponent-notation thresholds.
func hostileModel() *Model {
	return &Model{Nodes: []Node{
		{
			Kind: "sys<>&", ID: "\x00\x01\b\f\n\r\t\x1f\"\\/\x7f", Name: "bad\xff\xfeutf8\xc3", Type: "ls\u2028ps\u2029",
			Parent: -1,
			Attrs: []Attr{
				{Name: "zeta", Raw: "<script>&amp;</script>"},
				{Name: "alpha", Raw: "1e-7", Value: 1e-7, Flags: FlagHasValue},
				{Name: "beta", Raw: "1e21", Value: 1e21, Dim: units.Power, Flags: FlagHasValue},
				{Name: "alpha", Raw: "dup", Value: 123.456, Flags: FlagHasValue},
				{Name: "neg0", Value: math.Copysign(0, -1), Flags: FlagHasValue},
				{Name: "tiny", Value: -5e-324, Dim: units.Time, Flags: FlagHasValue},
				{Name: "huge", Value: math.MaxFloat64, Flags: FlagHasValue},
				{Name: "edge", Value: 1e-6, Dim: units.Frequency, Flags: FlagHasValue},
				{Name: "below21", Value: 999999999999999900000, Flags: FlagHasValue},
				{Name: "odd-dim", Value: 2, Dim: units.Dimension(99), Flags: FlagHasValue},
				{Name: "unk", Raw: "?", Value: 7, Flags: FlagUnknown | FlagHasValue},
				{Name: "", Raw: "empty name"},
				{Name: "\u00e9\u2028", Raw: "\xed\xa0\x80 surrogate"},
			},
			Props: []Prop{
				{Name: "p2", KVs: [][2]string{{"b", "1"}, {"a", "2"}, {"b", "3"}}},
				{Name: "p1"},
				{Name: "p0", KVs: [][2]string{{"k", "<&>"}}},
				{Name: "p2", KVs: [][2]string{{"z", "last wins"}, {"z", "really"}}},
			},
			Children: []int32{1, 2},
		},
		{Kind: "", Parent: 0, Attrs: []Attr{{Name: "x", Raw: "\x00"}}},
		{Kind: "leaf", Name: "n", Parent: 0, Props: []Prop{{Name: "only", KVs: [][2]string{{"", ""}}}}},
	}}
}

// nonFinite returns a model whose deepest node carries v, so a
// streaming renderer would already have output the ancestors.
func nonFinite(v float64) *Model {
	return &Model{Nodes: []Node{
		{Kind: "system", Parent: -1, Children: []int32{1}},
		{Kind: "node", Parent: 0, Attrs: []Attr{{Name: "ok", Value: 1, Flags: FlagHasValue}}, Children: []int32{2}},
		{Kind: "cpu", Parent: 1, Attrs: []Attr{{Name: "bad", Value: v, Dim: units.Power, Flags: FlagHasValue}}},
	}}
}

// countingWriter records how many bytes reached it.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// checkExportMatches renders m through AppendJSON and WriteJSON and
// compares both with the encoding/json reference. When the model
// cannot be exported, both must fail having produced nothing.
func checkExportMatches(t *testing.T, m *Model) {
	t.Helper()
	prefix := []byte("prefix")
	got, appendErr := m.AppendJSON(prefix)
	var cw countingWriter
	var streamed bytes.Buffer
	writeErr := m.WriteJSON(&streamed)
	if appendErr != nil || writeErr != nil {
		if !bytes.Equal(got, prefix) || streamed.Len() != 0 {
			t.Fatalf("failed export wrote bytes: append %q, write %d bytes", got, streamed.Len())
		}
		if err := m.WriteJSON(&cw); err == nil || cw.n != 0 {
			t.Fatalf("WriteJSON on a failing model: err %v, %d bytes written", err, cw.n)
		}
		if (appendErr == nil) != (writeErr == nil) {
			t.Fatalf("AppendJSON err %v, WriteJSON err %v", appendErr, writeErr)
		}
		if errors.Is(appendErr, errExportShape) {
			if expansion(m) <= len(m.Nodes) {
				t.Fatalf("shape error on a model expanding to %d of %d nodes", expansion(m), len(m.Nodes))
			}
			return
		}
		var ref bytes.Buffer
		if err := referenceJSON(m, &ref); err == nil {
			t.Fatalf("export failed (%v) where the reference renders", appendErr)
		}
		return
	}
	if n := expansion(m); n > len(m.Nodes) {
		t.Fatalf("model expanding to %d of %d nodes exported", n, len(m.Nodes))
	}
	var ref bytes.Buffer
	if err := referenceJSON(m, &ref); err != nil {
		t.Fatalf("reference failed (%v) where the export succeeded", err)
	}
	if !bytes.Equal(got[len(prefix):], ref.Bytes()) {
		t.Fatalf("AppendJSON differs from the reference at byte %d:\n got %q\nwant %q",
			diffAt(got[len(prefix):], ref.Bytes()), got[len(prefix):], ref.Bytes())
	}
	if !bytes.Equal(streamed.Bytes(), ref.Bytes()) {
		t.Fatalf("WriteJSON differs from the reference at byte %d", diffAt(streamed.Bytes(), ref.Bytes()))
	}
}

// expansion counts the nodes a nested render of m visits, stopping
// once it exceeds the model size (a cycle would never stop).
func expansion(m *Model) int {
	if len(m.Nodes) == 0 {
		return 0
	}
	n := 0
	stack := []int32{0}
	for len(stack) > 0 && n <= len(m.Nodes) {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n++
		stack = append(stack, m.Nodes[i].Children...)
	}
	return n
}

func diffAt(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func TestExportMatchesReference(t *testing.T) {
	for name, m := range map[string]*Model{
		"sample":  Build(sample()),
		"empty":   {},
		"hostile": hostileModel(),
	} {
		t.Run(name, func(t *testing.T) { checkExportMatches(t, m) })
	}
	out, err := hostileModel().AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"kind": "sys\u003c\u003e\u0026"`, `"\u0000\u0001\b\f\n\r\t\u001f\"\\/` + "\x7f" + `"`,
		`"bad\ufffd\ufffdutf8\ufffd"`, `"ls\u2028ps\u2029"`,
		`"alpha": 123.456`, `"value": 1e+21`, `"neg0": -0`, `"value": 0.000001`, `"below21": 999999999999999900000`,
		`"odd-dim": {` + "\n" + `      "unit": "",`,
		`"p1": {}`, `"z": "really"`,
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("export lacks %s", want)
		}
	}
}

func TestExportRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := nonFinite(v)
		checkExportMatches(t, m)
		if _, err := m.AppendJSON(nil); err == nil {
			t.Errorf("value %v exported", v)
		}
	}
	// An unknown ("?") attribute renders as "?" whatever its value.
	m := nonFinite(math.NaN())
	m.Nodes[2].Attrs[0].Flags |= FlagUnknown
	checkExportMatches(t, m)
}

func TestExportRejectsCyclicChildren(t *testing.T) {
	m := &Model{Nodes: []Node{
		{Kind: "system", Parent: -1, Children: []int32{1}},
		{Kind: "node", Parent: 0, Children: []int32{0}},
	}}
	if _, err := m.AppendJSON(nil); !errors.Is(err, errExportShape) {
		t.Fatalf("cyclic model: err %v", err)
	}
	checkExportMatches(t, m)
	// A shared child that still fits the node count renders, duplicated
	// like the reference renders it.
	shared := &Model{Nodes: []Node{
		{Kind: "system", Parent: -1, Children: []int32{1, 1}},
		{Kind: "node", Parent: 0},
		{Kind: "spare", Parent: 0},
	}}
	checkExportMatches(t, shared)
}

// TestWriteJSONChunks checks that WriteJSON streams: a model whose
// export is many chunks long reaches the writer in bounded writes.
func TestWriteJSONChunks(t *testing.T) {
	m := &Model{Nodes: []Node{{Kind: "system", Parent: -1}}}
	for i := 1; i <= 2000; i++ {
		m.Nodes = append(m.Nodes, Node{Kind: "core", ID: strings.Repeat("c", 40), Parent: 0,
			Attrs: []Attr{{Name: "frequency", Value: 2.4e9, Dim: units.Frequency, Flags: FlagHasValue}}})
		m.Nodes[0].Children = append(m.Nodes[0].Children, int32(i))
	}
	w := &maxWriter{}
	if err := m.WriteJSON(w); err != nil {
		t.Fatal(err)
	}
	if w.writes < 4 || w.max > 2*jsonChunk {
		t.Fatalf("%d bytes in %d writes, largest %d: not streamed in chunks", w.total, w.writes, w.max)
	}
	checkExportMatches(t, m)
}

type maxWriter struct{ writes, max, total int }

func (w *maxWriter) Write(p []byte) (int, error) {
	w.writes++
	w.max = max(w.max, len(p))
	w.total += len(p)
	return len(p), nil
}
