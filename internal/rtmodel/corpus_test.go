package rtmodel_test

import (
	"bytes"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"xpdl/internal/core"
	"xpdl/internal/rtmodel"
)

// systemModels composes every system model under models/system through
// the toolchain and returns their runtime models by name.
func systemModels(t testing.TB) map[string]*rtmodel.Model {
	t.Helper()
	_, file, _, _ := runtime.Caller(0)
	dir := filepath.Join(filepath.Dir(file), "..", "..", "models")
	files, err := filepath.Glob(filepath.Join(dir, "system", "*.xpdl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no system models under %s (%v)", dir, err)
	}
	tc, err := core.New(core.Options{SearchPaths: []string{dir}})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*rtmodel.Model{}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".xpdl")
		res, err := tc.Process(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = res.Runtime
	}
	return out
}

// TestExportCorpusMatchesReference checks the export of every system
// model in the zoo byte for byte against the encoding/json reference.
func TestExportCorpusMatchesReference(t *testing.T) {
	models := systemModels(t)
	for _, want := range []string{"XScluster", "liu_gpu_server"} {
		if models[want] == nil {
			t.Fatalf("corpus lacks %s", want)
		}
	}
	for name, m := range models {
		var ref, streamed bytes.Buffer
		if err := rtmodel.ReferenceJSON(m, &ref); err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := m.AppendJSON(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.WriteJSON(&streamed); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, ref.Bytes()) || !bytes.Equal(streamed.Bytes(), ref.Bytes()) {
			t.Errorf("%s: export (%d B appended, %d B streamed) differs from the reference (%d B)",
				name, len(got), streamed.Len(), ref.Len())
		}
		t.Logf("%s: %d nodes, %d B export (%.0f B/node)", name, m.Len(), len(got), float64(len(got))/float64(m.Len()))
	}
}

// BenchmarkExportJSON renders the XScluster export (19.5 MB) through
// the presized appender, the streaming writer and the reference.
func BenchmarkExportJSON(b *testing.B) {
	m := systemModels(b)["XScluster"]
	size := 0
	if out, err := m.AppendJSON(nil); err == nil {
		size = len(out)
	}
	b.Run("append-presized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.AppendJSON(make([]byte, 0, size)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write-discard", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := m.WriteJSON(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := rtmodel.ReferenceJSON(m, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}
