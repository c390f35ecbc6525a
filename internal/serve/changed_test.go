package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"xpdl/internal/core"
	"xpdl/internal/delta"
	"xpdl/internal/diff"
	"xpdl/internal/model"
	"xpdl/internal/query"
	"xpdl/internal/rtmodel"
	"xpdl/internal/xmlout"
)

// snapshotOf wraps a composed tree in a bare snapshot over its runtime
// model.
func snapshotOf(sys *model.Component) *Snapshot {
	return &Snapshot{Ident: sys.Ident(), Session: query.NewSession(rtmodel.Build(sys))}
}

// treeSummary is the reference change summary: diff.Diff over the
// composed trees, reduced to the distinct element paths and truncated
// the way changedSummary truncates.
func treeSummary(old, cur *model.Component) []string {
	var paths []string
	seen := map[string]bool{}
	for _, ch := range diff.Diff(old, cur) {
		if !seen[ch.Path] {
			seen[ch.Path] = true
			paths = append(paths, ch.Path)
		}
	}
	if len(paths) <= maxChangedEntries {
		return paths
	}
	return append(paths[:maxChangedEntries:maxChangedEntries],
		fmt.Sprintf("+%d more", len(paths)-maxChangedEntries))
}

// TestChangedSummaryCountsElements pins the overflow count to elements,
// not attribute changes: ten elements with two edited attributes each
// name eight paths and "+2 more".
func TestChangedSummaryCountsElements(t *testing.T) {
	build := func(v string) *model.Component {
		sys := model.New("system")
		sys.ID = "sys"
		for i := 0; i < 10; i++ {
			c := model.New("cpu")
			c.ID = fmt.Sprintf("c%d", i)
			c.SetAttr("a", model.Attr{Raw: "a" + v})
			c.SetAttr("b", model.Attr{Raw: "b" + v})
			sys.Children = append(sys.Children, c)
		}
		return sys
	}
	old, cur := build("1"), build("2")
	got := changedSummary(snapshotOf(old), snapshotOf(cur))
	want := []string{"/sys/c0", "/sys/c1", "/sys/c2", "/sys/c3", "/sys/c4",
		"/sys/c5", "/sys/c6", "/sys/c7", "+2 more"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("summary %q, want %q", got, want)
	}
	if ref := treeSummary(old, cur); !reflect.DeepEqual(got, ref) {
		t.Fatalf("runtime summary %q, tree summary %q", got, ref)
	}
	if got := changedSummary(snapshotOf(old), snapshotOf(build("1"))); len(got) != 0 {
		t.Fatalf("identical models summarized as %q", got)
	}
}

// TestChangedSummaryMatchesTreeDiff holds the runtime-model change
// summary to the tree diff it replaced: for every mutation of a zoo
// model's descriptors, after a full resolve, the summary over the two
// runtime models equals the diff.Diff summary over the two composed
// trees.
func TestChangedSummaryMatchesTreeDiff(t *testing.T) {
	dir := copyModels(t)
	tc, err := core.New(core.Options{SearchPaths: []string{dir}})
	if err != nil {
		t.Fatal(err)
	}
	const system = "liu_gpu_server"
	resolve := func() *core.Result {
		t.Helper()
		tc.Repo.Invalidate()
		res, err := tc.ProcessContext(context.Background(), system)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := resolve()
	baseSnap := &Snapshot{Ident: system, Session: query.NewSession(base.Runtime)}
	changed := 0
	for _, rel := range []string{"cpu/Intel_Xeon_E5_2630L.xpdl", "system/liu_gpu_server.xpdl"} {
		path := filepath.Join(dir, rel)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		muts := delta.Mutations(parseDescriptor(t, path))
		if len(muts) == 0 {
			t.Fatalf("%s: mutation suite is empty", rel)
		}
		for _, mut := range muts {
			if err := os.WriteFile(path, []byte(xmlout.String(mut.Comp)), 0o644); err != nil {
				t.Fatal(err)
			}
			res := resolve()
			cur := &Snapshot{Ident: system, Session: query.NewSession(res.Runtime)}
			got := changedSummary(baseSnap, cur)
			if want := treeSummary(base.System, res.System); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s:%s: runtime summary %q, tree summary %q", rel, mut.Name, got, want)
			}
			if len(got) > 0 {
				changed++
			}
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if changed == 0 {
		t.Fatal("no mutation changed the resolved model")
	}
}
