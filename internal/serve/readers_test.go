package serve

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xpdl/internal/core"
	"xpdl/internal/energy"
	"xpdl/internal/model"
	"xpdl/internal/rtmodel"
)

// systemModels lists every system model under models/system.
func systemModels(t testing.TB) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(modelsDir(t), "system", "*.xpdl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no system models: %v", err)
	}
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = strings.TrimSuffix(filepath.Base(f), ".xpdl")
	}
	return out
}

// firstComponent is the tree-level lookup the energy and transfer
// handlers used before they moved to the runtime model: the first
// component in preorder carrying ident.
func firstComponent(sys *model.Component, ident string) *model.Component {
	var out *model.Component
	sys.Walk(func(c *model.Component) bool {
		if out == nil && c.Ident() == ident {
			out = c
		}
		return out == nil
	})
	return out
}

// energyProbes returns the frequencies a table is evaluated at: every
// sample, the midpoints between samples, both sides of the sampled
// range, and a fixed 1 GHz probe for sample-free instructions.
func energyProbes(ie *energy.InstEnergy) []float64 {
	probes := []float64{1}
	for i, s := range ie.Samples {
		probes = append(probes, s.GHz, s.GHz/2, s.GHz*2)
		if i > 0 {
			probes = append(probes, (ie.Samples[i-1].GHz+s.GHz)/2)
		}
	}
	return probes
}

// TestRuntimeReadersMatchTree holds the /energy and /transfer readers
// on the runtime model to the composed-tree readers they replaced: for
// every system model, every <instructions> table and every channel or
// interconnect resolves to the same element through Model.Lookup as
// through a preorder tree walk, and parses to the same table or
// transfer cost from the runtime node as from the tree component.
func TestRuntimeReadersMatchTree(t *testing.T) {
	tc, err := core.New(core.Options{SearchPaths: []string{modelsDir(t)}})
	if err != nil {
		t.Fatal(err)
	}
	tables, channels := 0, 0
	for _, m := range systemModels(t) {
		res, err := tc.Process(m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		rt := res.Runtime
		seen := map[string]bool{}
		res.System.Walk(func(c *model.Component) bool {
			id := c.Ident()
			if id == "" || seen[id] {
				return true
			}
			seen[id] = true
			comp := firstComponent(res.System, id)
			node, ok := rt.Lookup(id)
			if !ok || node.Kind != comp.Kind {
				t.Fatalf("%s: %q: tree finds <%s>, runtime lookup finds %v", m, id, comp.Kind, node)
			}
			switch comp.Kind {
			case "instructions":
				tables++
				compareTables(t, m+"/"+id, rt, node, comp)
			case "channel", "interconnect":
				channels++
				want, got := energy.ChannelCost(comp), energy.ChannelCostFromNode(node)
				if got != want {
					t.Fatalf("%s/%s: runtime transfer cost %+v, tree %+v", m, id, got, want)
				}
				for _, p := range [][2]int64{{0, 1}, {4096, 2}, {1 << 30, 0}} {
					gt, ge := got.Cost(p[0], p[1])
					wt, we := want.Cost(p[0], p[1])
					if gt != wt || ge != we {
						t.Fatalf("%s/%s: cost(%d, %d) = %v, %v from runtime, %v, %v from tree",
							m, id, p[0], p[1], gt, ge, wt, we)
					}
				}
			}
			return true
		})
	}
	if tables == 0 || channels == 0 {
		t.Fatalf("corpus exercised %d tables and %d channels; want both", tables, channels)
	}
	t.Logf("compared %d instruction tables and %d channels", tables, channels)
}

// compareTables checks one instruction table parsed from the runtime
// node against the same table parsed from the tree component.
func compareTables(t *testing.T, label string, rt *rtmodel.Model, node *rtmodel.Node, comp *model.Component) {
	t.Helper()
	want, werr := energy.TableFromComponent(comp)
	got, gerr := energy.TableFromNode(rt, node)
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%s: runtime parse error %v, tree parse error %v", label, gerr, werr)
	}
	if werr != nil {
		return
	}
	if got.Name != want.Name || got.DefaultMB != want.DefaultMB {
		t.Fatalf("%s: runtime table %q (mb %q), tree table %q (mb %q)",
			label, got.Name, got.DefaultMB, want.Name, want.DefaultMB)
	}
	if !reflect.DeepEqual(got.Names(), want.Names()) || !reflect.DeepEqual(got.Unknowns(), want.Unknowns()) {
		t.Fatalf("%s: runtime names %v unknowns %v, tree names %v unknowns %v",
			label, got.Names(), got.Unknowns(), want.Names(), want.Unknowns())
	}
	for _, name := range want.Names() {
		wi, _ := want.Inst(name)
		gi, _ := got.Inst(name)
		if !reflect.DeepEqual(gi, wi) {
			t.Fatalf("%s: inst %s: runtime %+v, tree %+v", label, name, gi, wi)
		}
		for _, f := range energyProbes(wi) {
			ge, gok := got.EnergyAt(name, f)
			we, wok := want.EnergyAt(name, f)
			if ge != we || gok != wok {
				t.Fatalf("%s: %s at %g GHz: runtime %v (%v), tree %v (%v)", label, name, f, ge, gok, we, wok)
			}
		}
	}
}
