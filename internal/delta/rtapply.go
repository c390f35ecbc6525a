package delta

import (
	"xpdl/internal/analysis"
	"xpdl/internal/model"
	"xpdl/internal/rtmodel"
)

// ApplyRT executes a plan directly against the flat runtime model —
// the only representation a served snapshot holds — producing what
// rtmodel.Build over the patched composed tree would: patch every node
// whose type tag matches a patch (or the root, for patches addressed
// to the root identifier) and whose current value still renders as the
// patch's Old, then re-run the flagged analyses at the runtime level
// (both are idempotent, so re-running them on top of the previous
// results is exactly what a full pipeline would compute).
//
// The input model is not mutated: the Nodes slice is copied, and every
// attribute write reallocates that node's Attrs slice first (the node
// structs still share Attrs backing arrays with the input). It returns
// the patched model and the patch-application count.
func ApplyRT(m *rtmodel.Model, rootIdent string, plan Plan, rules []analysis.SynthRule) (*rtmodel.Model, int) {
	if rules == nil {
		rules = analysis.DefaultRules()
	}
	nodes := make([]rtmodel.Node, len(m.Nodes))
	copy(nodes, m.Nodes)
	nm := &rtmodel.Model{Nodes: nodes}
	count := 0
	for i := range nodes {
		n := &nodes[i]
		cowed := false
		for _, p := range plan.Patches {
			if n.Type != p.Type && !(i == 0 && rootIdent == p.Type) {
				continue
			}
			for j := range n.Attrs {
				if n.Attrs[j].Name != p.Attr {
					continue
				}
				// Only replace values that still render as the
				// inherited Old.
				if n.Attrs[j].Render() == p.Old {
					if !cowed {
						n.Attrs = append([]rtmodel.Attr(nil), n.Attrs...)
						cowed = true
					}
					n.Attrs[j] = rtAttrOf(p.Attr, p.New)
					count++
				}
				break
			}
		}
	}
	if plan.NeedAnnotate {
		analysis.AnnotateRT(nm, rules)
	}
	if plan.NeedDowngrade {
		analysis.DowngradeBandwidthRT(nm)
	}
	return nm, count
}

// rtAttrOf converts a descriptor attribute the way rtmodel.Build does.
func rtAttrOf(name string, a model.Attr) rtmodel.Attr {
	ra := rtmodel.Attr{Name: name, Raw: a.Raw, Unit: a.Unit}
	if a.HasQuantity {
		ra.Value = a.Quantity.Value
		ra.Dim = a.Quantity.Dim
		ra.Flags |= rtmodel.FlagHasValue
	}
	if a.Unknown {
		ra.Flags |= rtmodel.FlagUnknown
	}
	return ra
}
