package delta

import (
	"xpdl/internal/analysis"
	"xpdl/internal/diff"
	"xpdl/internal/model"
)

// Apply is the reference implementation ApplyRT is held to: it
// executes a plan against the composed instance tree of the system
// rootIdent the way the tree-level pipeline would. Every node whose
// type tag matches a patch — or the root itself, for patches addressed
// to the root identifier — and whose current value renders as the
// patch's Old gets the new attribute, and the analyses the plan flagged
// re-run over the patched tree. The input is never mutated. It returns
// the patched tree, the paths of the patched elements, and the
// patch-application count.
//
// The returned tree shares every untouched subtree with the input
// (copy-on-write): only nodes some re-run analysis or patch may write
// to — type-matched instances, the kinds the rollup rules annotate,
// interconnects and channels for the bandwidth downgrade — plus their
// ancestors are copied. Both input and output must be treated as
// immutable afterwards.
func Apply(system *model.Component, rootIdent string, plan Plan, rules []analysis.SynthRule) (*model.Component, []string, int) {
	if rules == nil {
		rules = analysis.DefaultRules()
	}
	clone := cowClone(system, rootIdent, plan, rules)
	var changed []string
	n := 0
	var rec func(c *model.Component, path string, isRoot bool)
	rec = func(c *model.Component, path string, isRoot bool) {
		patched := false
		for _, p := range plan.Patches {
			if c.Type != p.Type && !(isRoot && rootIdent == p.Type) {
				continue
			}
			cur, ok := c.Attrs[p.Attr]
			if !ok || diff.RenderAttr(cur, true) != p.Old {
				continue
			}
			c.SetAttr(p.Attr, p.New)
			n++
			patched = true
		}
		if patched {
			changed = append(changed, path)
		}
		for _, ch := range c.Children {
			rec(ch, path+"/"+segOf(ch), false)
		}
	}
	rec(clone, "/"+segOf(clone), true)
	if plan.NeedAnnotate {
		analysis.Annotate(clone, rules)
	}
	if plan.NeedDowngrade {
		analysis.DowngradeBandwidth(clone)
	}
	return clone, changed, n
}

// cowClone builds the copy-on-write tree Apply patches: a node is
// copied exactly when something may write to it — its type matches a
// patch (or it is the root and a patch addresses the root identifier),
// a re-run rollup rule annotates its kind, the bandwidth downgrade may
// clamp it (interconnects and channels) — or a descendant was copied,
// in which case the Children slice must be rebuilt to point at the
// copies. Copied nodes get a fresh Attrs map (the only thing the
// writers mutate); Params, Consts, Constraints and Properties are
// shared, since nothing past resolution touches them.
func cowClone(system *model.Component, rootIdent string, plan Plan, rules []analysis.SynthRule) *model.Component {
	writableKind := map[string]bool{}
	allKinds := false
	if plan.NeedAnnotate {
		for _, r := range rules {
			if len(r.Kinds) == 0 {
				allKinds = true
			}
			for _, k := range r.Kinds {
				writableKind[k] = true
			}
		}
	}
	if plan.NeedDowngrade {
		writableKind["interconnect"] = true
		writableKind["channel"] = true
	}
	patchType := map[string]bool{}
	for _, p := range plan.Patches {
		patchType[p.Type] = true
	}
	var rec func(c *model.Component, isRoot bool) (*model.Component, bool)
	rec = func(c *model.Component, isRoot bool) (*model.Component, bool) {
		writable := isRoot || allKinds || writableKind[c.Kind] || patchType[c.Type]
		var children []*model.Component
		for i, ch := range c.Children {
			nc, copied := rec(ch, false)
			if copied && children == nil {
				children = append(make([]*model.Component, 0, len(c.Children)), c.Children[:i]...)
			}
			if children != nil {
				children = append(children, nc)
			}
		}
		if !writable && children == nil {
			return c, false
		}
		n := *c
		if children != nil {
			n.Children = children
		}
		n.Attrs = make(map[string]model.Attr, len(c.Attrs)+1)
		for k, v := range c.Attrs {
			n.Attrs[k] = v
		}
		return &n, true
	}
	clone, _ := rec(system, true)
	return clone
}
