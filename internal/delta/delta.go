// Package delta implements incremental re-resolution for long-running
// model servers: when descriptors change under a resolved platform
// model, it decides — from descriptor-level diffs mapped through the
// dependency direction of the analysis layer's attribute-grammar
// rollups — whether the change can be applied as an in-place patch of
// the resolved model, and performs that patch on the runtime model
// (ApplyRT), instead of re-running the whole parse → fetch → resolve →
// analyze pipeline.
//
// The contract is strict: a patched model must be indistinguishable
// from a full re-resolution of the same descriptors. Whenever the
// analysis cannot bound the effect of a change — structural edits,
// parameter/constant involvement, derived-type or instance overrides,
// collisions with synthesized attributes — it refuses with a fallback
// reason and the caller runs the full pipeline. The refusal taxonomy:
//
//	structural  elements added/removed/renamed, type references or
//	            attribute presence changed, nested-element edits, or
//	            the descriptor closure itself changed shape
//	params      values that look like parameter/constant references
//	            (substitution could rewrite them), or canonical
//	            content changes the attribute diff cannot see
//	            (params, consts, constraints, properties, reorders)
//	override    a derived type or an instance declaration pins the
//	            changed attribute (or merges from multiple supers /
//	            inline extends make instances unlocatable by type)
//	unbounded   the changed attribute is itself written by a rollup
//	            rule or the bandwidth-downgrade analysis
package delta

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"

	"xpdl/internal/analysis"
	"xpdl/internal/diff"
	"xpdl/internal/model"
	"xpdl/internal/resolve"
	"xpdl/internal/xmlout"
)

// Desc is one captured descriptor: the parsed component plus its
// canonical content hash.
type Desc struct {
	Ident string
	Comp  *model.Component
	Hash  string
}

// Set is the descriptor closure of one system model: every descriptor
// reachable from the root through type= and extends= references, plus
// the referenced identifiers that resolved to no descriptor (leaf type
// tags such as memory technologies or software names, which the
// resolver keeps as plain tags).
type Set struct {
	Root   string
	Descs  map[string]*Desc
	Absent map[string]bool
}

// Fingerprint hashes a descriptor's canonical XML rendering. Unlike
// the attribute-level diff, the canonical form covers params, consts,
// constraints, properties, quantities and child order, so two
// descriptors hash equal exactly when nothing about them changed.
func Fingerprint(c *model.Component) string {
	sum := sha256.Sum256([]byte(xmlout.String(c)))
	return hex.EncodeToString(sum[:])[:32]
}

// Capture loads the descriptor closure of root through load (typically
// a repository's LoadContext). Identifiers that fail to load are
// recorded as absent rather than failing the capture — they are the
// leaf type tags the resolver degrades — except the root itself, whose
// absence is an error.
func Capture(root string, load func(string) (*model.Component, error)) (*Set, error) {
	set := &Set{Root: root, Descs: map[string]*Desc{}, Absent: map[string]bool{}}
	queue := []string{root}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if id == "" || set.Descs[id] != nil || set.Absent[id] {
			continue
		}
		c, err := load(id)
		if err != nil {
			if id == root {
				return nil, err
			}
			set.Absent[id] = true
			continue
		}
		set.Descs[id] = &Desc{Ident: id, Comp: c, Hash: Fingerprint(c)}
		queue = append(queue, refsOf(c)...)
	}
	return set, nil
}

// refsOf collects every type= and extends= reference in the tree.
func refsOf(c *model.Component) []string {
	seen := map[string]bool{}
	var out []string
	c.Walk(func(x *model.Component) bool {
		add := func(id string) {
			if id != "" && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		add(x.Type)
		for _, e := range x.Extends {
			add(e)
		}
		return true
	})
	return out
}

// Outcome classifies what Analyze decided.
type Outcome int

// Analyze outcomes.
const (
	// Unchanged: every descriptor hash matches; nothing to do.
	Unchanged Outcome = iota
	// Patchable: the change is bounded; apply the plan with ApplyRT.
	Patchable
	// Fallback: run the full pipeline; Reason names why.
	Fallback
)

// Patch replaces one attribute value on every resolved instance of one
// meta-type (or on the model root, when Type equals the root system
// identifier). Old is the diff rendering of the value being replaced;
// nodes whose current value renders differently are left alone — they
// were pinned by an override Analyze already ruled out, so a mismatch
// can only mean the node never carried the inherited value.
type Patch struct {
	Type string
	Attr string
	Old  string
	New  model.Attr
}

// Plan is the bounded edit Analyze derived: the attribute patches plus
// which analyses must re-run over the patched model.
type Plan struct {
	Patches       []Patch
	NeedAnnotate  bool // a rollup source changed: re-run analysis.Annotate
	NeedDowngrade bool // max_bandwidth changed: re-run DowngradeBandwidth
}

// Analysis is Analyze's verdict over two descriptor closures.
type Analysis struct {
	Outcome Outcome
	// Reason is the fallback taxon ("structural", "params", "override",
	// "unbounded"); empty unless Outcome is Fallback.
	Reason string
	// Changed lists the descriptors whose hashes differ, sorted.
	Changed []string
	Plan    Plan
}

func fallback(reason string, changed []string) Analysis {
	return Analysis{Outcome: Fallback, Reason: reason, Changed: changed}
}

// Analyze compares two captures of the same system's descriptor
// closure and decides whether the difference is an in-place patch.
// rules are the synthesized-attribute rules in effect (nil selects
// analysis.DefaultRules); they supply the dependency direction — which
// attributes feed rollups (patch + re-annotate) and which are rollup
// outputs (refuse).
func Analyze(oldSet, newSet *Set, rules []analysis.SynthRule) Analysis {
	if rules == nil {
		rules = analysis.DefaultRules()
	}
	if oldSet == nil || newSet == nil || oldSet.Root != newSet.Root ||
		!sameKeys(oldSet.Descs, newSet.Descs) || !sameSet(oldSet.Absent, newSet.Absent) {
		return fallback("structural", nil)
	}
	var changed []string
	for id, od := range oldSet.Descs {
		if newSet.Descs[id].Hash != od.Hash {
			changed = append(changed, id)
		}
	}
	sort.Strings(changed)
	if len(changed) == 0 {
		return Analysis{Outcome: Unchanged}
	}

	targets := analysis.RollupTargets(rules)
	sources := analysis.RollupSources(rules)
	plan := Plan{}
	for _, id := range changed {
		od, nd := oldSet.Descs[id], newSet.Descs[id]
		changes := diff.Diff(od.Comp, nd.Comp)
		rootPath := "/" + segOf(od.Comp)
		if len(changes) == 0 {
			// The canonical content changed but the attribute diff sees
			// nothing: params, consts, constraints, properties, quantity
			// normalization or a pure reorder. None of these are bounded.
			return fallback("params", changed)
		}
		explained := od.Comp.Clone()
		var attrs []string
		for _, ch := range changes {
			if ch.Kind != diff.AttrChanged || ch.Path != rootPath || ch.Attr == "type" {
				return fallback("structural", changed)
			}
			if ch.Old == "<absent>" || ch.New == "<absent>" || ch.Old == "?" || ch.New == "?" {
				return fallback("structural", changed)
			}
			oldA, oldOK := od.Comp.Attrs[ch.Attr]
			newA, newOK := nd.Comp.Attrs[ch.Attr]
			if !oldOK || !newOK {
				return fallback("structural", changed)
			}
			if resolve.IdentLike(oldA.Raw) || resolve.IdentLike(newA.Raw) {
				// Either side could be a parameter/constant reference the
				// resolver substitutes per scope; a descriptor-level patch
				// cannot reproduce that.
				return fallback("params", changed)
			}
			if targets[ch.Attr] || ch.Attr == analysis.BandwidthTarget {
				return fallback("unbounded", changed)
			}
			if sources[ch.Attr] {
				plan.NeedAnnotate = true
			}
			if ch.Attr == analysis.BandwidthSource || ch.Attr == analysis.BandwidthSource+"_unit" {
				plan.NeedDowngrade = true
			}
			explained.SetAttr(ch.Attr, newA)
			attrs = append(attrs, ch.Attr)
		}
		// The attribute edits must explain the entire canonical delta:
		// applying them to the old descriptor must reproduce the new
		// hash. Otherwise something the diff cannot see also changed.
		if Fingerprint(explained) != nd.Hash {
			return fallback("params", changed)
		}
		for _, attr := range attrs {
			affected, reason := affectedTypes(oldSet, id, attr)
			if reason != "" {
				return fallback(reason, changed)
			}
			oldRendered := diff.RenderAttr(od.Comp.Attrs[attr], true)
			newA := nd.Comp.Attrs[attr]
			for _, t := range affected {
				plan.Patches = append(plan.Patches, Patch{Type: t, Attr: attr, Old: oldRendered, New: newA})
			}
		}
	}
	return Analysis{Outcome: Patchable, Changed: changed, Plan: plan}
}

// affectedTypes computes the set of meta-types whose resolved
// instances inherit base's value of attr: base itself plus every
// derived type (root type= or extends= reference, transitively) that
// does not pin the attribute with its own declaration. It refuses
// ("override") when the direction of a merge is ambiguous — another
// supertype also declares the attribute, an instance declaration names
// it on an element of an affected type, or an element reaches an
// affected type through inline extends (such instances lose their type
// tag during flattening and cannot be located in the resolved tree).
func affectedTypes(set *Set, base, attr string) ([]string, string) {
	affected := map[string]bool{base: true}
	for {
		grew := false
		for id, d := range set.Descs {
			if affected[id] {
				continue
			}
			root := d.Comp
			refs := rootRefs(root)
			inherits := false
			for _, r := range refs {
				if affected[r] {
					inherits = true
				}
			}
			if !inherits {
				continue
			}
			if _, pinned := root.Attrs[attr]; pinned {
				// The derived type declares its own value; its instances
				// are insulated from the change.
				continue
			}
			// Another supertype declaring the attribute makes the merge
			// order decide which value wins — too subtle to patch.
			for _, r := range refs {
				if affected[r] {
					continue
				}
				if sd := set.Descs[r]; sd != nil {
					if _, declares := sd.Comp.Attrs[attr]; declares {
						return nil, "override"
					}
				}
			}
			affected[id] = true
			grew = true
		}
		if !grew {
			break
		}
	}
	// Instance declarations: any non-root element of any descriptor
	// that reaches an affected type and declares the attribute itself
	// (its value wins over the inherited one), or reaches it through
	// inline extends (unlocatable after flattening).
	for _, d := range set.Descs {
		conflict := ""
		d.Comp.Walk(func(x *model.Component) bool {
			if x == d.Comp || conflict != "" {
				return conflict == ""
			}
			touches := affected[x.Type]
			viaExtends := false
			for _, e := range x.Extends {
				if affected[e] {
					touches = true
					viaExtends = true
				}
			}
			if !touches {
				return true
			}
			if viaExtends {
				conflict = "override"
				return false
			}
			if _, declares := x.Attrs[attr]; declares {
				conflict = "override"
				return false
			}
			return true
		})
		if conflict != "" {
			return nil, conflict
		}
	}
	out := make([]string, 0, len(affected))
	for id := range affected {
		out = append(out, id)
	}
	sort.Strings(out)
	return out, ""
}

// rootRefs lists the type references of a descriptor's root element.
func rootRefs(c *model.Component) []string {
	var out []string
	if c.Type != "" {
		out = append(out, c.Type)
	}
	out = append(out, c.Extends...)
	return out
}

// segOf is the path segment of one element: its identifier, falling
// back to the kind (matching diff's path construction).
func segOf(c *model.Component) string {
	if id := c.Ident(); id != "" {
		return id
	}
	return c.Kind
}

func sameKeys(a, b map[string]*Desc) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
