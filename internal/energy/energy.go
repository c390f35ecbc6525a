// Package energy implements XPDL's hierarchical energy modeling
// (Sections III-C and III-D): per-instruction dynamic energy tables
// (Listing 14), interconnect transfer costs (Listing 3), static power
// breakdowns synthesized over the model tree, and the motherboard
// residual that the paper associates with the enclosing node when
// component-level static powers do not sum to the measured total.
package energy

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"xpdl/internal/model"
	"xpdl/internal/rtmodel"
	"xpdl/internal/units"
)

// Sample is one (frequency GHz, energy J) measurement of an
// instruction's dynamic energy function.
type Sample struct {
	GHz float64
	J   float64
}

// InstEnergy is the dynamic energy model of one instruction: either a
// fixed per-instruction cost, a frequency-dependent sample table, or
// Unknown (the "?" placeholder awaiting microbenchmarking).
type InstEnergy struct {
	Name     string
	Fixed    float64 // J; valid when HasFixed
	HasFixed bool
	Samples  []Sample // sorted by GHz
	MB       string   // microbenchmark reference (inst/@mb)
	Unknown  bool
}

// EnergyAt evaluates the model at frequency f (GHz) with piecewise
// linear interpolation over the samples.
//
// The semantics at the edges are pinned (and shared with TaskEnergy,
// which prices whole instruction mixes through this function):
//
//   - Samples take precedence over a Fixed value; Fixed answers only
//     when no samples exist.
//   - Frequencies outside the sampled range clamp to the nearest
//     endpoint — extrapolation would invent data the measurements do
//     not support.
//   - A single-sample table is a constant function: every frequency
//     returns that sample's energy (the clamp rule from both sides).
//   - A NaN frequency has no defined evaluation point and returns
//     (0, false), never a silent fall-through to the Fixed value.
func (ie *InstEnergy) EnergyAt(fGHz float64) (float64, bool) {
	if math.IsNaN(fGHz) {
		return 0, false
	}
	if len(ie.Samples) > 0 {
		s := ie.Samples
		if fGHz <= s[0].GHz {
			return s[0].J, true
		}
		if fGHz >= s[len(s)-1].GHz {
			return s[len(s)-1].J, true
		}
		for i := 1; i < len(s); i++ {
			if fGHz <= s[i].GHz {
				frac := (fGHz - s[i-1].GHz) / (s[i].GHz - s[i-1].GHz)
				return s[i-1].J + frac*(s[i].J-s[i-1].J), true
			}
		}
	}
	if ie.HasFixed {
		return ie.Fixed, true
	}
	return 0, false
}

// Table is the instruction energy table of one ISA (Listing 14).
type Table struct {
	Name string
	// DefaultMB is the ISA-wide microbenchmark suite (instructions/@mb).
	DefaultMB string
	insts     map[string]*InstEnergy
}

// TableFromComponent parses a resolved <instructions> component
// through TableFromNode over the runtime model of its subtree.
func TableFromComponent(c *model.Component) (*Table, error) {
	if c.Kind != "instructions" {
		return nil, fmt.Errorf("energy: component %s is not <instructions>", c)
	}
	m := rtmodel.Build(c)
	return TableFromNode(m, m.Root())
}

// TableFromNode parses a resolved <instructions> node of a runtime
// model.
func TableFromNode(m *rtmodel.Model, n *rtmodel.Node) (*Table, error) {
	if n.Kind != "instructions" {
		return nil, fmt.Errorf("energy: element %s %q is not <instructions>", n.Kind, n.Ident())
	}
	t := &Table{
		Name:      n.Ident(),
		DefaultMB: rawAttr(n, "mb"),
		insts:     map[string]*InstEnergy{},
	}
	for _, ci := range n.Children {
		in := m.Node(ci)
		if in.Kind != "inst" {
			continue
		}
		ie := &InstEnergy{Name: in.Name, MB: rawAttr(in, "mb")}
		if a, ok := in.Attr("energy"); ok {
			switch {
			case a.Flags&rtmodel.FlagUnknown != 0:
				ie.Unknown = true
			case a.HasValue():
				ie.Fixed = a.Value
				ie.HasFixed = true
			}
		}
		for _, di := range in.Children {
			d := m.Node(di)
			if d.Kind != "data" {
				continue
			}
			f, okF := quantityAttr(d, "frequency")
			e, okE := quantityAttr(d, "energy")
			if !okF || !okE {
				return nil, fmt.Errorf("energy: %s: inst %s has incomplete <data> sample", t.Name, ie.Name)
			}
			ie.Samples = append(ie.Samples, Sample{GHz: f / 1e9, J: e})
		}
		sort.Slice(ie.Samples, func(i, j int) bool { return ie.Samples[i].GHz < ie.Samples[j].GHz })
		if ie.Name == "" {
			return nil, fmt.Errorf("energy: %s: <inst> without name", t.Name)
		}
		if _, dup := t.insts[ie.Name]; dup {
			return nil, fmt.Errorf("energy: %s: duplicate instruction %q", t.Name, ie.Name)
		}
		t.insts[ie.Name] = ie
	}
	if len(t.insts) == 0 {
		return nil, fmt.Errorf("energy: %s declares no instructions", t.Name)
	}
	return t, nil
}

// rawAttr returns the raw text of a node attribute, or "".
func rawAttr(n *rtmodel.Node, name string) string {
	a, _ := n.Attr(name)
	return a.Raw
}

// quantityAttr returns the normalized value of a node attribute that
// carries one.
func quantityAttr(n *rtmodel.Node, name string) (float64, bool) {
	a, ok := n.Attr(name)
	if !ok || !a.HasValue() {
		return 0, false
	}
	return a.Value, true
}

// Inst returns the energy model of one instruction.
func (t *Table) Inst(name string) (*InstEnergy, bool) {
	ie, ok := t.insts[name]
	return ie, ok
}

// Names returns the instruction names in sorted order.
func (t *Table) Names() []string {
	out := make([]string, 0, len(t.insts))
	for k := range t.insts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Unknowns returns the instructions whose energy is still the "?"
// placeholder — the work list for deployment-time microbenchmarking.
func (t *Table) Unknowns() []string {
	var out []string
	for name, ie := range t.insts {
		if ie.Unknown && !ie.HasFixed && len(ie.Samples) == 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// SetSamples installs a measured frequency/energy table for an
// instruction, clearing its Unknown flag. Microbenchmarking may also
// override previously specified values (Section III-C).
func (t *Table) SetSamples(name string, samples []Sample) error {
	ie, ok := t.insts[name]
	if !ok {
		return fmt.Errorf("energy: unknown instruction %q", name)
	}
	cp := append([]Sample(nil), samples...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].GHz < cp[j].GHz })
	ie.Samples = cp
	ie.Unknown = false
	return nil
}

// EnergyAt returns the dynamic energy of one instruction at frequency f
// (GHz).
func (t *Table) EnergyAt(name string, fGHz float64) (float64, bool) {
	ie, ok := t.insts[name]
	if !ok {
		return 0, false
	}
	return ie.EnergyAt(fGHz)
}

// WriteBack fills derived energies into the source <instructions>
// component, replacing "?" placeholders (and overriding existing values
// where samples were measured). Sample tables become <data> children.
func (t *Table) WriteBack(c *model.Component) error {
	if c.Kind != "instructions" {
		return fmt.Errorf("energy: component %s is not <instructions>", c)
	}
	for _, in := range c.ChildrenKind("inst") {
		ie, ok := t.insts[in.Name]
		if !ok || (len(ie.Samples) == 0 && !ie.HasFixed) {
			continue
		}
		if len(ie.Samples) > 0 {
			// Remove stale data children, then emit the measured table.
			var kept []*model.Component
			for _, ch := range in.Children {
				if ch.Kind != "data" {
					kept = append(kept, ch)
				}
			}
			in.Children = kept
			for _, s := range ie.Samples {
				d := model.New("data")
				d.SetQuantity("frequency", units.Quantity{Value: s.GHz * 1e9, Dim: units.Frequency})
				d.SetQuantity("energy", units.Quantity{Value: s.J, Dim: units.Energy})
				in.Children = append(in.Children, d)
			}
			mid := ie.Samples[len(ie.Samples)/2]
			in.SetQuantity("energy", units.Quantity{Value: mid.J, Dim: units.Energy})
		} else {
			in.SetQuantity("energy", units.Quantity{Value: ie.Fixed, Dim: units.Energy})
		}
	}
	return nil
}

// ---- Transfer costs (Listing 3) ----

// TransferCost models one directed interconnect channel: time and energy
// are affine in the transferred bytes and message count.
type TransferCost struct {
	BandwidthBps float64 // bytes per second; 0 = unknown
	TimeOffsetS  float64 // per message
	EnergyPerB   float64 // joules per byte
	EnergyOffJ   float64 // joules per message
}

// ChannelCost extracts the transfer cost model from a resolved
// <channel> (or channel-less <interconnect>) component through
// ChannelCostFromNode.
func ChannelCost(ch *model.Component) TransferCost {
	return ChannelCostFromNode(rtmodel.Build(ch).Root())
}

// ChannelCostFromNode extracts the transfer cost model from a resolved
// <channel> (or channel-less <interconnect>) node of a runtime model.
// effective_bandwidth (set by static analysis) takes precedence over
// max_bandwidth.
func ChannelCostFromNode(n *rtmodel.Node) TransferCost {
	var tc TransferCost
	if v, ok := quantityAttr(n, "effective_bandwidth"); ok {
		tc.BandwidthBps = v
	} else if v, ok := quantityAttr(n, "max_bandwidth"); ok {
		tc.BandwidthBps = v
	}
	tc.TimeOffsetS, _ = quantityAttr(n, "time_offset_per_message")
	tc.EnergyPerB, _ = quantityAttr(n, "energy_per_byte")
	tc.EnergyOffJ, _ = quantityAttr(n, "energy_offset_per_message")
	return tc
}

// Cost returns the (time, energy) of transferring the given payload.
func (tc TransferCost) Cost(bytes, messages int64) (timeS, energyJ float64) {
	if tc.BandwidthBps > 0 {
		timeS = float64(bytes) / tc.BandwidthBps
	}
	timeS += float64(messages) * tc.TimeOffsetS
	energyJ = float64(bytes)*tc.EnergyPerB + float64(messages)*tc.EnergyOffJ
	return timeS, energyJ
}

// ---- Hierarchical static power breakdown ----

// Breakdown is the static power attribution tree: every model component
// with children appears with its own directly-specified power (OwnW)
// and the synthesized subtree total (TotalW).
type Breakdown struct {
	Ident    string
	Kind     string
	OwnW     float64
	TotalW   float64
	Children []*Breakdown
}

// StaticBreakdown computes the static power attribution for a composed
// model tree.
func StaticBreakdown(root *model.Component) *Breakdown {
	var rec func(c *model.Component) *Breakdown
	rec = func(c *model.Component) *Breakdown {
		b := &Breakdown{Ident: c.Ident(), Kind: c.Kind}
		if q, ok := c.QuantityAttr("static_power"); ok {
			b.OwnW = q.Value
		}
		b.TotalW = b.OwnW
		for _, ch := range c.Children {
			cb := rec(ch)
			b.TotalW += cb.TotalW
			b.Children = append(b.Children, cb)
		}
		return b
	}
	return rec(root)
}

// Find locates a breakdown entry by identifier.
func (b *Breakdown) Find(ident string) *Breakdown {
	if b.Ident == ident {
		return b
	}
	for _, c := range b.Children {
		if got := c.Find(ident); got != nil {
			return got
		}
	}
	return nil
}

// String renders an indented attribution tree.
func (b *Breakdown) String() string {
	var sb strings.Builder
	var rec func(x *Breakdown, depth int)
	rec = func(x *Breakdown, depth int) {
		name := x.Ident
		if name == "" {
			name = "<" + x.Kind + ">"
		}
		fmt.Fprintf(&sb, "%s%s: own=%.3gW total=%.3gW\n",
			strings.Repeat("  ", depth), name, x.OwnW, x.TotalW)
		for _, c := range x.Children {
			rec(c, depth+1)
		}
	}
	rec(b, 0)
	return sb.String()
}

// AttributeResidual computes the motherboard/base residual of a node:
// the difference between an externally measured node power and the sum
// of the modeled component powers. Per Section III-A the residual is
// associated with the node itself; it is stored as the attribute
// residual_static_power and returned.
func AttributeResidual(node *model.Component, measuredW float64) float64 {
	modeled := StaticBreakdown(node).TotalW
	residual := measuredW - modeled
	if residual < 0 {
		residual = 0
	}
	node.SetQuantity("residual_static_power", units.Quantity{Value: residual, Dim: units.Power})
	return residual
}

// ---- Task-level estimation ----

// TaskSpec describes one computation for energy estimation: dynamic
// instruction counts, the execution frequency, and an optional data
// transfer over a channel.
type TaskSpec struct {
	InstCounts map[string]int64
	FreqGHz    float64
	// Transfer, when non-nil, adds channel costs.
	Transfer      *TransferCost
	TransferBytes int64
	Messages      int64
	// StaticPowerW integrates static power over the compute time when
	// positive (requires CyclesPerInst to derive time).
	StaticPowerW  float64
	CyclesPerInst map[string]float64
}

// TaskEnergy estimates the total energy of the task against the
// instruction table: dynamic instruction energy + optional static
// residency + optional transfer energy. It fails on instructions with
// still-unknown energy. Per-instruction evaluation goes through
// EnergyAt, so the clamp-at-endpoints and NaN semantics documented
// there apply to the whole mix; accumulation runs in sorted
// instruction order so the floating-point total is reproducible.
func (t *Table) TaskEnergy(spec TaskSpec) (energyJ float64, timeS float64, err error) {
	if len(spec.InstCounts) > 0 && (spec.FreqGHz <= 0 || math.IsNaN(spec.FreqGHz) || math.IsInf(spec.FreqGHz, 0)) {
		return 0, 0, fmt.Errorf("energy: task frequency must be a positive finite GHz value, got %v", spec.FreqGHz)
	}
	names := make([]string, 0, len(spec.InstCounts))
	for name := range spec.InstCounts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := spec.InstCounts[name]
		e, ok := t.EnergyAt(name, spec.FreqGHz)
		if !ok {
			return 0, 0, fmt.Errorf("energy: instruction %q has no energy model (run microbenchmarks first)", name)
		}
		energyJ += float64(n) * e
		if spec.CyclesPerInst != nil && spec.FreqGHz > 0 {
			cpi, ok := spec.CyclesPerInst[name]
			if !ok {
				cpi = 1
			}
			timeS += float64(n) * cpi / (spec.FreqGHz * 1e9)
		}
	}
	if spec.StaticPowerW > 0 {
		energyJ += spec.StaticPowerW * timeS
	}
	if spec.Transfer != nil {
		tt, te := spec.Transfer.Cost(spec.TransferBytes, spec.Messages)
		timeS += tt
		energyJ += te
	}
	return energyJ, timeS, nil
}
