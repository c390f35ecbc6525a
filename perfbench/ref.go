package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"xpdl/internal/core"
	"xpdl/internal/energy"
	"xpdl/internal/expr"
	"xpdl/internal/model"
	"xpdl/internal/query"
	"xpdl/internal/rtmodel"
	"xpdl/internal/serve"
	"xpdl/internal/units"
)

// The oracle: expected answers computed in-process from the same
// private model copy through the toolchain and the public query API,
// never through the serve package's handlers.

// refModel is one model resolved in-process.
type refModel struct {
	Ident       string
	System      *model.Component
	Session     *query.Session
	Fingerprint string
}

// toolchainOptions are xpdld's shipped toolchain defaults over dir.
func toolchainOptions(dir string) core.Options {
	return core.Options{SearchPaths: []string{dir}, Seed: 1}
}

func loadRef(dir, ident string) (*refModel, error) {
	tc, err := core.New(toolchainOptions(dir))
	if err != nil {
		return nil, err
	}
	res, err := tc.ProcessContext(context.Background(), ident)
	if err != nil {
		return nil, fmt.Errorf("oracle: load %s: %w", ident, err)
	}
	fp, err := fingerprint(res.Runtime)
	if err != nil {
		return nil, err
	}
	return &refModel{Ident: ident, System: res.System, Session: query.NewSession(res.Runtime), Fingerprint: fp}, nil
}

// fingerprint is the served snapshot fingerprint: the first 32 hex
// digits of the SHA-256 of the model's canonical stream.
func fingerprint(m *rtmodel.Model) (string, error) {
	h := sha256.New()
	if err := m.WriteCanonical(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:32], nil
}

// candidateSelectors are tried on every model; those with no match are
// dropped from its catalog.
var candidateSelectors = []string{
	"//core", "//cache", "//memory", "//device", "//cpu", "//socket", "//node",
	"//interconnect", "//cache[name=L1]", "//cache[name=L2]", "//group", "//power_model",
}

func (m *refModel) catalog() (catalog, error) {
	c := catalog{Model: m.Ident, Table: "e5_isa"}
	seen := map[string]bool{}
	rt := m.Session.Model()
	for i := range rt.Nodes {
		if id := rt.Nodes[i].Ident(); id != "" && !seen[id] {
			seen[id] = true
			c.Idents = append(c.Idents, id)
		}
	}
	sort.Strings(c.Idents)
	for _, sel := range candidateSelectors {
		if els, err := m.Session.Select(sel); err == nil && len(els) > 0 {
			c.Selectors = append(c.Selectors, sel)
		}
	}
	table, err := m.table(c.Table)
	if err != nil {
		return c, err
	}
	for _, name := range table.Names() {
		if _, ok := table.EnergyAt(name, 1.0); !ok {
			continue
		}
		if _, ok := table.EnergyAt(name, 3.3); ok {
			c.Insts = append(c.Insts, name)
		}
	}
	if len(c.Idents) == 0 || len(c.Selectors) == 0 || len(c.Insts) == 0 {
		return c, fmt.Errorf("oracle: %s: empty catalog", m.Ident)
	}
	return c, nil
}

func (m *refModel) table(ident string) (*energy.Table, error) {
	var comp *model.Component
	m.System.Walk(func(c *model.Component) bool {
		if comp == nil && c.Ident() == ident {
			comp = c
		}
		return comp == nil
	})
	if comp == nil || comp.Kind != "instructions" {
		return nil, fmt.Errorf("oracle: %s: no instruction table %q", m.Ident, ident)
	}
	return energy.TableFromComponent(comp)
}

// expect renders the expected answer of r: compact JSON of the typed
// response, or the raw text of the tree export.
func (m *refModel) expect(r *request) ([]byte, error) {
	var v any
	switch r.Kind {
	case "summary":
		root := m.Session.Root()
		installed := m.Session.InstalledList()
		if installed == nil {
			installed = []string{}
		}
		v = serve.SummaryResponse{Cores: root.NumCores(), CUDADevices: root.NumCUDADevices(),
			StaticPowerW: root.TotalStaticPower().Value, Installed: installed}
	case "element":
		e, ok := m.Session.Find(r.Ident)
		if !ok {
			return nil, fmt.Errorf("oracle: %s: no element %q", m.Ident, r.Ident)
		}
		v = elementOf(e)
	case "select", "core-all":
		sel, err := m.selectResp(r.Selector, r.Limit)
		if err != nil {
			return nil, err
		}
		v = sel
	case "eval":
		ev, err := m.eval(r.Expr)
		if err != nil {
			return nil, err
		}
		v = ev
	case "energy":
		table, err := m.table(r.Table)
		if err != nil {
			return nil, err
		}
		e, ok := table.EnergyAt(r.Inst, r.GHz)
		if !ok {
			return nil, fmt.Errorf("oracle: %s: no energy for %s at %g GHz", m.Ident, r.Inst, r.GHz)
		}
		v = serve.EnergyResponse{Table: r.Table, Inst: r.Inst, GHz: r.GHz, EnergyJ: &e}
	case "batch":
		resp := serve.BatchResponse{Results: make([]serve.BatchResult, len(r.Batch.Ops))}
		for i, op := range r.Batch.Ops {
			if op.Op == "eval" {
				ev, err := m.eval(op.Expr)
				if err != nil {
					return nil, err
				}
				resp.Results[i].Eval = &ev
				continue
			}
			sel, err := m.selectResp(op.Selector, op.Limit)
			if err != nil {
				return nil, err
			}
			resp.Results[i].Select = &sel
		}
		v = resp
	case "tree":
		var b bytes.Buffer
		if err := serve.WriteTree(&b, m.Session.Root()); err != nil {
			return nil, err
		}
		return b.Bytes(), nil
	default:
		return nil, fmt.Errorf("oracle: unknown request kind %q", r.Kind)
	}
	return json.Marshal(v)
}

func (m *refModel) selectResp(sel string, limit int) (serve.SelectResponse, error) {
	els, err := m.Session.Select(sel)
	if err != nil {
		return serve.SelectResponse{}, err
	}
	resp := serve.SelectResponse{Count: len(els), Elements: []serve.ElementRef{}}
	if limit > 0 && len(els) > limit {
		els = els[:limit]
	}
	for _, e := range els {
		resp.Elements = append(resp.Elements, serve.ElementRef{Kind: e.Kind(), Ident: e.Ident(), Path: e.Path()})
	}
	return resp, nil
}

func (m *refModel) eval(src string) (serve.EvalResponse, error) {
	v, err := expr.Eval(src, m.Session.Env(nil))
	if err != nil {
		return serve.EvalResponse{}, fmt.Errorf("oracle: eval %q: %w", src, err)
	}
	resp := serve.EvalResponse{Text: v.GoString()}
	switch v.Kind {
	case expr.KindNumber:
		resp.Kind, resp.Num = "number", v.Num
	case expr.KindBool:
		resp.Kind, resp.Bool = "bool", v.Bool
	default:
		resp.Kind, resp.Str = "string", v.Str
	}
	return resp, nil
}

func elementOf(e query.Elem) serve.ElementJSON {
	out := serve.ElementJSON{Kind: e.Kind(), ID: e.ID(), Name: e.Name(), Type: e.TypeName(), Path: e.Path()}
	if attrs := e.Attrs(); len(attrs) > 0 {
		out.Attrs = make(map[string]serve.AttrJSON, len(attrs))
		for _, a := range attrs {
			aj := serve.AttrJSON{Raw: a.Raw}
			switch {
			case a.Flags&rtmodel.FlagUnknown != 0:
				aj.Unknown = true
			case a.HasValue():
				val := a.Value
				aj.Value = &val
				aj.Display = units.Quantity{Value: a.Value, Dim: a.Dim}.String()
				if a.Dim != units.Dimensionless {
					aj.Unit = a.Dim.BaseUnit()
				}
			}
			out.Attrs[a.Name] = aj
		}
	}
	for _, c := range e.Children() {
		out.Children = append(out.Children, serve.ElementRef{Kind: c.Kind(), Ident: c.Ident(), Path: c.Path()})
	}
	return out
}
