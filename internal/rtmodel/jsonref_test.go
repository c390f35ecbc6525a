package rtmodel

import (
	"encoding/json"
	"io"

	"xpdl/internal/units"
)

// jsonNode is the reference JSON projection of one runtime node,
// nested by containment: the export is defined as what encoding/json
// renders for it. WriteJSON and AppendJSON must match referenceJSON
// byte for byte (FuzzExportJSON, TestExportCorpusMatchesReference).
type jsonNode struct {
	Kind     string                       `json:"kind"`
	ID       string                       `json:"id,omitempty"`
	Name     string                       `json:"name,omitempty"`
	Type     string                       `json:"type,omitempty"`
	Attrs    map[string]any               `json:"attrs,omitempty"`
	Props    map[string]map[string]string `json:"properties,omitempty"`
	Children []jsonNode                   `json:"children,omitempty"`
}

// referenceJSON renders the export through encoding/json reflection.
func referenceJSON(m *Model, w io.Writer) error {
	var build func(i int32) jsonNode
	build = func(i int32) jsonNode {
		n := m.Node(i)
		jn := jsonNode{Kind: n.Kind, ID: n.ID, Name: n.Name, Type: n.Type}
		if len(n.Attrs) > 0 {
			jn.Attrs = map[string]any{}
			for _, a := range n.Attrs {
				switch {
				case a.Flags&FlagUnknown != 0:
					jn.Attrs[a.Name] = "?"
				case a.HasValue():
					if a.Dim == units.Dimensionless {
						jn.Attrs[a.Name] = a.Value
					} else {
						jn.Attrs[a.Name] = map[string]any{
							"value": a.Value,
							"unit":  a.Dim.BaseUnit(),
						}
					}
				default:
					jn.Attrs[a.Name] = a.Raw
				}
			}
		}
		if len(n.Props) > 0 {
			jn.Props = map[string]map[string]string{}
			for _, p := range n.Props {
				kv := map[string]string{}
				for _, pair := range p.KVs {
					kv[pair[0]] = pair[1]
				}
				jn.Props[p.Name] = kv
			}
		}
		for _, c := range n.Children {
			jn.Children = append(jn.Children, build(c))
		}
		return jn
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if len(m.Nodes) == 0 {
		return enc.Encode(struct{}{})
	}
	return enc.Encode(build(0))
}
