package rtmodel

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"xpdl/internal/units"
)

// The JSON export is a debugging and interoperability view of the
// binary runtime file: tools outside this toolchain can consume the
// platform model without implementing the compact format. Each node is
// an object with the fields, in order,
//
//	kind, id, name, type          strings (id/name/type omitted if empty)
//	attrs                         name → "?" | number | {"unit","value"} | raw string
//	properties                    name → {key → value}
//	children                      nested node objects
//
// with empty attrs/properties/children omitted, indented by two spaces
// and terminated by a newline. The bytes are exactly what encoding/json
// produces for that shape (Encoder with SetIndent("", "  ")): map keys
// sorted bytewise with duplicate names resolved last-wins, its float
// formatting, and HTML-safe string escaping. The renderer below appends
// them directly, in one walk over Model.Nodes, without building the
// intermediate maps.

// errExportShape reports child links whose expansion from the root
// visits more nodes than the model holds, as any cycle does. Load
// accepts such files; the export, which nests children by value,
// cannot render them.
var errExportShape = errors.New("rtmodel: export: child links do not form a tree")

// jsonChunk is the size at which WriteJSON flushes its buffer; flushes
// happen at node boundaries, so one write is a little over this.
const jsonChunk = 32 << 10

// AppendJSON appends the JSON export of the model to dst and returns
// the extended buffer. A model that cannot be exported (a NaN or
// infinite attribute value, which JSON cannot represent, or child
// links that expand past Len() nodes) yields an error and dst unchanged.
func (m *Model) AppendJSON(dst []byte) ([]byte, error) {
	if err := m.checkExport(); err != nil {
		return dst, err
	}
	r := newJSONRenderer(m, dst, nil)
	r.export()
	return r.buf, nil
}

// WriteJSON writes the JSON export of the model to w, streaming it
// through a bounded chunk buffer. The model is checked before the
// first write, so an export error writes nothing.
func (m *Model) WriteJSON(w io.Writer) error {
	if err := m.checkExport(); err != nil {
		return err
	}
	r := newJSONRenderer(m, make([]byte, 0, 2*jsonChunk), w)
	r.export()
	r.flush()
	return r.err
}

// checkExport reports why the model cannot be exported, walking the
// nodes the export would render.
func (m *Model) checkExport() error {
	if len(m.Nodes) == 0 {
		return nil
	}
	left := len(m.Nodes)
	return m.checkNode(0, &left)
}

func (m *Model) checkNode(i int32, left *int) error {
	if *left == 0 {
		return errExportShape
	}
	*left--
	n := &m.Nodes[i]
	for j := range n.Attrs {
		a := &n.Attrs[j]
		if a.Flags&FlagUnknown == 0 && a.HasValue() && (math.IsNaN(a.Value) || math.IsInf(a.Value, 0)) {
			return fmt.Errorf("rtmodel: export: node %d attribute %q: unsupported value %v", i, a.Name, a.Value)
		}
	}
	for _, c := range n.Children {
		if err := m.checkNode(c, left); err != nil {
			return err
		}
	}
	return nil
}

// jsonRenderer appends the export to buf. With w set it flushes buf to
// w whenever a node starts past jsonChunk bytes.
type jsonRenderer struct {
	m   *Model
	buf []byte
	w   io.Writer
	err error
	// Render orders (mapOrder) of one node's attributes, properties and
	// property KVs, reused across nodes.
	attrOrd, propOrd, kvOrd []int32
}

func newJSONRenderer(m *Model, buf []byte, w io.Writer) *jsonRenderer {
	const n = 32 // names per map before an order slice regrows
	ord := make([]int32, 3*n)
	return &jsonRenderer{m: m, buf: buf, w: w,
		attrOrd: ord[:0:n], propOrd: ord[n : n : 2*n], kvOrd: ord[2*n : 2*n : 3*n]}
}

func (r *jsonRenderer) flush() {
	if r.err == nil && len(r.buf) > 0 {
		_, r.err = r.w.Write(r.buf)
	}
	r.buf = r.buf[:0]
}

func (r *jsonRenderer) export() {
	if len(r.m.Nodes) == 0 {
		r.buf = append(r.buf, "{}\n"...)
		return
	}
	r.node(0, 0)
	r.buf = append(r.buf, '\n')
}

const spaces = "                                                                "

// newline starts a line indented for nesting level depth.
func (r *jsonRenderer) newline(depth int) {
	r.buf = append(r.buf, '\n')
	for n := 2 * depth; n > 0; {
		k := min(n, len(spaces))
		r.buf = append(r.buf, spaces[:k]...)
		n -= k
	}
}

// key starts a member: the separator from the previous member (unless
// first), the line break, and the quoted name with its colon.
func (r *jsonRenderer) key(first bool, depth int, name string) {
	if !first {
		r.buf = append(r.buf, ',')
	}
	r.newline(depth)
	r.buf = AppendJSONString(r.buf, name)
	r.buf = append(r.buf, ':', ' ')
}

// node renders node i as an object whose members sit at depth+1.
func (r *jsonRenderer) node(i int32, depth int) {
	if r.w != nil && len(r.buf) >= jsonChunk {
		r.flush()
	}
	n := &r.m.Nodes[i]
	in := depth + 1
	r.buf = append(r.buf, '{')
	r.key(true, in, "kind")
	r.buf = AppendJSONString(r.buf, n.Kind)
	for _, f := range [...]struct{ name, v string }{{"id", n.ID}, {"name", n.Name}, {"type", n.Type}} {
		if f.v != "" {
			r.key(false, in, f.name)
			r.buf = AppendJSONString(r.buf, f.v)
		}
	}
	if len(n.Attrs) > 0 {
		r.key(false, in, "attrs")
		r.buf = append(r.buf, '{')
		r.attrOrd = mapOrder(r.attrOrd, n.Attrs, attrName)
		for k, j := range r.attrOrd {
			a := &n.Attrs[j]
			r.key(k == 0, in+1, a.Name)
			switch {
			case a.Flags&FlagUnknown != 0:
				r.buf = append(r.buf, `"?"`...)
			case a.HasValue() && a.Dim == units.Dimensionless:
				r.buf = appendJSONFloat(r.buf, a.Value)
			case a.HasValue():
				r.buf = append(r.buf, '{')
				r.key(true, in+2, "unit")
				r.buf = AppendJSONString(r.buf, a.Dim.BaseUnit())
				r.key(false, in+2, "value")
				r.buf = appendJSONFloat(r.buf, a.Value)
				r.newline(in + 1)
				r.buf = append(r.buf, '}')
			default:
				r.buf = AppendJSONString(r.buf, a.Raw)
			}
		}
		r.newline(in)
		r.buf = append(r.buf, '}')
	}
	if len(n.Props) > 0 {
		r.key(false, in, "properties")
		r.buf = append(r.buf, '{')
		r.propOrd = mapOrder(r.propOrd, n.Props, propName)
		for k, j := range r.propOrd {
			p := &n.Props[j]
			r.key(k == 0, in+1, p.Name)
			if len(p.KVs) == 0 {
				r.buf = append(r.buf, '{', '}')
				continue
			}
			r.buf = append(r.buf, '{')
			r.kvOrd = mapOrder(r.kvOrd, p.KVs, kvKey)
			for k, j := range r.kvOrd {
				r.key(k == 0, in+2, p.KVs[j][0])
				r.buf = AppendJSONString(r.buf, p.KVs[j][1])
			}
			r.newline(in + 1)
			r.buf = append(r.buf, '}')
		}
		r.newline(in)
		r.buf = append(r.buf, '}')
	}
	if len(n.Children) > 0 {
		r.key(false, in, "children")
		r.buf = append(r.buf, '[')
		for k, c := range n.Children {
			if k > 0 {
				r.buf = append(r.buf, ',')
			}
			r.newline(in + 1)
			r.node(c, in+1)
		}
		r.newline(in)
		r.buf = append(r.buf, ']')
	}
	r.newline(depth)
	r.buf = append(r.buf, '}')
}

func attrName(a *Attr) string    { return a.Name }
func propName(p *Prop) string    { return p.Name }
func kvKey(kv *[2]string) string { return kv[0] }

// mapOrder returns, in ord's storage, the indices of items in the
// order encoding/json emits a map built from them by assigning
// items[0], items[1], … in turn: keys ascending bytewise, and of equal
// keys only the last one assigned.
func mapOrder[T any](ord []int32, items []T, key func(*T) string) []int32 {
	ord = ord[:0]
	for i := range items {
		ord = append(ord, int32(i))
	}
	sorted := true
	for i := 1; i < len(items); i++ {
		if key(&items[i-1]) >= key(&items[i]) {
			sorted = false
			break
		}
	}
	if sorted {
		return ord
	}
	slices.SortStableFunc(ord, func(a, b int32) int {
		return strings.Compare(key(&items[a]), key(&items[b]))
	})
	out := ord[:0]
	for k, i := range ord {
		if k+1 < len(ord) && key(&items[ord[k+1]]) == key(&items[i]) {
			continue // a later assignment of the same key wins
		}
		out = append(out, i)
	}
	return out
}

// appendJSONFloat appends f as encoding/json formats a float64: the
// shortest representation, in exponent form below 1e-6 and from 1e21
// on, with a two-digit negative exponent trimmed to one digit. f must
// be finite.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a quoted JSON string escaped the way
// encoding/json escapes with HTML escaping on: quote and backslash,
// the short forms \b \f \n \r \t, other control bytes and < > & as
// \u00XX, U+2028/U+2029 as \u2028/\u2029, and each invalid UTF-8 byte
// as \ufffd.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
