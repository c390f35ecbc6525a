// Package rtmodel implements the light-weight run-time data structure
// of Section IV: the XPDL processing tool composes and analyzes the full
// model, then writes a compact, string-interned binary representation to
// a file; application startup code loads that file via the runtime query
// API (internal/query) to introspect its execution platform.
//
// The format is designed for cheap, allocation-light loading: one string
// table plus flat node records with child indices. Nodes are stored in
// preorder, the root at index 0.
package rtmodel

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"xpdl/internal/model"
	"xpdl/internal/units"
)

// Magic and version identify the file format.
const (
	Magic   = "XPDLRT"
	Version = 1
)

// AttrFlags mark properties of a stored attribute.
type AttrFlags uint8

// Attribute flags.
const (
	FlagHasValue AttrFlags = 1 << iota // numeric value present
	FlagUnknown                        // "?" placeholder survived filtering
)

// Attr is one attribute of a runtime node.
type Attr struct {
	Name  string
	Raw   string
	Unit  string
	Value float64 // normalized to base units when HasValue
	Dim   units.Dimension
	Flags AttrFlags
}

// HasValue reports whether the attribute carries a normalized numeric
// value.
func (a Attr) HasValue() bool { return a.Flags&FlagHasValue != 0 }

// Render is the comparison rendering of the attribute's value: "?" for
// unknowns, the normalized quantity when one was parsed, the raw text
// otherwise. It mirrors diff.RenderAttr(a, true) for the component
// attribute Build converted, byte for byte, so runtime-level patches
// and diffs match the tree-level renderings.
func (a Attr) Render() string {
	if a.Flags&FlagUnknown != 0 {
		return "?"
	}
	if a.HasValue() {
		return units.Quantity{Value: a.Value, Dim: a.Dim}.String()
	}
	return a.Raw
}

// Prop is one free-form key-value pair from a <properties> block.
type Prop struct {
	Name string
	KVs  [][2]string // attribute pairs, sorted by key
}

// Get returns the value for a property attribute key.
func (p Prop) Get(key string) (string, bool) {
	for _, kv := range p.KVs {
		if kv[0] == key {
			return kv[1], true
		}
	}
	return "", false
}

// Node is one model element in the runtime representation.
type Node struct {
	Kind     string
	Name     string
	ID       string
	Type     string
	Attrs    []Attr
	Props    []Prop
	Parent   int32 // -1 for the root
	Children []int32
}

// Ident returns the node identifier: ID if set, else Name.
func (n *Node) Ident() string {
	if n.ID != "" {
		return n.ID
	}
	return n.Name
}

// Attr returns the named attribute.
func (n *Node) Attr(name string) (Attr, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return Attr{}, false
}

// Model is the complete runtime model.
type Model struct {
	Nodes []Node
	// index maps identifiers to the first node carrying them.
	index map[string]int32
}

// Root returns the root node index (always 0 for non-empty models).
func (m *Model) Root() *Node {
	if len(m.Nodes) == 0 {
		return nil
	}
	return &m.Nodes[0]
}

// Node returns the node at index i.
func (m *Model) Node(i int32) *Node { return &m.Nodes[i] }

// Len returns the number of nodes.
func (m *Model) Len() int { return len(m.Nodes) }

// Lookup finds a node by identifier (first occurrence in preorder).
func (m *Model) Lookup(ident string) (*Node, bool) {
	if m.index == nil {
		m.buildIndex()
	}
	i, ok := m.index[ident]
	if !ok {
		return nil, false
	}
	return &m.Nodes[i], true
}

// LookupIndex finds a node's preorder index by identifier — the same
// map lookup as Lookup without the follow-up linear IndexOf scan that
// a caller holding only the *Node would need.
func (m *Model) LookupIndex(ident string) (int32, bool) {
	if m.index == nil {
		m.buildIndex()
	}
	i, ok := m.index[ident]
	return i, ok
}

func (m *Model) buildIndex() {
	m.index = make(map[string]int32, len(m.Nodes))
	for i := range m.Nodes {
		id := m.Nodes[i].Ident()
		if id == "" {
			continue
		}
		if _, dup := m.index[id]; !dup {
			m.index[id] = int32(i)
		}
	}
}

// IndexOf returns the index of a node obtained from this model.
func (m *Model) IndexOf(n *Node) int32 {
	for i := range m.Nodes {
		if &m.Nodes[i] == n {
			return int32(i)
		}
	}
	return -1
}

// Build converts a composed component tree into the runtime
// representation.
func Build(root *model.Component) *Model {
	m := &Model{}
	var rec func(c *model.Component, parent int32) int32
	rec = func(c *model.Component, parent int32) int32 {
		idx := int32(len(m.Nodes))
		n := Node{
			Kind: c.Kind, Name: c.Name, ID: c.ID, Type: c.Type,
			Parent: parent,
		}
		names := make([]string, 0, len(c.Attrs))
		for k := range c.Attrs {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			a := c.Attrs[k]
			ra := Attr{Name: k, Raw: a.Raw, Unit: a.Unit}
			if a.HasQuantity {
				ra.Value = a.Quantity.Value
				ra.Dim = a.Quantity.Dim
				ra.Flags |= FlagHasValue
			}
			if a.Unknown {
				ra.Flags |= FlagUnknown
			}
			n.Attrs = append(n.Attrs, ra)
		}
		for _, p := range c.Properties {
			rp := Prop{Name: p.Name}
			keys := make([]string, 0, len(p.Attrs))
			for k := range p.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				rp.KVs = append(rp.KVs, [2]string{k, p.Attrs[k]})
			}
			n.Props = append(n.Props, rp)
		}
		m.Nodes = append(m.Nodes, n)
		for _, ch := range c.Children {
			ci := rec(ch, idx)
			m.Nodes[idx].Children = append(m.Nodes[idx].Children, ci)
		}
		return idx
	}
	rec(root, -1)
	return m
}

// ---- Serialization ----

type writer struct {
	w       *bufio.Writer
	strings map[string]uint64
	table   []string
}

func (w *writer) intern(s string) uint64 {
	if id, ok := w.strings[s]; ok {
		return id
	}
	id := uint64(len(w.table))
	w.strings[s] = id
	w.table = append(w.table, s)
	return id
}

func putUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

// Save writes the model in the compact binary format.
func (m *Model) Save(out io.Writer) error {
	bw := &writer{w: bufio.NewWriter(out), strings: map[string]uint64{}}
	// Intern every string first so the table can be written up front.
	type encNode struct {
		kind, name, id, typ uint64
		attrs               [][5]uint64 // name, raw, unit, dim, flags
		vals                []float64   // parallel to attrs (NaN when absent)
		props               []encProp
		parent              int64
		children            []uint64
	}
	var encProps func(ps []Prop) []encProp
	nodes := make([]encNode, len(m.Nodes))
	encProps = func(ps []Prop) []encProp {
		out := make([]encProp, len(ps))
		for i, p := range ps {
			ep := encProp{name: bw.intern(p.Name)}
			for _, kv := range p.KVs {
				ep.kvs = append(ep.kvs, [2]uint64{bw.intern(kv[0]), bw.intern(kv[1])})
			}
			out[i] = ep
		}
		return out
	}
	for i, n := range m.Nodes {
		en := encNode{
			kind: bw.intern(n.Kind), name: bw.intern(n.Name),
			id: bw.intern(n.ID), typ: bw.intern(n.Type),
			parent: int64(n.Parent),
		}
		for _, a := range n.Attrs {
			en.attrs = append(en.attrs, [5]uint64{
				bw.intern(a.Name), bw.intern(a.Raw), bw.intern(a.Unit),
				uint64(a.Dim), uint64(a.Flags),
			})
			en.vals = append(en.vals, a.Value)
		}
		en.props = encProps(n.Props)
		for _, c := range n.Children {
			en.children = append(en.children, uint64(c))
		}
		nodes[i] = en
	}

	// Header.
	if _, err := bw.w.WriteString(Magic); err != nil {
		return err
	}
	putUvarint(bw.w, Version)
	// String table.
	putUvarint(bw.w, uint64(len(bw.table)))
	for _, s := range bw.table {
		putUvarint(bw.w, uint64(len(s)))
		bw.w.WriteString(s)
	}
	// Nodes.
	putUvarint(bw.w, uint64(len(nodes)))
	for _, en := range nodes {
		putUvarint(bw.w, en.kind)
		putUvarint(bw.w, en.name)
		putUvarint(bw.w, en.id)
		putUvarint(bw.w, en.typ)
		// Parent as zig-zag varint (root is -1).
		var pbuf [binary.MaxVarintLen64]byte
		pn := binary.PutVarint(pbuf[:], en.parent)
		bw.w.Write(pbuf[:pn])
		putUvarint(bw.w, uint64(len(en.attrs)))
		for i, a := range en.attrs {
			for _, v := range a {
				putUvarint(bw.w, v)
			}
			var fbuf [8]byte
			binary.LittleEndian.PutUint64(fbuf[:], math.Float64bits(en.vals[i]))
			bw.w.Write(fbuf[:])
		}
		putUvarint(bw.w, uint64(len(en.props)))
		for _, p := range en.props {
			putUvarint(bw.w, p.name)
			putUvarint(bw.w, uint64(len(p.kvs)))
			for _, kv := range p.kvs {
				putUvarint(bw.w, kv[0])
				putUvarint(bw.w, kv[1])
			}
		}
		putUvarint(bw.w, uint64(len(en.children)))
		for _, c := range en.children {
			putUvarint(bw.w, c)
		}
	}
	return bw.w.Flush()
}

type encProp struct {
	name uint64
	kvs  [][2]uint64
}

// canonWriter batches the canonical content stream into an append
// buffer, flushing to the underlying writer in large chunks — hashing
// 44k nodes one tiny Write at a time is what made fingerprinting cost
// as much as a file save.
type canonWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (c *canonWriter) flush(force bool) {
	if c.err != nil || (!force && len(c.buf) < 32<<10) {
		return
	}
	if len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
		c.buf = c.buf[:0]
	}
}

func (c *canonWriter) uvarint(v uint64) {
	c.buf = binary.AppendUvarint(c.buf, v)
}

func (c *canonWriter) str(s string) {
	c.buf = binary.AppendUvarint(c.buf, uint64(len(s)))
	c.buf = append(c.buf, s...)
	c.flush(false)
}

// WriteCanonical writes a deterministic, injective rendering of the
// model's full content — every field Save persists, in the same order,
// but without the string-interning pass, so it streams in one cheap
// walk. Content hashing (snapshot fingerprints) uses this: two models
// write equal canonical streams exactly when Equal reports them equal.
func (m *Model) WriteCanonical(out io.Writer) error {
	c := &canonWriter{w: out, buf: make([]byte, 0, 64<<10)}
	c.str(Magic)
	c.uvarint(uint64(len(m.Nodes)))
	for i := range m.Nodes {
		n := &m.Nodes[i]
		c.str(n.Kind)
		c.str(n.Name)
		c.str(n.ID)
		c.str(n.Type)
		c.buf = binary.AppendVarint(c.buf, int64(n.Parent))
		c.uvarint(uint64(len(n.Attrs)))
		for j := range n.Attrs {
			a := &n.Attrs[j]
			c.str(a.Name)
			c.str(a.Raw)
			c.str(a.Unit)
			c.uvarint(uint64(a.Dim))
			c.uvarint(uint64(a.Flags))
			c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(a.Value))
		}
		c.uvarint(uint64(len(n.Props)))
		for j := range n.Props {
			p := &n.Props[j]
			c.str(p.Name)
			c.uvarint(uint64(len(p.KVs)))
			for _, kv := range p.KVs {
				c.str(kv[0])
				c.str(kv[1])
			}
		}
		c.uvarint(uint64(len(n.Children)))
		for _, ch := range n.Children {
			c.uvarint(uint64(ch))
		}
		c.flush(false)
	}
	c.flush(true)
	return c.err
}

// SaveFile writes the model to a file path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a model previously written by Save.
func Load(in io.Reader) (*Model, error) {
	br := bufio.NewReader(in)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("rtmodel: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("rtmodel: bad magic %q", magic)
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("rtmodel: unsupported version %d (want %d)", ver, Version)
	}
	nstr, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	const maxStrings = 1 << 24
	if nstr > maxStrings {
		return nil, fmt.Errorf("rtmodel: implausible string table size %d", nstr)
	}
	// Capacity is capped independently of the declared count so a forged
	// header cannot make Load allocate ahead of the bytes it actually
	// parses; the slice grows only as real entries arrive.
	table := make([]string, 0, min(nstr, 4096))
	for i := uint64(0); i < nstr; i++ {
		l, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if l > 1<<20 {
			return nil, fmt.Errorf("rtmodel: implausible string length %d", l)
		}
		buf := make([]byte, l)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		table = append(table, string(buf))
	}
	str := func(id uint64) (string, error) {
		if id >= uint64(len(table)) {
			return "", fmt.Errorf("rtmodel: string ref %d out of range", id)
		}
		return table[id], nil
	}
	nnodes, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nnodes > 1<<26 {
		return nil, fmt.Errorf("rtmodel: implausible node count %d", nnodes)
	}
	m := &Model{Nodes: make([]Node, 0, min(nnodes, 4096))}
	for i := uint64(0); i < nnodes; i++ {
		m.Nodes = append(m.Nodes, Node{})
		n := &m.Nodes[len(m.Nodes)-1]
		ids := make([]uint64, 4)
		for j := range ids {
			if ids[j], err = binary.ReadUvarint(br); err != nil {
				return nil, err
			}
		}
		if n.Kind, err = str(ids[0]); err != nil {
			return nil, err
		}
		if n.Name, err = str(ids[1]); err != nil {
			return nil, err
		}
		if n.ID, err = str(ids[2]); err != nil {
			return nil, err
		}
		if n.Type, err = str(ids[3]); err != nil {
			return nil, err
		}
		parent, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		// Nodes are written in preorder: every parent precedes its
		// children, the root (index 0) carrying -1. Consumers (path
		// tables, ancestor walks) rely on that invariant, so a file
		// violating it is malformed, not merely unusual.
		if parent < -1 || parent >= int64(i) {
			return nil, fmt.Errorf("rtmodel: node %d has out-of-preorder parent %d", i, parent)
		}
		n.Parent = int32(parent)
		nattrs, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if nattrs > 1<<20 {
			return nil, fmt.Errorf("rtmodel: implausible attr count %d", nattrs)
		}
		n.Attrs = make([]Attr, 0, min(nattrs, 64))
		for j := uint64(0); j < nattrs; j++ {
			var refs [5]uint64
			for k := range refs {
				if refs[k], err = binary.ReadUvarint(br); err != nil {
					return nil, err
				}
			}
			var a Attr
			if a.Name, err = str(refs[0]); err != nil {
				return nil, err
			}
			if a.Raw, err = str(refs[1]); err != nil {
				return nil, err
			}
			if a.Unit, err = str(refs[2]); err != nil {
				return nil, err
			}
			a.Dim = units.Dimension(refs[3])
			a.Flags = AttrFlags(refs[4])
			var fbuf [8]byte
			if _, err := io.ReadFull(br, fbuf[:]); err != nil {
				return nil, err
			}
			a.Value = math.Float64frombits(binary.LittleEndian.Uint64(fbuf[:]))
			n.Attrs = append(n.Attrs, a)
		}
		nprops, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if nprops > 1<<20 {
			return nil, fmt.Errorf("rtmodel: implausible prop count %d", nprops)
		}
		n.Props = make([]Prop, 0, min(nprops, 64))
		for j := uint64(0); j < nprops; j++ {
			var p Prop
			nameID, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if p.Name, err = str(nameID); err != nil {
				return nil, err
			}
			nkv, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			for k := uint64(0); k < nkv; k++ {
				kID, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, err
				}
				vID, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, err
				}
				ks, err := str(kID)
				if err != nil {
					return nil, err
				}
				vs, err := str(vID)
				if err != nil {
					return nil, err
				}
				p.KVs = append(p.KVs, [2]string{ks, vs})
			}
			n.Props = append(n.Props, p)
		}
		nchildren, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if nchildren > nnodes {
			return nil, fmt.Errorf("rtmodel: implausible child count %d", nchildren)
		}
		for j := uint64(0); j < nchildren; j++ {
			ci, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if ci >= nnodes {
				return nil, fmt.Errorf("rtmodel: child index %d out of range", ci)
			}
			n.Children = append(n.Children, int32(ci))
		}
	}
	return m, nil
}

// LoadFile reads a model from a file path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Equal compares two models structurally (used in round-trip tests).
func Equal(a, b *Model) bool {
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		x, y := &a.Nodes[i], &b.Nodes[i]
		if x.Kind != y.Kind || x.Name != y.Name || x.ID != y.ID || x.Type != y.Type ||
			x.Parent != y.Parent || len(x.Attrs) != len(y.Attrs) ||
			len(x.Props) != len(y.Props) || len(x.Children) != len(y.Children) {
			return false
		}
		for j := range x.Attrs {
			if x.Attrs[j] != y.Attrs[j] {
				return false
			}
		}
		for j := range x.Props {
			if x.Props[j].Name != y.Props[j].Name || len(x.Props[j].KVs) != len(y.Props[j].KVs) {
				return false
			}
			for k := range x.Props[j].KVs {
				if x.Props[j].KVs[k] != y.Props[j].KVs[k] {
					return false
				}
			}
		}
		for j := range x.Children {
			if x.Children[j] != y.Children[j] {
				return false
			}
		}
	}
	return true
}
