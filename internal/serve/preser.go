package serve

import (
	"bytes"
	"encoding/json"
	"sync"

	"xpdl/internal/obs"
	"xpdl/internal/rtmodel"
)

// Per-snapshot pre-serialized responses: the answers that depend only
// on the immutable snapshot (summary, tree, full JSON export, element
// lookups) are rendered to their final wire bytes once — eagerly at
// publish for the fixed trio, lazily-once per element — and every
// later request writes those bytes straight to the socket, in either
// protocol, with no per-request marshaling. The byte-stream answers
// (tree, JSON export) are held once: their binary form is an envelope
// header written in front of the same body bytes.

// Binary-protocol metrics in the process-wide registry.
var (
	mProtoJSON = obs.Default().CounterWith("xpdl_serve_proto_total",
		"API responses served, by wire protocol.", "proto", "json")
	mProtoBin = obs.Default().CounterWith("xpdl_serve_proto_total",
		"API responses served, by wire protocol.", "proto", "bin")
	mPreserHits = obs.Default().Counter("xpdl_serve_preser_hits_total",
		"API responses served from per-snapshot pre-serialized bytes.")
	mPreserReused = obs.Default().Counter("xpdl_serve_preser_reused_total",
		"Pre-serialized answers carried over unchanged across a delta patch.")
)

// preEncoded is one response rendered to final bytes in both
// protocols: body is the classic answer (indented JSON or plain text),
// bin is a complete binary envelope — or, when raw is set, only the
// envelope header of a raw frame whose payload is body itself.
type preEncoded struct {
	body []byte
	bin  []byte
	raw  bool
}

// rawPre pre-encodes a byte-stream answer, sharing body between the
// two protocols.
func rawPre(t rtmodel.FrameType, body []byte) preEncoded {
	var hdr [rtmodel.MaxFrameHeader]byte
	n := rtmodel.PutWireHeader(hdr[:])
	n += rtmodel.PutFrameHeader(hdr[n:], t, len(body))
	return preEncoded{body: body, bin: append([]byte(nil), hdr[:n]...), raw: true}
}

// exportBytesPerNode presizes a cold export render: the zoo's system
// models export 313–442 bytes per runtime node (XScluster 442).
const exportBytesPerNode = 448

// renderExport renders the JSON export of snap into one buffer,
// presized from old's export — the previous generation of the same
// model, when there is one — or from the node count. A model that
// cannot be exported gets an empty body.
func renderExport(snap, old *Snapshot) preEncoded {
	m := snap.Session.Model()
	size := m.Len() * exportBytesPerNode
	if old != nil && old.pre != nil && len(old.pre.export.body) > 0 {
		prev := len(old.pre.export.body)
		size = prev + prev/64 // room for the edited values to grow
	}
	body, err := m.AppendJSON(make([]byte, 0, size))
	if err != nil {
		body = nil
	}
	return rawPre(frameRawJSON, body)
}

// treeBytesPerNode presizes the tree render: the zoo's system models
// render 23–31 bytes per runtime node (XScluster 31).
const treeBytesPerNode = 32

// renderTree renders the tree answer of snap into a body whose capacity
// equals its length: the body lives as long as the snapshot (and its
// delta successors, which reuse it), so no slack is held with it.
func renderTree(snap *Snapshot) preEncoded {
	var tb bytes.Buffer
	tb.Grow(snap.Session.Model().Len() * treeBytesPerNode)
	_ = WriteTree(&tb, snap.Session.Root())
	body := make([]byte, tb.Len())
	copy(body, tb.Bytes())
	return rawPre(frameRawTree, body)
}

// preResponses is the pre-serialized set of one snapshot. The fixed
// members are built before the snapshot is published and read-only
// afterwards; elems fills lazily (ident → *preEncoded) and is safe for
// concurrent readers because the snapshot is immutable — an element's
// bytes can never go stale within one generation.
type preResponses struct {
	summary preEncoded
	tree    preEncoded
	export  preEncoded
	elems   sync.Map
}

// prepare readies a snapshot for publishing: selector indexes plus the
// pre-serialized hot responses. The store calls it before the pointer
// swap, so no request — not even the first after a hot swap — pays an
// index build or a summary/tree/export render. old is the snapshot
// being replaced, or nil; it only presizes the export render.
func prepare(snap, old *Snapshot) {
	if snap.Session == nil {
		return
	}
	snap.Session.BuildIndexes()
	if snap.pre != nil {
		return
	}
	p := &preResponses{}
	sum := summaryOf(snap)
	p.summary = preEncoded{body: marshalIndented(sum), bin: encodeBin(&sum)}
	p.tree = renderTree(snap)
	p.export = renderExport(snap, old)
	snap.pre = p
}

// preparePatched readies a delta-patched snapshot, reusing everything
// from its predecessor that provably cannot have changed: the selector
// indexes (the patch edits attribute values only, never structure), the
// rendered tree (attribute-free by construction), and every lazily
// rendered element answer whose node content is unchanged. Attribute-
// bearing renders (summary, JSON export, touched elements) are rebuilt.
// If the structural invariants do not hold it degrades to prepare().
func preparePatched(snap, old *Snapshot) {
	if snap.Session == nil {
		return
	}
	if old == nil || old.Session == nil || !snap.Session.AdoptIndexes(old.Session) {
		prepare(snap, old)
		return
	}
	if snap.pre != nil {
		return
	}
	p := &preResponses{}
	sum := summaryOf(snap)
	p.summary = preEncoded{body: marshalIndented(sum), bin: encodeBin(&sum)}
	if old.pre != nil && sameTreeShape(snap, old) {
		p.tree = old.pre.tree
		mPreserReused.Inc()
	} else {
		p.tree = renderTree(snap)
	}
	p.export = renderExport(snap, old)
	if old.pre != nil {
		nm, om := snap.Session.Model(), old.Session.Model()
		old.pre.elems.Range(func(k, v any) bool {
			on, ok := om.Lookup(k.(string))
			if !ok {
				return true
			}
			nn, ok := nm.Lookup(k.(string))
			if ok && nodeAnswerEqual(nn, on) {
				p.elems.Store(k, v)
				mPreserReused.Inc()
			}
			return true
		})
	}
	snap.pre = p
}

// sameTreeShape reports whether the rendered tree (kind/ident/type per
// node) is identical between two same-length snapshots. AdoptIndexes
// already verified kind/name/id/parent; only type tags remain.
func sameTreeShape(snap, old *Snapshot) bool {
	a, b := snap.Session.Model(), old.Session.Model()
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i].Type != b.Nodes[i].Type {
			return false
		}
	}
	return true
}

// nodeAnswerEqual reports whether two runtime nodes render the same
// element answer: identity, type, attributes and properties all equal
// (children references are shape-level and were verified at adoption).
func nodeAnswerEqual(a, b *rtmodel.Node) bool {
	if a.Kind != b.Kind || a.Name != b.Name || a.ID != b.ID || a.Type != b.Type {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) || len(a.Props) != len(b.Props) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Props {
		if a.Props[i].Name != b.Props[i].Name || len(a.Props[i].KVs) != len(b.Props[i].KVs) {
			return false
		}
		for j := range a.Props[i].KVs {
			if a.Props[i].KVs[j] != b.Props[i].KVs[j] {
				return false
			}
		}
	}
	return true
}

// summaryOf computes the derived-analysis roll-up of one snapshot from
// the session's root aggregates, the numbers the platform functions of
// /eval answer too.
func summaryOf(snap *Snapshot) SummaryResponse {
	s := snap.Session
	installed := s.InstalledList()
	if installed == nil {
		installed = []string{}
	}
	return SummaryResponse{
		Cores:        s.NumCores(),
		CUDADevices:  s.NumCUDADevices(),
		StaticPowerW: s.TotalStaticPower().Value,
		Installed:    installed,
	}
}

// preElement returns the pre-serialized lookup answer for one element,
// rendering and caching it on first use. ok is false when the snapshot
// was published without pre-serialization or the element does not
// exist (the caller falls back to the live path, which produces the
// 404).
func (s *Snapshot) preElement(ident string) (*preEncoded, bool) {
	p := s.pre
	if p == nil {
		return nil, false
	}
	if v, ok := p.elems.Load(ident); ok {
		return v.(*preEncoded), true
	}
	e, ok := s.Session.Find(ident)
	if !ok {
		return nil, false
	}
	el := elementOf(e)
	pe := &preEncoded{body: marshalIndented(el), bin: encodeBin(&el)}
	actual, _ := p.elems.LoadOrStore(ident, pe)
	return actual.(*preEncoded), true
}

// marshalIndented renders v exactly as Server.writeJSON does (two-space
// indent, trailing newline), so pre-serialized JSON answers are
// byte-identical to live ones.
func marshalIndented(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return buf.Bytes()
}

// encodeBin renders a complete binary envelope for one message.
func encodeBin(m binaryMessage) []byte {
	e := getEnc()
	defer putEnc(e)
	m.encodeTo(e)
	out := make([]byte, 0, rtmodel.MaxFrameHeader+len(e.Buf))
	out = rtmodel.AppendWireHeader(out)
	return rtmodel.AppendFrame(out, m.frame(), e.Buf)
}
