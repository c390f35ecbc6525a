package serve

import (
	"bytes"
	"net/http"
	"strconv"

	"xpdl/internal/query"
	"xpdl/internal/rtmodel"
)

// A select answer is the one large answer built per request: an
// unlimited //core on XScluster names 21,544 elements in 1.95 MB of
// JSON. The GET and POST select handlers therefore return a selection,
// and writeSelection appends it straight into one wire buffer sized
// beforehand from its elements, in either protocol. No []ElementRef
// is built and no reflection runs. The JSON bytes equal the indented
// encoding/json rendering of the matching SelectResponse, and the
// binary bytes equal SelectResponse.encodeTo; the corpus and fuzz
// tests hold both.

// selection is a select answer before encoding: the total number of
// matches and the matched elements up to the request's limit.
type selection struct {
	count int
	elems []query.Elem
}

// response materializes the answer as its wire struct, for the batch
// endpoint, which embeds it in its results.
func (sel selection) response() SelectResponse {
	refs := make([]ElementRef, len(sel.elems))
	for i, e := range sel.elems {
		refs[i] = refOf(e)
	}
	return SelectResponse{Count: sel.count, Elements: refs}
}

// strBytes is the total length of the strings the answer carries.
func (sel selection) strBytes() int {
	n := 0
	for _, e := range sel.elems {
		n += len(e.Kind()) + len(e.Ident()) + len(e.Path())
	}
	return n
}

// Fixed bytes of the indented JSON answer, escapes aside: the envelope
// with a 20-digit count, and one element with all three keys.
const (
	selectJSONEnvelope = len("{\n  \"count\": ,\n  \"elements\": [\n  ]\n}\n") + 20
	selectJSONPerElem  = len(",\n    {\n      \"kind\": \"\",\n      \"ident\": \"\",\n      \"path\": \"\"\n    }")
)

// appendJSON appends the answer exactly as Server.writeJSON renders
// the matching SelectResponse: two-space indent, HTML-safe string
// escapes, ident omitted when empty, trailing newline.
func (sel selection) appendJSON(dst []byte) []byte {
	dst = append(dst, "{\n  \"count\": "...)
	dst = strconv.AppendInt(dst, int64(sel.count), 10)
	dst = append(dst, ",\n  \"elements\": ["...)
	for i, e := range sel.elems {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n    {\n      \"kind\": "...)
		dst = rtmodel.AppendJSONString(dst, e.Kind())
		if id := e.Ident(); id != "" {
			dst = append(dst, ",\n      \"ident\": "...)
			dst = rtmodel.AppendJSONString(dst, id)
		}
		dst = append(dst, ",\n      \"path\": "...)
		dst = rtmodel.AppendJSONString(dst, e.Path())
		dst = append(dst, "\n    }"...)
	}
	if len(sel.elems) > 0 {
		dst = append(dst, "\n  "...)
	}
	return append(dst, "]\n}\n"...)
}

// encodeTo writes the payload SelectResponse.encodeTo writes for the
// same answer.
func (sel selection) encodeTo(e *rtmodel.Enc) {
	e.Uvarint(uint64(sel.count))
	e.Uvarint(uint64(len(sel.elems)))
	for _, x := range sel.elems {
		r := refOf(x)
		encRef(e, &r)
	}
}

// writeSelection writes a select answer in the negotiated protocol. A
// buffer or encoder too large to pool is allocated for this answer
// alone and dropped afterwards.
func (s *Server) writeSelection(w http.ResponseWriter, bin bool, sel selection) {
	strBytes := sel.strBytes()
	if bin {
		// Each string token carries at most a 3-byte varint; interned
		// strings are one entry per distinct path plus a few kinds and
		// idents.
		n := strBytes + 9*len(sel.elems) + 20
		strs := len(sel.elems) + 8
		var e *rtmodel.Enc
		pooled := n <= maxPooledBuf && strs <= maxPooledStrings
		if pooled {
			e = getEnc()
		} else {
			e = new(rtmodel.Enc)
		}
		e.Grow(n, strs)
		sel.encodeTo(e)
		s.writeFrame(w, http.StatusOK, frameSelect, e.Buf)
		if pooled {
			putEnc(e)
		}
		return
	}
	n := selectJSONEnvelope + len(sel.elems)*selectJSONPerElem + strBytes
	var (
		b   *bytes.Buffer
		buf []byte
	)
	if n <= maxPooledBuf {
		b = getBuf()
		b.Grow(n)
		buf = b.AvailableBuffer()
	} else {
		buf = make([]byte, 0, n)
	}
	buf = sel.appendJSON(buf)
	mProtoJSON.Inc()
	s.countStatus(http.StatusOK)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
	if b != nil {
		putBuf(b)
	}
}
