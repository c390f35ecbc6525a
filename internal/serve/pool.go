package serve

import (
	"bytes"
	"sync"

	"xpdl/internal/rtmodel"
)

// Request/response buffer pools for the serving hot path. Encoders and
// byte buffers are reused across requests; everything handed back to a
// pool must be fully copied out first (http.ResponseWriter.Write
// copies, and Dec.String copies decoded strings), so a pooled buffer
// is never observable by two in-flight responses.

// maxPooledBuf caps what a pool retains: one giant response (a full
// model JSON export, say) must not pin its buffer forever.
const maxPooledBuf = 1 << 20

// maxPooledStrings caps the intern table of a pooled encoder: Reset
// empties a table but keeps its memory, and a 21k-entry table (the
// paths of an unlimited XScluster //core select) holds megabytes.
const maxPooledStrings = 1 << 12

var encPool = sync.Pool{New: func() any { return new(rtmodel.Enc) }}

func getEnc() *rtmodel.Enc {
	e := encPool.Get().(*rtmodel.Enc)
	e.Reset()
	return e
}

func putEnc(e *rtmodel.Enc) {
	if cap(e.Buf) > maxPooledBuf || e.Interned() > maxPooledStrings {
		return
	}
	encPool.Put(e)
}

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	bufPool.Put(b)
}
