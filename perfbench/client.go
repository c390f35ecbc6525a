package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"xpdl/internal/serve"
)

// maxConns is the load generator's connection budget: the host has two
// CPUs, so the benchmark holds at most two connections to the daemon,
// watch and job streams included.
const maxConns = 2

// idHeader carries a request id in traced runs so that the handler
// timing recorded in-process can be joined with the client's timing.
const idHeader = "X-Bench-Id"

// target is one xpdld endpoint seen through the benchmark's own HTTP
// client.
type target struct {
	base string
	hc   *http.Client
}

func newTarget(base string) *target {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	return &target{base: base, hc: &http.Client{Transport: tr}}
}

func (t *target) close() { t.hc.CloseIdleConnections() }

// answer is one complete response.
type answer struct {
	status int
	ct     string
	gen    uint64
	fp     string
	body   []byte
}

// do sends one request and reads the whole body into buf, which the
// returned answer aliases. id > 0 tags the request for traced joins.
func (t *target) do(ctx context.Context, method, path string, body []byte, bin bool, id int64, buf *bytes.Buffer) (answer, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, rd)
	if err != nil {
		return answer{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if bin {
		req.Header.Set("Accept", serve.ContentTypeBinary)
	} else {
		req.Header.Set("Accept", "application/json")
	}
	if id > 0 {
		req.Header.Set(idHeader, strconv.FormatInt(id, 10))
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return answer{}, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	a := answer{status: resp.StatusCode, ct: resp.Header.Get("Content-Type"), fp: resp.Header.Get("X-Xpdl-Fingerprint"), body: buf.Bytes()}
	a.gen, _ = strconv.ParseUint(resp.Header.Get("X-Xpdl-Generation"), 10, 64)
	if a.status != http.StatusOK {
		return a, fmt.Errorf("%s %s: status %d: %.200s", method, path, a.status, a.body)
	}
	return a, nil
}

// getJSON fetches path and decodes its JSON answer into out.
func (t *target) getJSON(ctx context.Context, method, path string, body []byte, out any) error {
	var buf bytes.Buffer
	a, err := t.do(ctx, method, path, body, false, 0, &buf)
	if err != nil {
		return err
	}
	return json.Unmarshal(a.body, out)
}

// sseEvent is one server-sent event.
type sseEvent struct {
	typ  string
	data []byte
	at   time.Time // receipt of the event's last line
}

// stream opens an SSE stream and calls fn for every event until fn
// returns false, the stream ends or ctx is canceled.
func (t *target) stream(ctx context.Context, path string, opened func(*http.Response), fn func(sseEvent) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := t.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream %s: status %d", path, resp.StatusCode)
	}
	if opened != nil {
		opened(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.typ != "" || ev.data != nil {
				ev.at = time.Now()
				if !fn(ev) {
					return nil
				}
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			ev.typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(line[len("data: "):])
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return fmt.Errorf("stream %s: %w", path, err)
	}
	return nil
}

// verifier checks query answers against the oracle. A body is decoded
// once per (entry, protocol, content hash); byte-identical repeats of a
// checked body share its verdict, so the check stays off the critical
// path after warm-up.
type verifier struct {
	pool   []request
	expect [][]byte
	fps    map[string]string // model -> expected fingerprint
	seed   maphash.Seed

	mu      sync.Mutex
	verdict map[verKey]error
}

type verKey struct {
	entry int
	bin   bool
	hash  uint64
}

func newVerifier(pool []request, expect [][]byte, fps map[string]string) *verifier {
	return &verifier{pool: pool, expect: expect, fps: fps, seed: maphash.MakeSeed(), verdict: map[verKey]error{}}
}

func (v *verifier) check(entry int, bin bool, a *answer) error {
	r := &v.pool[entry]
	if a.fp != v.fps[r.Model] {
		return fmt.Errorf("%s: fingerprint %q, oracle %q", r.Path, a.fp, v.fps[r.Model])
	}
	k := verKey{entry, bin, maphash.Bytes(v.seed, a.body)}
	v.mu.Lock()
	err, seen := v.verdict[k]
	v.mu.Unlock()
	if seen {
		return err
	}
	got, err := decodeAnswer(r, bin, a.ct, a.body)
	if err == nil && !bytes.Equal(got, v.expect[entry]) {
		err = fmt.Errorf("%s (bin=%v): answer differs from the oracle", r.Path, bin)
	}
	v.mu.Lock()
	v.verdict[k] = err
	v.mu.Unlock()
	return err
}

// decodeAnswer decodes a recorded body through serve.Client in the
// protocol it was requested with and re-renders it as compact JSON, the
// oracle's form. The client reads the body from a replaying transport,
// so no second request is made.
func decodeAnswer(r *request, bin bool, ct string, body []byte) ([]byte, error) {
	c := &serve.Client{Base: "http://recorded", HTTP: &http.Client{Transport: replay{ct: ct, body: body}}}
	if bin {
		c.Proto = serve.ProtoBinary
	}
	ctx := context.Background()
	var (
		v   any
		err error
	)
	switch r.Kind {
	case "summary":
		v, err = c.Summary(ctx, r.Model)
	case "element":
		v, err = c.Element(ctx, r.Model, r.Ident)
	case "select", "core-all":
		v, err = c.Select(ctx, r.Model, r.Selector, r.Limit)
	case "eval":
		v, err = c.Eval(ctx, r.Model, r.Expr, nil)
	case "energy":
		v, err = c.EnergyAt(ctx, r.Model, r.Table, r.Inst, r.GHz)
	case "batch":
		v, err = c.Batch(ctx, r.Model, r.Batch)
	case "tree":
		var b bytes.Buffer
		err = c.Tree(ctx, r.Model, &b)
		return b.Bytes(), err
	default:
		return nil, fmt.Errorf("unknown request kind %q", r.Kind)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// replay answers every request with one recorded response.
type replay struct {
	ct   string
	body []byte
}

func (p replay) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{p.ct}},
		Body:       io.NopCloser(bytes.NewReader(p.body)),
		Request:    req,
	}, nil
}
