package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xpdl/internal/serve"
	"xpdl/internal/shard"
)

// newTestRouter fronts members with the forwarding handler.
func newTestRouter(t *testing.T, members ...string) (*router, *httptest.Server) {
	t.Helper()
	ring, err := shard.New(shard.Config{Members: members, Replicas: len(members)})
	if err != nil {
		t.Fatal(err)
	}
	rt := &router{ring: ring, forward: &http.Client{Transport: serve.SharedTransport}}
	ts := httptest.NewServer(http.HandlerFunc(rt.handleForward))
	t.Cleanup(ts.Close)
	return rt, ts
}

// dropAfterBody is a member that reads the request body, counts the
// request, and drops the connection without answering.
func dropAfterBody(t *testing.T, hits *atomic.Int64) string {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		_, _ = io.ReadAll(r.Body)
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

func postSweep(t *testing.T, routerURL string) *http.Response {
	t.Helper()
	resp, err := http.Post(routerURL+"/v1/models/m/sweep", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRelayAbortsTruncatedBody: an upstream that flushes 20,000 bytes
// and dies must reach the client as an error, not as a complete 200.
func TestRelayAbortsTruncatedBody(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, strings.Repeat("x", 20000))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	defer upstream.Close()
	_, ts := newTestRouter(t, upstream.URL)

	resp, err := http.Get(ts.URL + "/v1/models/m/tree")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("truncated upstream relayed as a complete %d with %d bytes", resp.StatusCode, len(body))
	}
}

// TestForwardDoesNotReplaySideEffects: a member reads the sweep submit
// and drops the connection. It may have queued the job, so the router
// answers 502 instead of submitting to a second member.
func TestForwardDoesNotReplaySideEffects(t *testing.T) {
	var submits atomic.Int64
	_, ts := newTestRouter(t, dropAfterBody(t, &submits), dropAfterBody(t, &submits))
	resp := postSweep(t, ts.URL)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dropped sweep submit answered %d, want 502", resp.StatusCode)
	}
	if n := submits.Load(); n != 1 {
		t.Fatalf("sweep submit reached %d members, want 1", n)
	}
}

// TestForwardSideEffectFailsOverDialError: a submit that never reached
// the first member (its listener is closed) still moves on.
func TestForwardSideEffectFailsOverDialError(t *testing.T) {
	var submits atomic.Int64
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		submits.Add(1)
		w.WriteHeader(http.StatusAccepted)
	}))
	defer live.Close()
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()
	rt, ts := newTestRouter(t, closed.URL, live.URL)
	rt.ring.ReportBusy(live.URL, time.Minute) // the dead member leads the order

	resp := postSweep(t, ts.URL)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || submits.Load() != 1 {
		t.Fatalf("sweep with one closed member: %d after %d submits, want 202 after 1", resp.StatusCode, submits.Load())
	}
	if st := rt.ring.Stats(); st.MembersUp != 1 {
		t.Fatalf("closed member not marked down: %+v", st)
	}
}
