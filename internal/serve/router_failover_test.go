package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xpdl/internal/scenario"
)

// Failover regressions: each test pins one row of the ring's failover
// table (shard.Ring.Route) as the client-side tier sees it.

// dropAfterBody is a member that reads the request body, counts the
// request, and drops the connection without answering.
func dropAfterBody(hits *atomic.Int64) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		_, _ = io.ReadAll(r.Body)
		panic(http.ErrAbortHandler)
	}))
}

// closedURL returns the URL of a listener that no longer accepts
// connections: a request to it fails to dial.
func closedURL() string {
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close()
	return ts.URL
}

// memberState reports one member's ring health.
func memberState(t *testing.T, rc *RouterClient, url string) (up, cooling bool) {
	t.Helper()
	for _, st := range rc.Ring().Members() {
		if st.URL == strings.TrimRight(url, "/") {
			return st.Up, st.Cooling
		}
	}
	t.Fatalf("member %s not in ring", url)
	return false, false
}

// TestRouterTreeFailsInsteadOfAppending: the member serving a 60,000-
// byte tree dies after 20,000 bytes. The call must fail with at most
// those 20,000 bytes in w, not append the next member's full body.
func TestRouterTreeFailsInsteadOfAppending(t *testing.T) {
	const total, cut = 60000, 20000
	tree := strings.Repeat("node\n", total/5)
	var hits atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if hits.Add(1) > 1 {
			io.WriteString(w, tree)
			return
		}
		io.WriteString(w, tree[:cut])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
	a, b := httptest.NewServer(h), httptest.NewServer(h)
	defer a.Close()
	defer b.Close()
	rc, err := NewRouterClient(RouterConfig{Members: []string{a.URL, b.URL}, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	var w bytes.Buffer
	err = rc.Tree(context.Background(), "m", &w)
	if err == nil || w.Len() > cut {
		t.Fatalf("Tree after a mid-body death: %d bytes in w, err %v; want an error and at most %d bytes",
			w.Len(), err, cut)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("%d members asked for the tree, want 1", n)
	}
}

type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }

// TestRouterTreeWriterErrorIsTheCallers: when the caller's writer fails,
// the call ends with that error and no member is blamed for it.
func TestRouterTreeWriterErrorIsTheCallers(t *testing.T) {
	members := newCluster(t, 2)
	rc, err := NewRouterClient(RouterConfig{Members: clusterURLs(members), Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	full := errors.New("disk full")
	if err := rc.Tree(context.Background(), "m", failingWriter{full}); !errors.Is(err, full) {
		t.Fatalf("Tree into a failing writer: %v, want the writer's error", err)
	}
	if st := rc.Ring().Stats(); st.MembersUp != 2 || st.Failovers != 0 {
		t.Fatalf("the caller's writer error was blamed on members: %+v", st)
	}
}

// TestRouterTimeoutAnswers504WithoutFailover: a handler timeout is the
// request's problem, not the member's. The 504 comes back after one
// attempt, and no member cools or goes down.
func TestRouterTimeoutAnswers504WithoutFailover(t *testing.T) {
	var hits atomic.Int64
	var urls []string
	for i := 0; i < 2; i++ {
		l := newStubLoader()
		l.delay = 200 * time.Millisecond
		srv := NewServer(Config{Store: NewStore(l, 0), RequestTimeout: 20 * time.Millisecond})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			srv.ServeHTTP(w, r)
		}))
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	rc, err := NewRouterClient(RouterConfig{Members: urls, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rc.Summary(context.Background(), "slow")
	var se *apiStatusError
	if !errors.As(err, &se) || se.Status != http.StatusGatewayTimeout {
		t.Fatalf("slow query: %v, want a 504", err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("timed-out query sent to %d members, want 1", n)
	}
	for _, u := range urls {
		if up, cooling := memberState(t, rc, u); !up || cooling {
			t.Fatalf("member %s after a 504: up=%v cooling=%v, want up and not cooling", u, up, cooling)
		}
	}
}

// TestRouterSweepNotReplayedAfterDrop: a member reads the sweep submit
// and drops the connection. It may have queued the job, so the submit
// must not reach a second member.
func TestRouterSweepNotReplayedAfterDrop(t *testing.T) {
	var submits atomic.Int64
	a, b := dropAfterBody(&submits), dropAfterBody(&submits)
	defer a.Close()
	defer b.Close()
	rc, err := NewRouterClient(RouterConfig{Members: []string{a.URL, b.URL}, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rc.Sweep(context.Background(), "m", scenario.Spec{}); err == nil {
		t.Fatal("sweep on a dropped connection succeeded")
	}
	if n := submits.Load(); n != 1 {
		t.Fatalf("sweep submit reached %d members, want 1", n)
	}
}

// TestRouterSweepFailsOverDialError: a submit that never reached the
// first member (its listener is closed) still moves on.
func TestRouterSweepFailsOverDialError(t *testing.T) {
	var submits atomic.Int64
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		submits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"job":"j1","model":"m","state":"queued","total":1}`)
	}))
	defer live.Close()
	dead := closedURL()
	rc, err := NewRouterClient(RouterConfig{Members: []string{dead, live.URL}, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Cool the live member so the dead one leads the order.
	rc.Ring().ReportBusy(live.URL, time.Minute)
	acc, member, err := rc.Sweep(context.Background(), "m", scenario.Spec{})
	if err != nil {
		t.Fatalf("sweep with one closed member: %v", err)
	}
	if acc.Job != "j1" || member != live.URL || submits.Load() != 1 {
		t.Fatalf("accepted %+v by %s after %d submits, want j1 by %s after 1", acc, member, submits.Load(), live.URL)
	}
	if up, _ := memberState(t, rc, dead); up {
		t.Fatal("closed member not marked down")
	}
}

// TestRouterWatchBusyCoolsMember: a 503 on a watch cools the member,
// like a 503 on any other call; it does not mark it down.
func TestRouterWatchBusyCoolsMember(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "5")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"overloaded"}`)
	}))
	defer busy.Close()
	live := newCluster(t, 1)[0]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := live.store.Get(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	rc, err := NewRouterClient(RouterConfig{Members: []string{busy.URL, live.ts.URL}, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	rc.clients[busy.URL].WatchRetries = -1 // surface the 503 without reconnecting
	rc.Ring().ReportBusy(live.ts.URL, time.Minute)

	stop := errors.New("stop")
	if err := rc.Watch(ctx, "m", 0, func(WatchEvent) error { return stop }); !errors.Is(err, stop) {
		t.Fatalf("watch ended with %v, want the first event from the live member", err)
	}
	if up, cooling := memberState(t, rc, busy.URL); !up || !cooling {
		t.Fatalf("busy member after a watch 503: up=%v cooling=%v, want up and cooling", up, cooling)
	}
}

func TestReplaySafe(t *testing.T) {
	for _, c := range []struct {
		method, path string
		want         bool
	}{
		{http.MethodPost, "/v1/models/m/sweep", false},
		{http.MethodPost, "/v1/models/m/refresh", false},
		{http.MethodPost, "/v1/jobs/j1/cancel", false},
		{http.MethodPost, "/v1/models/m/eval", true},
		{http.MethodPost, "/v1/models/m/batch", true},
		{http.MethodGet, "/v1/models/m/summary", true},
		{http.MethodGet, "/v1/jobs/j1", true},
		{http.MethodGet, "/v1/models/m/sweep", true},
	} {
		if got := ReplaySafe(c.method, c.path); got != c.want {
			t.Errorf("ReplaySafe(%s %s) = %v, want %v", c.method, c.path, got, c.want)
		}
	}
}
