package shard

import (
	"errors"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestRouteTable pins Ring.Route on every row of its table, for
// replay-safe and side-effecting requests: which health report the
// first member gets, and whether the second member is tried.
func TestRouteTable(t *testing.T) {
	names := [...]string{"Answered", "Busy", "TimedOut", "DialFailed", "Failed", "FailedAfterOutput", "Stopped"}
	// reports counts ReportBusy/ReportFailure calls on the first member;
	// both members start cooling, so "none" leaves it cooling and up.
	type state struct {
		up, cooling bool
		reports     int64
	}
	var (
		none    = state{up: true, cooling: true}
		success = state{up: true}
		cooled  = state{up: true, cooling: true, reports: 1}
		down    = state{up: false, cooling: true, reports: 1}
	)
	rows := []struct {
		out        Outcome
		replaySafe bool
		first      state
		next       bool
	}{
		{Answered, true, success, false},
		{Answered, false, success, false},
		{Busy, true, cooled, true},
		{Busy, false, cooled, true},
		{TimedOut, true, none, false},
		{TimedOut, false, none, false},
		{DialFailed, true, down, true},
		{DialFailed, false, down, true},
		{Failed, true, down, true},
		{Failed, false, down, false},
		{FailedAfterOutput, true, down, false},
		{FailedAfterOutput, false, down, false},
		{Stopped, true, none, false},
		{Stopped, false, none, false},
	}
	for _, row := range rows {
		r := newTestRing(t, Config{Members: []string{"http://a:1", "http://b:1"}, Replicas: 2})
		// Cool both members so the order is the plain score order and a
		// success report (which clears the cooldown) is observable.
		reps := r.Replicas("m")
		for _, m := range reps {
			r.ReportBusy(m, time.Minute)
		}
		before := r.Stats().Failovers
		var tried []string
		ended := r.Route("m", row.replaySafe, func(member string) (Outcome, time.Duration) {
			tried = append(tried, member)
			if len(tried) == 1 {
				return row.out, 5 * time.Second
			}
			return Answered, 0
		})
		name := names[row.out]
		if !ended {
			t.Errorf("%s replaySafe=%v: Route reported an exhausted order", name, row.replaySafe)
		}
		if tried[0] != reps[0] {
			t.Fatalf("%s: first attempt on %s, want %s", name, tried[0], reps[0])
		}
		if got := len(tried) == 2; got != row.next {
			t.Errorf("%s replaySafe=%v: tried next member = %v, want %v", name, row.replaySafe, got, row.next)
		}
		got := state{reports: r.Stats().Failovers - before}
		for _, st := range r.Members() {
			if st.URL == reps[0] {
				got.up, got.cooling = st.Up, st.Cooling
			}
		}
		if got != row.first {
			t.Errorf("%s replaySafe=%v: first member %+v, want %+v", name, row.replaySafe, got, row.first)
		}
	}
}

func TestRouteExhaustedOrder(t *testing.T) {
	r := newTestRing(t, Config{Members: []string{"http://a:1", "http://b:1", "http://c:1"}, Replicas: 2})
	attempts := 0
	ended := r.Route("m", true, func(string) (Outcome, time.Duration) {
		attempts++
		return Busy, 0
	})
	if ended || attempts != 3 {
		t.Fatalf("all members busy: ended=%v after %d attempts, want false after 3", ended, attempts)
	}
}

// TestReportBusyClampsCooldown: a far-future Retry-After cools a member
// for at most maxCooldown, not for the day it asks for.
func TestReportBusyClampsCooldown(t *testing.T) {
	clock := time.Unix(1000, 0)
	r := newTestRing(t, Config{Members: []string{"http://a:1", "http://b:1"}, Replicas: 2,
		now: func() time.Time { return clock }})
	m := r.Replicas("x")[0]
	cooling := func() bool {
		for _, st := range r.Members() {
			if st.URL == m {
				return st.Cooling
			}
		}
		return false
	}
	r.ReportBusy(m, 24*time.Hour)
	if !cooling() {
		t.Fatal("member not cooling after a 503")
	}
	clock = clock.Add(maxCooldown + time.Nanosecond)
	if cooling() {
		t.Fatalf("member still cooling %v after a 503 asking for 24h", maxCooldown)
	}
}

func TestClassify(t *testing.T) {
	for status, want := range map[int]Outcome{
		http.StatusOK: Answered, http.StatusNotFound: Answered, http.StatusTooManyRequests: Answered,
		http.StatusInternalServerError: Answered, http.StatusBadGateway: Answered,
		http.StatusServiceUnavailable: Busy, http.StatusGatewayTimeout: TimedOut,
	} {
		if got := Classify(status, nil); got != want {
			t.Errorf("Classify(%d, nil) = %v, want %v", status, got, want)
		}
	}

	// A closed listener refuses the connection: the request never
	// reached the member.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	_, err = http.Get("http://" + addr + "/healthz")
	if err == nil {
		t.Fatal("request to a closed listener succeeded")
	}
	if got := Classify(0, err); got != DialFailed {
		t.Errorf("refused connection: %v (%v), want DialFailed", got, err)
	}
	if got := Classify(http.StatusOK, errors.New("connection reset by peer")); got != Failed {
		t.Errorf("other transport error: %v, want Failed", got)
	}
}
