// Package shard spreads platform models and query traffic over a set
// of xpdld members: a rendezvous-hash ring assigns every model ident a
// replica set of R members (so any healthy replica answers reads), and
// health-checked membership — periodic /healthz probes plus passive
// failure reports from the request path — marks dead members down
// ephemerally and rejoins them when they answer again.
//
// The ring is deliberately state-free beyond health: members never
// gossip, placement is a pure function of (member URL, model ident),
// and every client of the same member list computes the same replica
// sets. That is what lets both routing tiers — serve.RouterClient
// (client-side routing) and cmd/xpdlrouter (a thin reverse proxy for
// dumb clients) — share this package without coordination.
package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xpdl/internal/obs"
)

// Routing metrics in the process-wide registry. Several rings in one
// process (tests, a router fronting two clusters) share the counters;
// per-ring numbers are available via Ring.Stats.
var (
	mPicks = obs.Default().Counter("xpdl_route_picks_total",
		"Replica picks answered by the routing ring.")
	mFailovers = obs.Default().Counter("xpdl_route_failovers_total",
		"Requests that failed over to another member after a connect error or 503.")
	mTransUp = obs.Default().CounterWith("xpdl_route_member_transitions_total",
		"Member health transitions observed by the ring, by direction.", "to", "up")
	mTransDown = obs.Default().CounterWith("xpdl_route_member_transitions_total",
		"Member health transitions observed by the ring, by direction.", "to", "down")
	gMembersUp = obs.Default().Gauge("xpdl_route_members_up",
		"Ring members currently considered healthy.")
)

// Config tunes a Ring. Only Members is required.
type Config struct {
	// Members are the xpdld base URLs forming the cluster, e.g.
	// ["http://10.0.0.1:8360", "http://10.0.0.2:8360"]. Order does not
	// matter: placement depends on the URL strings, not their order.
	Members []string
	// Replicas is the placement factor R: every model ident maps to its
	// R highest-scoring members and any healthy one of them answers
	// reads. Defaults to 2, clamped to len(Members).
	Replicas int
	// ProbeInterval is the health-check period (default 2s). Probing
	// only runs once Start is called; without it health is driven purely
	// by passive ReportFailure/ReportSuccess calls.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe (default 1s).
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive probe failures mark a member
	// down (default 2). Passive ReportFailure marks down immediately:
	// the request path has already paid for the evidence.
	FailThreshold int
	// HTTP overrides the probe client (tests inject httptest clients).
	HTTP *http.Client
	// OnTransition, when set, observes every health transition.
	OnTransition func(member string, up bool)

	// now overrides the clock in tests.
	now func() time.Time
}

// member is one endpoint's health state.
type member struct {
	url  string
	down atomic.Bool
	// fails counts consecutive probe failures (reset on success).
	fails atomic.Int32
	// coolUntil holds a unix-nano deadline before which the member is
	// skipped by Order front positions — the Retry-After contract:
	// a 503 with Retry-After means "not dead, but do not come back
	// before this".
	coolUntil atomic.Int64
}

// Stats is a point-in-time snapshot of one ring's routing counters
// (the xpdl_route_* metrics aggregate across rings; these do not).
type Stats struct {
	Picks     int64
	Failovers int64
	TransUp   int64
	TransDown int64
	MembersUp int
}

// MemberStatus describes one member for introspection endpoints.
type MemberStatus struct {
	URL     string `json:"url"`
	Up      bool   `json:"up"`
	Cooling bool   `json:"cooling,omitempty"`
}

// Ring is a rendezvous-hash routing ring with health-checked
// membership. All methods are safe for concurrent use.
type Ring struct {
	cfg     Config
	members []*member
	byURL   map[string]*member

	rr atomic.Uint64 // read-spreading rotation

	picks     atomic.Int64
	failovers atomic.Int64
	transUp   atomic.Int64
	transDown atomic.Int64

	stopOnce sync.Once
	stopCh   chan struct{}
}

// New builds a ring over cfg.Members. Member URLs are normalized
// (trailing slash stripped) and must be unique.
func New(cfg Config) (*Ring, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("shard: no members")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > len(cfg.Members) {
		cfg.Replicas = len(cfg.Members)
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 2
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{}
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	r := &Ring{cfg: cfg, byURL: map[string]*member{}, stopCh: make(chan struct{})}
	for _, raw := range cfg.Members {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			return nil, fmt.Errorf("shard: empty member URL")
		}
		if _, dup := r.byURL[u]; dup {
			return nil, fmt.Errorf("shard: duplicate member %q", u)
		}
		m := &member{url: u}
		r.members = append(r.members, m)
		r.byURL[u] = m
	}
	gMembersUp.Set(float64(len(r.members)))
	return r, nil
}

// Members returns the health status of every member, in configuration
// order.
func (r *Ring) Members() []MemberStatus {
	now := r.cfg.now().UnixNano()
	out := make([]MemberStatus, len(r.members))
	for i, m := range r.members {
		out[i] = MemberStatus{
			URL:     m.url,
			Up:      !m.down.Load(),
			Cooling: m.coolUntil.Load() > now,
		}
	}
	return out
}

// Replicas returns ident's replica set — the R members with the
// highest rendezvous scores — in descending score order, health
// ignored. Every ring over the same member list computes the same set.
func (r *Ring) Replicas(ident string) []string {
	scored := r.scoreAll(ident)
	out := make([]string, 0, r.cfg.Replicas)
	for _, s := range scored[:r.cfg.Replicas] {
		out = append(out, s.m.url)
	}
	return out
}

type scoredMember struct {
	m     *member
	score uint64
}

func (r *Ring) scoreAll(ident string) []scoredMember {
	scored := make([]scoredMember, len(r.members))
	for i, m := range r.members {
		scored[i] = scoredMember{m, rendezvousScore(m.url, ident)}
	}
	// Descending by score; ties (astronomically unlikely, but tests
	// deserve determinism) break on the URL.
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].score != scored[j].score {
			return scored[i].score > scored[j].score
		}
		return scored[i].m.url < scored[j].m.url
	})
	return scored
}

// Order returns the failover order for one request on ident: healthy
// replicas first (rotated so repeated reads spread across them), then
// healthy non-replicas (they can cold-load the model when the whole
// replica set is gone), then everything else as a last resort. The
// caller walks the list until a member answers.
func (r *Ring) Order(ident string) []string {
	scored := r.scoreAll(ident)
	now := r.cfg.now().UnixNano()
	healthy := func(m *member) bool {
		return !m.down.Load() && m.coolUntil.Load() <= now
	}
	reps := scored[:r.cfg.Replicas]
	rest := scored[r.cfg.Replicas:]

	out := make([]string, 0, len(scored))
	var upReps []string
	for _, s := range reps {
		if healthy(s.m) {
			upReps = append(upReps, s.m.url)
		}
	}
	// Rotate the healthy replicas so reads spread across the set
	// instead of hammering the top-scored member.
	if n := len(upReps); n > 0 {
		off := int(r.rr.Add(1)) % n
		if off < 0 {
			off += n
		}
		out = append(out, upReps[off:]...)
		out = append(out, upReps[:off]...)
	}
	for _, s := range rest {
		if healthy(s.m) {
			out = append(out, s.m.url)
		}
	}
	// Down or cooling members close the list: better a slow answer from
	// a maybe-dead member than none when the whole ring looks down.
	seen := make(map[string]bool, len(out))
	for _, u := range out {
		seen[u] = true
	}
	for _, s := range scored {
		if !seen[s.m.url] {
			out = append(out, s.m.url)
		}
	}
	r.picks.Add(1)
	mPicks.Inc()
	return out
}

// Outcome classifies one attempt of a routed request. Each comment gives
// Route's health report and whether it tries the next member.
type Outcome int

const (
	Answered          Outcome = iota // any answer but 503/504: success; stop, it is authoritative
	Busy                             // 503: cool for Retry-After (capped); next
	TimedOut                         // 504: no report; stop
	DialFailed                       // the request never reached the member: down; next
	Failed                           // other transport error: down; next only if replay-safe
	FailedAfterOutput                // Failed after bytes reached the caller: down; stop
	Stopped                          // caller gone, callback error, protocol violation: no report; stop
)

// maxCooldown caps how long one 503 keeps a member cooling.
const maxCooldown = 10 * time.Second

// Route sends one request through ident's failover order: try makes
// one attempt on a member and classifies it, and Route makes the health
// report and decides whether to try the next member (see Outcome).
// Side-effecting requests pass replaySafe false. Route returns false
// when every member was tried and sent the request on.
func (r *Ring) Route(ident string, replaySafe bool, try func(member string) (out Outcome, retryAfter time.Duration)) bool {
	for _, m := range r.Order(ident) {
		out, retryAfter := try(m)
		switch out {
		case Answered:
			r.ReportSuccess(m)
		case Busy:
			r.ReportBusy(m, retryAfter)
		case DialFailed, Failed, FailedAfterOutput:
			r.ReportFailure(m)
		}
		if !(out == Busy || out == DialFailed || out == Failed && replaySafe) {
			return true
		}
	}
	return false
}

// Classify maps one HTTP attempt to its Outcome: err is the transport
// error, if any, and status the answer's code otherwise.
func Classify(status int, err error) Outcome {
	var op *net.OpError
	switch {
	case errors.As(err, &op) && op.Op == "dial":
		return DialFailed
	case err != nil:
		return Failed
	case status == http.StatusServiceUnavailable:
		return Busy
	case status == http.StatusGatewayTimeout:
		return TimedOut
	}
	return Answered
}

// ReportFailure records a request-path failure (connect error, reset,
// timeout) against a member: it is marked down immediately — the
// request already paid for the evidence — and counted as a failover.
// The health prober (or a passive ReportSuccess) rejoins it.
func (r *Ring) ReportFailure(url string) {
	m := r.byURL[strings.TrimRight(url, "/")]
	if m == nil {
		return
	}
	r.failovers.Add(1)
	mFailovers.Inc()
	r.markDown(m)
}

// ReportBusy records a 503 from a member, honoring its Retry-After:
// the member is not dead, but Order will not lead with it until
// the cooldown elapses. Counted as a failover (the caller is about to
// try someone else). A non-positive retryAfter applies a minimal
// cooldown so an immediate retry storm cannot form; maxCooldown caps it.
func (r *Ring) ReportBusy(url string, retryAfter time.Duration) {
	m := r.byURL[strings.TrimRight(url, "/")]
	if m == nil {
		return
	}
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	retryAfter = min(retryAfter, maxCooldown)
	r.failovers.Add(1)
	mFailovers.Inc()
	m.coolUntil.Store(r.cfg.now().Add(retryAfter).UnixNano())
}

// ReportSuccess records a request-path success: consecutive-failure
// state resets and a down member rejoins immediately (passive rejoin
// matters when no prober is running).
func (r *Ring) ReportSuccess(url string) {
	m := r.byURL[strings.TrimRight(url, "/")]
	if m == nil {
		return
	}
	m.fails.Store(0)
	m.coolUntil.Store(0)
	r.markUp(m)
}

func (r *Ring) markDown(m *member) {
	if m.down.CompareAndSwap(false, true) {
		r.transDown.Add(1)
		mTransDown.Inc()
		gMembersUp.Add(-1)
		if r.cfg.OnTransition != nil {
			r.cfg.OnTransition(m.url, false)
		}
	}
}

func (r *Ring) markUp(m *member) {
	if m.down.CompareAndSwap(true, false) {
		r.transUp.Add(1)
		mTransUp.Inc()
		gMembersUp.Add(1)
		if r.cfg.OnTransition != nil {
			r.cfg.OnTransition(m.url, true)
		}
	}
}

// Start launches the background health prober; it stops when ctx is
// canceled or Stop is called. Calling Start more than once is a bug.
func (r *Ring) Start(ctx context.Context) {
	go r.run(ctx)
}

// Stop terminates the prober started by Start. Idempotent.
func (r *Ring) Stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
}

func (r *Ring) run(ctx context.Context) {
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	// One immediate sweep so a ring built over a half-dead member list
	// converges before the first interval elapses.
	r.ProbeAll(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-r.stopCh:
			return
		case <-t.C:
			r.ProbeAll(ctx)
		}
	}
}

// ProbeAll health-checks every member once, concurrently, applying the
// consecutive-failure threshold. Exposed so tests and one-shot tools
// can converge the ring without running the background prober.
func (r *Ring) ProbeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, m := range r.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			r.probe(ctx, m)
		}(m)
	}
	wg.Wait()
}

func (r *Ring) probe(ctx context.Context, m *member) {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/healthz", nil)
	if err != nil {
		r.probeFailed(m)
		return
	}
	resp, err := r.cfg.HTTP.Do(req)
	if err != nil {
		r.probeFailed(m)
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.probeFailed(m)
		return
	}
	m.fails.Store(0)
	r.markUp(m)
}

func (r *Ring) probeFailed(m *member) {
	if m.fails.Add(1) >= int32(r.cfg.FailThreshold) {
		r.markDown(m)
	}
}

// Stats snapshots this ring's routing counters.
func (r *Ring) Stats() Stats {
	up := 0
	for _, m := range r.members {
		if !m.down.Load() {
			up++
		}
	}
	return Stats{
		Picks:     r.picks.Load(),
		Failovers: r.failovers.Load(),
		TransUp:   r.transUp.Load(),
		TransDown: r.transDown.Load(),
		MembersUp: up,
	}
}

// rendezvousScore is the highest-random-weight hash of (member, ident):
// FNV-1a over the member URL, a separator, and the ident, finished
// with a splitmix64-style avalanche so near-identical URLs do not
// correlate.
func rendezvousScore(memberURL, ident string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(memberURL); i++ {
		h ^= uint64(memberURL[i])
		h *= prime64
	}
	h ^= 0xff // separator: "ab"+"c" must not collide with "a"+"bc"
	h *= prime64
	for i := 0; i < len(ident); i++ {
		h ^= uint64(ident[i])
		h *= prime64
	}
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
