package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"xpdl/internal/scenario"
	"xpdl/internal/shard"
)

// RouterClient is the client-side routing tier over a cluster of xpdld
// members: every call hashes the model ident to its replica set on a
// rendezvous ring (shard.Ring), spreads reads across healthy replicas,
// and fails over — transparently, inside one call — by the ring's
// failover table (shard.Ring.Route). Callers use it exactly like a
// Client pointed at a single daemon; the cluster is invisible until
// every member of it is unreachable.
type RouterClient struct {
	ring    *shard.Ring
	clients map[string]*Client
}

// RouterConfig builds a RouterClient. Only Members is required; the
// shard knobs default as in shard.Config.
type RouterConfig struct {
	// Members are the xpdld base URLs forming the cluster.
	Members []string
	// Replicas is the per-model placement factor R (default 2).
	Replicas int
	// Proto selects the wire protocol for every member client.
	Proto Proto
	// HTTP overrides the transport for member clients and health
	// probes (tests inject httptest clients); nil means the tuned
	// SharedTransport.
	HTTP *http.Client
	// ProbeInterval / ProbeTimeout / FailThreshold tune the health
	// prober, as in shard.Config.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	FailThreshold int
	// OnTransition observes member health changes (logging hook).
	OnTransition func(member string, up bool)
}

// NewRouterClient wires a routing client over cfg.Members. Call Start
// to run the background health prober; without it, membership is
// driven purely by per-request outcomes (which is often enough: a dead
// member is discovered by the first request that trips over it).
func NewRouterClient(cfg RouterConfig) (*RouterClient, error) {
	ring, err := shard.New(shard.Config{
		Members:       cfg.Members,
		Replicas:      cfg.Replicas,
		ProbeInterval: cfg.ProbeInterval,
		ProbeTimeout:  cfg.ProbeTimeout,
		FailThreshold: cfg.FailThreshold,
		HTTP:          cfg.HTTP,
		OnTransition:  cfg.OnTransition,
	})
	if err != nil {
		return nil, err
	}
	rc := &RouterClient{ring: ring, clients: map[string]*Client{}}
	for _, st := range ring.Members() {
		c := NewClient(st.URL)
		c.Proto = cfg.Proto
		c.HTTP = cfg.HTTP
		rc.clients[st.URL] = c
	}
	return rc, nil
}

// Start launches the ring's background health prober (stops with ctx
// or Stop).
func (rc *RouterClient) Start(ctx context.Context) { rc.ring.Start(ctx) }

// Stop terminates the prober. Idempotent.
func (rc *RouterClient) Stop() { rc.ring.Stop() }

// Ring exposes the routing ring for stats and member introspection.
func (rc *RouterClient) Ring() *shard.Ring { return rc.ring }

// route sends op through ident's failover order (shard.Ring.Route).
// cl, when not nil, records what op handed the caller.
func (rc *RouterClient) route(ctx context.Context, ident string, replaySafe bool, cl *caller, op func(*Client) error) error {
	var err error
	if rc.ring.Route(ident, replaySafe, func(base string) (shard.Outcome, time.Duration) {
		err = op(rc.clients[base])
		var se *apiStatusError
		var cte *ContentTypeError
		switch {
		case err == nil:
			return shard.Answered, 0
		case ctx.Err() != nil, errors.As(err, &cte), cl != nil && cl.err != nil:
			return shard.Stopped, 0
		case errors.As(err, &se):
			return shard.Classify(se.Status, nil), se.RetryAfter
		case cl != nil && cl.n > 0:
			return shard.FailedAfterOutput, 0
		}
		return shard.Classify(0, err), 0
	}) {
		return err
	}
	return fmt.Errorf("all members failed for %q: %w", ident, err)
}

// routeVal adapts route to calls returning a value.
func routeVal[T any](ctx context.Context, rc *RouterClient, ident string, op func(*Client) (T, error)) (T, error) {
	var out T
	err := rc.route(ctx, ident, true, nil, func(c *Client) (err error) {
		out, err = op(c)
		return err
	})
	return out, err
}

// Model fetches one model's info from any healthy replica.
func (rc *RouterClient) Model(ctx context.Context, ident string) (ModelInfo, error) {
	return routeVal(ctx, rc, ident, func(c *Client) (ModelInfo, error) { return c.Model(ctx, ident) })
}

// Summary fetches the derived-analysis roll-up.
func (rc *RouterClient) Summary(ctx context.Context, ident string) (SummaryResponse, error) {
	return routeVal(ctx, rc, ident, func(c *Client) (SummaryResponse, error) { return c.Summary(ctx, ident) })
}

// Element looks up one element by qualified name.
func (rc *RouterClient) Element(ctx context.Context, ident, elem string) (ElementJSON, error) {
	return routeVal(ctx, rc, ident, func(c *Client) (ElementJSON, error) { return c.Element(ctx, ident, elem) })
}

// Select evaluates a path selector.
func (rc *RouterClient) Select(ctx context.Context, ident, selector string, limit int) (SelectResponse, error) {
	return routeVal(ctx, rc, ident, func(c *Client) (SelectResponse, error) { return c.Select(ctx, ident, selector, limit) })
}

// Eval evaluates a constraint expression.
func (rc *RouterClient) Eval(ctx context.Context, ident, expression string, vars map[string]any) (EvalResponse, error) {
	return routeVal(ctx, rc, ident, func(c *Client) (EvalResponse, error) { return c.Eval(ctx, ident, expression, vars) })
}

// Batch executes many operations against one snapshot in one round
// trip — on whichever replica answers.
func (rc *RouterClient) Batch(ctx context.Context, ident string, req BatchRequest) (BatchResponse, error) {
	return routeVal(ctx, rc, ident, func(c *Client) (BatchResponse, error) { return c.Batch(ctx, ident, req) })
}

// EnergyAt interpolates one instruction's energy at a frequency.
func (rc *RouterClient) EnergyAt(ctx context.Context, ident, table, inst string, ghz float64) (EnergyResponse, error) {
	return routeVal(ctx, rc, ident, func(c *Client) (EnergyResponse, error) { return c.EnergyAt(ctx, ident, table, inst, ghz) })
}

// Transfer prices a payload over one interconnect channel.
func (rc *RouterClient) Transfer(ctx context.Context, ident, channel string, bytes, messages int64) (TransferResponse, error) {
	return routeVal(ctx, rc, ident, func(c *Client) (TransferResponse, error) { return c.Transfer(ctx, ident, channel, bytes, messages) })
}

// Dispatch asks whichever replica answers which variant to run.
func (rc *RouterClient) Dispatch(ctx context.Context, ident string, req DispatchRequest) (DispatchResponse, error) {
	return routeVal(ctx, rc, ident, func(c *Client) (DispatchResponse, error) { return c.Dispatch(ctx, ident, req) })
}

// Tree streams the plain-text model tree into w. Once bytes have
// reached w, a member failure ends the call with its error instead of
// failing over, so w never holds parts of two bodies.
func (rc *RouterClient) Tree(ctx context.Context, ident string, w io.Writer) error {
	cl := &caller{w: w}
	return rc.route(ctx, ident, true, cl, func(c *Client) error { return c.Tree(ctx, ident, cl) })
}

// caller records what a routed call handed its caller: n bytes written
// to the caller's writer w, and err, the caller's own failure (its
// writer's or callback's), which ends the call without a health report.
type caller struct {
	w   io.Writer
	n   int
	err error
}

func (cl *caller) Write(p []byte) (int, error) {
	n, err := cl.w.Write(p)
	cl.n += n
	cl.err = err
	return n, err
}

// Sweep submits a parameter sweep. The job lives on the member that
// accepted it; poll it through a direct Client against that member.
// Submitting is side-effecting (ReplaySafe).
func (rc *RouterClient) Sweep(ctx context.Context, ident string, spec scenario.Spec) (SweepAccepted, string, error) {
	var acc SweepAccepted
	var member string
	err := rc.route(ctx, ident, ReplaySafe(http.MethodPost, "/v1/models/"+url.PathEscape(ident)+"/sweep"), nil, func(c *Client) (err error) {
		if acc, err = c.Sweep(ctx, ident, spec); err == nil {
			member = c.Base
		}
		return err
	})
	return acc, member, err
}

// Watch follows ident's generation events on one pinned replica (the
// member Client reconnects to the same member with Last-Event-ID on
// drops). If that member dies outright — its reconnect budget spends
// out — Watch moves to the next member and restarts from since=0:
// sequence numbers are per-member, so a cursor cannot carry across.
// The restart replays the new member's buffered history; callers must
// treat (member switch ⇒ possible duplicate generations) as at-least-
// once delivery.
func (rc *RouterClient) Watch(ctx context.Context, ident string, since uint64, fn func(WatchEvent) error) error {
	cl := &caller{} // events do not count as output: delivery is at-least-once
	return rc.route(ctx, ident, true, cl, func(c *Client) error {
		err := c.Watch(ctx, ident, since, func(ev WatchEvent) error {
			cl.err = fn(ev)
			return cl.err
		})
		since = 0 // cursors are per-member
		return err
	})
}
