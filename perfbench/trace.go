package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"xpdl/internal/analysis"
	"xpdl/internal/delta"
	"xpdl/internal/expr"
	"xpdl/internal/model"
	"xpdl/internal/obs"
	"xpdl/internal/query"
	"xpdl/internal/repo"
	"xpdl/internal/resolve"
	"xpdl/internal/rtmodel"
	"xpdl/internal/scenario"
	"xpdl/internal/serve"
)

// The traced run hosts the serve stack in-process and times calls into
// each layer's public functions from here; the program itself carries
// no extra tracing. Three kinds of timing feed it:
//   - wrappers around public seams: the daemon's http.Handler and the
//     store's Loader (Load, LoadDelta);
//   - client-side timestamps of the same workload code the untraced
//     run uses;
//   - replays of a layer's public functions on the served data, for
//     layers the wrappers cannot isolate (resolve, analysis, rtmodel,
//     query plan and execute, delta capture and apply, the sweep engine).

// tracer collects the in-process timings.
type tracer struct {
	mu      sync.Mutex
	handler map[int64]time.Duration  // tagged request id -> ServeHTTP time
	first   map[string]time.Duration // untagged path -> first ServeHTTP time
	loads   map[string]time.Duration // model -> Loader.Load time
	deltas  map[int64]time.Duration  // refresh request id -> LoadDelta time
}

func newTracer() *tracer {
	return &tracer{handler: map[int64]time.Duration{}, first: map[string]time.Duration{},
		loads: map[string]time.Duration{}, deltas: map[int64]time.Duration{}}
}

type reqIDKey struct{}

// timedHandler wraps the daemon's handler and records each request's
// ServeHTTP time.
type timedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.ParseInt(r.Header.Get(idHeader), 10, 64)
	if id > 0 {
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id))
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(start)
	h.tr.mu.Lock()
	if id > 0 {
		h.tr.handler[id] = d
	} else if _, ok := h.tr.first[r.URL.Path]; !ok {
		h.tr.first[r.URL.Path] = d
	}
	h.tr.mu.Unlock()
}

// tracingLoader wraps the toolchain loader; the embedded loader still
// provides Invalidate and Repo.
type tracingLoader struct {
	*serve.ToolchainLoader
	tr *tracer
}

func (l *tracingLoader) Load(ctx context.Context, ident string) (*serve.Snapshot, error) {
	start := time.Now()
	s, err := l.ToolchainLoader.Load(ctx, ident)
	d := time.Since(start)
	l.tr.mu.Lock()
	l.tr.loads[ident] += d
	l.tr.mu.Unlock()
	return s, err
}

func (l *tracingLoader) LoadDelta(ctx context.Context, old *serve.Snapshot) (*serve.DeltaResult, error) {
	start := time.Now()
	res, err := l.ToolchainLoader.LoadDelta(ctx, old)
	d := time.Since(start)
	if id, ok := ctx.Value(reqIDKey{}).(int64); ok {
		l.tr.mu.Lock()
		l.tr.deltas[id] = d
		l.tr.mu.Unlock()
	}
	return res, err
}

// host is the in-process serve stack, configured with xpdld's shipped
// defaults.
type host struct {
	tr    *tracer
	store *serve.Store
	srv   *serve.Server
	http  *http.Server
	done  chan struct{}
}

func startHost(dir string, tr *tracer) (*host, string, error) {
	query.DefaultPlanCache().SetCapacity(1024)
	loader, err := serve.NewToolchainLoader(toolchainOptions(dir))
	if err != nil {
		return nil, "", err
	}
	store := serve.NewStore(&tracingLoader{loader, tr}, 0)
	srv := serve.NewServer(serve.Config{
		Store:          store,
		RequestTimeout: 10 * time.Second,
		MaxInFlight:    256,
		AllowRefresh:   true,
		WatchBuffer:    16,
		TraceSample:    0.1,
		MaxTraces:      256,
		SlowRequest:    500 * time.Millisecond,
		Logger:         obs.NewLogger(io.Discard, obs.LevelInfo, "text"),
		JobQueue:       16,
		JobConcurrency: 2,
		JobTTL:         15 * time.Minute,
		MaxJobs:        64,
	})
	loader.Repo().PublishMetrics(obs.Default())
	obs.RegisterRuntimeMetrics(obs.Default())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	h := &host{tr: tr, store: store, srv: srv, done: make(chan struct{}),
		http: &http.Server{Handler: timedHandler{srv, tr}, ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout: 30 * time.Second, WriteTimeout: 40 * time.Second, IdleTimeout: 2 * time.Minute}}
	go func() {
		defer close(h.done)
		_ = h.http.Serve(l)
	}()
	return h, "http://" + l.Addr().String(), nil
}

// stop shuts the host down the way xpdld does and waits for it.
func (h *host) stop() {
	h.srv.Close()
	h.store.CloseWatchers()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_ = h.http.Shutdown(ctx)
	<-h.done
}

func (h *host) handlerTime(id int64) (time.Duration, bool) {
	h.tr.mu.Lock()
	defer h.tr.mu.Unlock()
	d, ok := h.tr.handler[id]
	return d, ok
}

// retainedMB runs fn between two forced collections and returns the
// live-heap growth it left behind.
func retainedMB(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&b)
	return (float64(b.HeapAlloc) - float64(a.HeapAlloc)) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runTraced is the -trace 1 run. It measures the workload untraced for
// half the time against xpdld, for the tracing-overhead comparison,
// then traced in-process for the other half, then probes the other two
// workloads briefly so that every per-layer metric is reported.
func runTraced(ctx context.Context, o options, dir string, res runResult) error {
	s, err := newSession(o, dir)
	if err != nil {
		return err
	}
	if err := s.startDaemon(ctx); err != nil {
		return err
	}
	um := newMetrics()
	err = s.measure(ctx, o.dur(0.5), um, res.c)
	s.close()
	if err != nil {
		return err
	}
	untracedSetup := s.setup
	res.m.note("xpdld flags (untraced half): %s", strings.Join(s.d.args, " "))

	tr := newTracer()
	start := time.Now()
	h, base, err := startHost(dir, tr)
	if err != nil {
		return err
	}
	defer h.stop()
	t := newTarget(base)
	defer t.close()
	models := workloadModels[o.workload]
	setup := time.Since(start)
	// The forced collections around the cold loads stay out of the set-up time.
	snapMB := retainedMB(func() {
		start := time.Now()
		err = awaitModels(ctx, t, nil, models)
		setup += time.Since(start)
	})
	if err != nil {
		return err
	}
	ts := &tracedSession{o: o, dir: dir, h: h, t: t, m: res.m, c: res.c}
	if err := ts.setupLayers(ctx, models, snapMB, setup, untracedSetup); err != nil {
		return err
	}
	probe := 1.5 // seconds per probe of a workload this run does not measure
	for _, w := range []string{"query", "edit", "sweep"} {
		main := w == o.workload
		var (
			rc  recon
			err error
		)
		secs := probe
		if main {
			secs = o.seconds / 2
		}
		switch w {
		case "query":
			rc, err = ts.query(ctx, secs)
		case "edit":
			rc, err = ts.edit(ctx, secs)
		case "sweep":
			rc, err = ts.sweep(ctx, secs)
		}
		if err != nil {
			return fmt.Errorf("traced %s: %w", w, err)
		}
		if main {
			rc.untraced = um.opP50
		}
		rc.report(res.m, main)
	}
	return nil
}

// recon reconciles one workload's end-to-end median with its layers.
type recon struct {
	workload string
	e2e      float64 // traced end-to-end median, ms
	untraced float64 // untraced end-to-end median, ms (0 when not measured)
	layers   []layerPart
}

type layerPart struct {
	name string
	ms   float64
}

func (r recon) sum() float64 {
	s := 0.0
	for _, p := range r.layers {
		s += p.ms
	}
	return s
}

// report prints the reconciliation; for the run's own workload it also
// sets the recon.* metrics.
func (r recon) report(m *metrics, main bool) {
	line := fmt.Sprintf("recon %s: e2e p50 %.3f ms = layers %.3f ms + remainder %.3f ms (", r.workload, r.e2e, r.sum(), r.e2e-r.sum())
	for i, p := range r.layers {
		if i > 0 {
			line += ", "
		}
		line += fmt.Sprintf("%s %.3f", p.name, p.ms)
	}
	line += ")"
	if r.untraced > 0 {
		line += fmt.Sprintf("; untraced p50 %.3f ms, tracing overhead %+.1f%%", r.untraced, 100*(r.e2e/r.untraced-1))
	}
	m.note("%s", line)
	if main {
		m.set("recon.e2e_ms", "ms", r.e2e)
		m.set("recon.layer_sum_ms", "ms", r.sum())
		m.set("recon.remainder_ms", "ms", r.e2e-r.sum())
		m.set("recon.overhead_pct", "%", 100*(ratio(r.e2e, r.untraced)-1))
	}
}

// tracedSession runs the workloads against the in-process host.
type tracedSession struct {
	o   options
	dir string
	h   *host
	t   *target
	m   *metrics
	c   *counts
}

// setupLayers replays core.ProcessContext's call order through the
// public functions for each model and reports the set-up layers.
func (ts *tracedSession) setupLayers(ctx context.Context, models []string, snapMB float64, setup, untraced time.Duration) error {
	var repoT, resolveT, analysisT, buildT, indexT, loadT, prepT time.Duration
	var treeMB, modelMB float64
	for _, id := range models {
		snap, ok := ts.h.store.Peek(id)
		if !ok {
			return fmt.Errorf("%s is not resident", id)
		}
		ts.h.tr.mu.Lock()
		load := ts.h.tr.loads[id]
		first := ts.h.tr.first[modelPath(id, "summary")]
		ts.h.tr.mu.Unlock()
		loadT += load
		prepT += first - load

		start := time.Now()
		r, err := repo.New(ts.dir)
		if err != nil {
			return err
		}
		root, err := r.LoadContext(ctx, id)
		if err != nil {
			return err
		}
		var present []string
		for _, ref := range repo.ReferencedTypes(root) {
			if r.Has(ref) {
				present = append(present, ref)
			}
		}
		if err := r.PrefetchContext(ctx, present, 8); err != nil {
			return err
		}
		repoT += time.Since(start)

		var sys *model.Component
		treeMB += retainedMB(func() {
			start = time.Now()
			sys, err = resolve.New(r).ResolveSystem(id)
			resolveT += time.Since(start)
			if err != nil {
				return
			}
			start = time.Now()
			analysis.Annotate(sys, analysis.DefaultRules())
			analysis.DowngradeBandwidth(sys)
			analysis.Filter(sys, analysis.DropUnknown)
			analysis.Summarize(sys)
			analysisT += time.Since(start)
		})
		if err != nil {
			return err
		}
		var rt *rtmodel.Model
		modelMB += retainedMB(func() {
			start = time.Now()
			rt = rtmodel.Build(sys)
			buildT += time.Since(start)
		})
		start = time.Now()
		query.NewSession(rt).BuildIndexes()
		indexT += time.Since(start)
		fp, err := fingerprint(rt)
		if err != nil {
			return err
		}
		ts.c.attempted++
		if fp != snap.Fingerprint {
			ts.c.failed++
			ts.m.problems = append(ts.m.problems, fmt.Sprintf("replayed %s fingerprint %s, served %s", id, fp, snap.Fingerprint))
		}
		runtime.KeepAlive(sys)
	}
	m := ts.m
	m.set("serve.load_ms", "ms", ms(loadT))
	m.set("serve.prepare_ms", "ms", ms(prepT))
	m.set("repo.load_ms", "ms", ms(repoT))
	m.set("resolve.system_ms", "ms", ms(resolveT))
	m.set("analysis.pass_ms", "ms", ms(analysisT))
	m.set("rtmodel.build_ms", "ms", ms(buildT))
	m.set("query.index_build_ms", "ms", ms(indexT))
	m.set("resolve.tree_mb", "MB", treeMB)
	m.set("rtmodel.model_mb", "MB", modelMB)
	m.set("serve.preser_mb", "MB", snapMB-treeMB-modelMB)
	m.note("recon setup: e2e %.3f ms = load %.3f ms + prepare %.3f ms + remainder %.3f ms; untraced %.3f ms, tracing overhead %+.1f%%",
		ms(setup), ms(loadT), ms(prepT), ms(setup-loadT-prepT), ms(untraced), 100*(setup.Seconds()/untraced.Seconds()-1))
	return nil
}

// query runs the query workload against the host and derives the request
// path's layers.
func (ts *tracedSession) query(ctx context.Context, secs float64) (recon, error) {
	q, err := buildQuery(ts.dir, ts.o.seed)
	if err != nil {
		return recon{}, err
	}
	q.t, q.trace = ts.t, true
	if err := q.warm(ctx); err != nil {
		return recon{}, err
	}
	res := q.measure(ctx, ts.o.seed, secs)
	for _, s := range append(res.open, res.closed...) {
		ts.c.add(s.err)
	}
	plan, exec := ts.replayQuery(q.pool)

	var handler, large, transport, self, planS, execS, execL, lat, late []float64
	for _, s := range res.open {
		hd, ok := ts.h.handlerTime(s.id)
		if s.err != nil || !ok {
			continue
		}
		lat = append(lat, msBetween(s.due, s.done))
		late = append(late, msBetween(s.due, s.sent))
		rtt := s.done.Sub(s.sent)
		transport = append(transport, us(rtt-hd))
		p, e := plan[s.entry], exec[s.entry]
		if q.pool[s.entry].Large {
			large = append(large, us(hd))
			if e > 0 {
				execL = append(execL, us(e))
			}
			continue
		}
		handler = append(handler, us(hd))
		self = append(self, us(hd-p-e))
		if p > 0 {
			planS = append(planS, us(p))
		}
		if e > 0 {
			execS = append(execS, us(e))
		}
	}
	m := ts.m
	m.set("serve.handler_us", "us", median(handler))
	m.set("serve.handler_large_us", "us", median(large))
	m.set("serve.transport_us", "us", median(transport))
	m.set("serve.handler_self_us", "us", median(self))
	m.set("query.plan_us", "us", median(planS))
	m.set("query.execute_us", "us", median(execS))
	m.set("query.execute_large_us", "us", median(execL))
	m.set("query.find_ns", "ns", ts.replayFind(q.pool))
	m.set("loadgen.late_ms", "ms", pctOr0(late, 99))
	allHandler := append(append([]float64(nil), handler...), large...)
	return recon{workload: "query", e2e: median(lat), layers: []layerPart{
		{"loadgen.late", median(late)},
		{"serve.transport", median(transport) / 1000},
		{"serve.handler", median(allHandler) / 1000},
	}}, nil
}

// replayQuery times query.Compile and Plan.Run (and expr.Eval for eval
// operations) for every pool entry on the served snapshot, keeping the
// fastest of a few repetitions.
func (ts *tracedSession) replayQuery(pool []request) (plan, exec []time.Duration) {
	plan, exec = make([]time.Duration, len(pool)), make([]time.Duration, len(pool))
	for i := range pool {
		r := &pool[i]
		snap, ok := ts.h.store.Peek(r.Model)
		if !ok {
			continue
		}
		var sels, exprs []string
		switch r.Kind {
		case "select", "core-all":
			sels = []string{r.Selector}
		case "eval":
			exprs = []string{r.Expr}
		case "batch":
			for _, op := range r.Batch.Ops {
				if op.Op == "eval" {
					exprs = append(exprs, op.Expr)
				} else {
					sels = append(sels, op.Selector)
				}
			}
		default:
			continue
		}
		reps := 5
		if r.Large {
			reps = 2
		}
		for k := 0; k < reps; k++ {
			var p, e time.Duration
			for _, sel := range sels {
				start := time.Now()
				pl, err := query.Compile(sel)
				p += time.Since(start)
				if err != nil {
					continue
				}
				start = time.Now()
				_, _ = pl.Run(snap.Session)
				e += time.Since(start)
			}
			for _, x := range exprs {
				start := time.Now()
				_, _ = expr.Eval(x, snap.Session.Env(nil))
				e += time.Since(start)
			}
			if k == 0 || p < plan[i] {
				plan[i] = p
			}
			if k == 0 || e < exec[i] {
				exec[i] = e
			}
		}
	}
	return plan, exec
}

// replayFind times Session.Find over the element lookups of the pool
// (paper E6: the cost of one introspection call), in ns per call.
func (ts *tracedSession) replayFind(pool []request) float64 {
	var n int
	start := time.Now()
	for rep := 0; rep < 200; rep++ {
		for i := range pool {
			if pool[i].Kind != "element" {
				continue
			}
			if snap, ok := ts.h.store.Peek(pool[i].Model); ok {
				snap.Session.Find(pool[i].Ident)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// edit runs the edit workload against the host, replaying the delta
// stages and the export render after every cycle.
func (ts *tracedSession) edit(ctx context.Context, secs float64) (recon, error) {
	var s0 struct{ Cores int }
	if err := ts.t.getJSON(ctx, "GET", modelPath(editModel, "summary"), nil, &s0); err != nil {
		return recon{}, err
	}
	e, err := newEditEnv(ts.t, ts.dir, ts.o.seed)
	if err != nil {
		return recon{}, err
	}
	e.trace = true
	rp, err := newDeltaReplay(ts.dir, ts.h.store)
	if err != nil {
		return recon{}, err
	}
	e.after = func(s swap) {
		if err := rp.step(s); err != nil {
			ts.m.problems = append(ts.m.problems, "delta replay: "+err.Error())
		}
	}
	swaps, events, err := e.measure(ctx, time.Duration(secs*float64(time.Second)), 2)
	if err != nil {
		return recon{}, err
	}
	var lat, write, rtrans, ld, pub, notify, exp []float64
	var refreshes, patched int
	for _, s := range swaps {
		ts.c.add(s.err)
		if s.answered {
			refreshes++
		}
		if s.patched {
			patched++
		}
		if s.err != nil {
			continue
		}
		lat = append(lat, msBetween(s.written, s.event))
		hd, ok1 := ts.h.handlerTime(s.refreshID)
		rd, ok2 := ts.h.handlerTime(s.readID)
		ts.h.tr.mu.Lock()
		dd, ok3 := ts.h.tr.deltas[s.refreshID]
		ts.h.tr.mu.Unlock()
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		write = append(write, msBetween(s.written, s.refreshSent))
		rtrans = append(rtrans, ms(s.refreshed.Sub(s.refreshSent)-hd))
		ld = append(ld, ms(dd))
		pub = append(pub, ms(hd-dd))
		notify = append(notify, msBetween(s.refreshed, s.event))
		exp = append(exp, ms(rd))
	}
	if events != len(swaps) {
		ts.c.failed++
		ts.m.problems = append(ts.m.problems, fmt.Sprintf("traced edit: %d watch events for %d swaps", events, len(swaps)))
	}
	m := ts.m
	m.set("serve.loaddelta_ms", "ms", median(ld))
	m.set("serve.publish_ms", "ms", median(pub))
	m.set("serve.notify_ms", "ms", median(notify))
	m.set("serve.export_first_ms", "ms", median(exp))
	m.set("serve.watch_events_per_swap", "events/swap", ratio(float64(events), float64(len(swaps))))
	m.set("delta.patched_ratio", "ratio", ratio(float64(patched), float64(refreshes)))
	m.set("delta.capture_ms", "ms", median(rp.capture))
	m.set("delta.analyze_ms", "ms", median(rp.analyze))
	m.set("delta.apply_ms", "ms", median(rp.apply))
	m.set("rtmodel.export_render_ms", "ms", median(rp.render))
	return recon{workload: "edit", e2e: median(lat), layers: []layerPart{
		{"write", median(write)},
		{"serve.transport", median(rtrans)},
		{"serve.loaddelta", median(ld)},
		{"serve.publish", median(pub)},
		{"serve.notify", median(notify)},
	}}, nil
}

// deltaReplay re-runs the delta stages through the delta package's
// public functions on its own repository over the same files, after
// each cycle, and checks that they land on the served fingerprint.
type deltaReplay struct {
	r     *repo.Repository
	store *serve.Store
	set   *delta.Set
	snap  *serve.Snapshot

	capture, analyze, apply, render []float64
}

func newDeltaReplay(dir string, store *serve.Store) (*deltaReplay, error) {
	r, err := repo.New(dir)
	if err != nil {
		return nil, err
	}
	p := &deltaReplay{r: r, store: store}
	if p.set, err = p.captureSet(); err != nil {
		return nil, err
	}
	var ok bool
	if p.snap, ok = store.Peek(editModel); !ok {
		return nil, fmt.Errorf("%s is not resident", editModel)
	}
	return p, nil
}

func (p *deltaReplay) captureSet() (*delta.Set, error) {
	return delta.Capture(editModel, func(id string) (*model.Component, error) {
		return p.r.LoadContext(context.Background(), id)
	})
}

func (p *deltaReplay) step(s swap) error {
	cur, ok := p.store.Peek(editModel)
	if !ok {
		return fmt.Errorf("%s is not resident", editModel)
	}
	old := p.snap
	p.snap = cur
	if s.err != nil {
		set, err := p.captureSet()
		p.set = set
		return err
	}
	p.r.Invalidate()
	start := time.Now()
	set, err := p.captureSet()
	p.capture = append(p.capture, ms(time.Since(start)))
	if err != nil {
		return err
	}
	start = time.Now()
	an := delta.Analyze(p.set, set, nil)
	p.analyze = append(p.analyze, ms(time.Since(start)))
	p.set = set
	if an.Outcome != delta.Patchable {
		return fmt.Errorf("gen %d: replayed analysis outcome %d, want patchable", s.gen, an.Outcome)
	}
	start = time.Now()
	rt, _ := delta.ApplyRT(old.Session.Model(), editModel, an.Plan, nil)
	p.apply = append(p.apply, ms(time.Since(start)))
	if fp, err := fingerprint(rt); err != nil || fp != cur.Fingerprint {
		return fmt.Errorf("gen %d: replayed patch fingerprint %s, served %s", s.gen, fp, cur.Fingerprint)
	}
	start = time.Now()
	err = cur.Session.Model().WriteJSON(io.Discard)
	p.render = append(p.render, ms(time.Since(start)))
	return err
}

// sweep runs the sweep workload against the host and the oracle with an
// OnPoint timer.
func (ts *tracedSession) sweep(ctx context.Context, secs float64) (recon, error) {
	specs := genSpecs(ts.o.seed, sweepSpecs)
	jobs := runSweeps(ctx, ts.t, specs, time.Duration(secs*float64(time.Second)))
	var (
		mu     sync.Mutex
		last   time.Time
		points []float64
	)
	o, err := runSweepOracle(ctx, ts.dir, specs, usedSpecs(jobs, len(specs)), func(int, scenario.PointResult) {
		mu.Lock()
		now := time.Now()
		if !last.IsZero() {
			points = append(points, ms(now.Sub(last)))
		}
		last = now
		mu.Unlock()
	})
	if err != nil {
		return recon{}, err
	}
	checkSweeps(jobs, o)
	var lat, wait, tailT []float64
	fast, skipped, total := 0.0, 0, 0
	for _, j := range jobs {
		ts.c.add(j.err)
		if j.err != nil {
			continue
		}
		lat = append(lat, msBetween(j.submitted, j.fetched))
		wait = append(wait, msBetween(j.submitted, j.firstPoint))
		tailT = append(tailT, msBetween(j.lastPoint, j.fetched))
		if o.fast[j.spec] {
			fast = 1
		}
		skipped += o.skipped[j.spec]
		total += sweepPoints
	}
	// Intervals span runs; a gap between two oracle runs is not a point.
	pt := meanBelow(points, 1000)
	m := ts.m
	m.set("scenario.point_ms", "ms", pt)
	m.set("scenario.skipped_ratio", "ratio", ratio(float64(skipped), float64(total)))
	m.set("scenario.fastpath", "flag", fast)
	m.set("serve.job_wait_ms", "ms", median(wait))
	return recon{workload: "sweep", e2e: median(lat), layers: []layerPart{
		{"serve.job_wait", median(wait)},
		{"scenario.points", pt * (sweepPoints - 1)},
		{"serve.result_fetch", median(tailT)},
	}}, nil
}

// meanBelow averages the values under limit.
func meanBelow(xs []float64, limit float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if x < limit {
			s += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
