package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// queryRate is the open-loop phase's fixed arrival rate in requests per
// second. It is part of the workload's definition (BENCHMARK.json
// states it) and is never derived from a run. It was derived once, on
// the two-CPU reference host, from two bounds:
//
//   - From below, sample count: p99 should have at least 40 samples
//     beyond it (four times the ten-sample rule), so the open-loop phase
//     needs 4000 requests. At queryOpenShare of a 25-second run
//     (17.5 s) that takes at least 229 req/s.
//   - From above, headroom: an open-loop sweep at 60, 125, 250, 375 and
//     500 req/s (two seeds each) gave p50 1.4-1.7 ms and p99 33-44 ms at
//     every rate while the host lost under 13% of its CPU to steal. But
//     at 375 req/s with 18% steal p99 rose to 111 ms, and at 500 req/s
//     with 21% steal the queue ran away (p99 474 ms). 250 req/s held
//     p99 at 44 ms with 12% steal.
//
// 250 req/s is the round rate between the two bounds. It is about a
// quarter of the closed-loop capacity of the mix on two connections
// (770-980 req/s in the same sweep).
const queryRate = 250

// queryOpenShare is the share of the measured time spent in the
// open-loop phase; the closed loop gets the rest. The open loop takes
// most of the time because its p99 needs the samples (see queryRate).
// The closed loop's rate settles within a few seconds: its remaining
// 7.5 s of a 25-second run make 4500 to 8300 requests.
const queryOpenShare = 0.7

// poolPerModel is the number of small requests generated per model.
const poolPerModel = 60

// sample is one timed request.
type sample struct {
	entry int
	bin   bool
	id    int64
	due   time.Time // open loop: when it was due; closed loop: when sent
	sent  time.Time
	done  time.Time
	err   error
}

// queryEnv drives the query workload against one target.
type queryEnv struct {
	t     *target
	pool  []request
	ver   *verifier
	ids   atomic.Int64
	trace bool // tag requests with ids for the traced join
	// afterOpen, when set, is called as soon as the open-loop phase
	// ends, before the closed loop starts.
	afterOpen func(open []sample)
}

// send runs one scheduled request and checks its answer.
func (q *queryEnv) send(ctx context.Context, it schedItem, due time.Time, buf *bytes.Buffer) sample {
	r := &q.pool[it.Entry]
	s := sample{entry: it.Entry, bin: it.Bin, due: due}
	if q.trace {
		s.id = q.ids.Add(1)
	}
	s.sent = time.Now()
	a, err := q.t.do(ctx, r.Method, r.Path, r.Body, it.Bin, s.id, buf)
	s.done = time.Now()
	if err == nil {
		err = q.ver.check(it.Entry, it.Bin, &a)
	}
	s.err = err
	return s
}

// warm sends every pool entry once in each protocol before timing
// starts: answers are verified and the daemon's lazily built state
// (plan cache, element answers) is filled.
func (q *queryEnv) warm(ctx context.Context) error {
	var buf bytes.Buffer
	for i := range q.pool {
		for _, bin := range []bool{false, true} {
			if s := q.send(ctx, schedItem{Entry: i, Bin: bin}, time.Now(), &buf); s.err != nil {
				return fmt.Errorf("warm-up: %w", s.err)
			}
		}
	}
	return nil
}

// openLoop sends sched[i] at start + i/rate on up to maxConns
// connections. A request waiting for a free connection is late; its
// latency still counts from its due time.
func (q *queryEnv) openLoop(ctx context.Context, sched []schedItem, rate int, dur time.Duration) []sample {
	n := int(dur.Seconds() * float64(rate))
	if n > len(sched) {
		n = len(sched)
	}
	period := time.Second / time.Duration(rate)
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	return q.workers(func(buf *bytes.Buffer, out []sample) []sample {
		for {
			i := int(next.Add(1) - 1)
			if i >= n || ctx.Err() != nil {
				return out
			}
			due := start.Add(time.Duration(i) * period)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			out = append(out, q.send(ctx, sched[i], due, buf))
		}
	})
}

// closedLoop keeps maxConns requests in flight for dur and returns the
// samples with the phase's wall time.
func (q *queryEnv) closedLoop(ctx context.Context, sched []schedItem, dur time.Duration) ([]sample, time.Duration) {
	start := time.Now()
	end := start.Add(dur)
	var next atomic.Int64
	out := q.workers(func(buf *bytes.Buffer, out []sample) []sample {
		for time.Now().Before(end) && ctx.Err() == nil {
			i := int(next.Add(1)-1) % len(sched)
			out = append(out, q.send(ctx, sched[i], time.Now(), buf))
		}
		return out
	})
	return out, time.Since(start)
}

// workers runs loop on maxConns goroutines and merges their samples.
func (q *queryEnv) workers(loop func(*bytes.Buffer, []sample) []sample) []sample {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all []sample
	)
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			out := loop(&buf, nil)
			mu.Lock()
			all = append(all, out...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// queryResult is what one measured query phase yields.
type queryResult struct {
	open, closed []sample
	closedWall   time.Duration
}

func (q *queryEnv) measure(ctx context.Context, seed int64, seconds float64) queryResult {
	openDur := time.Duration(seconds * queryOpenShare * float64(time.Second))
	closedDur := time.Duration(seconds*float64(time.Second)) - openDur
	sched := genSchedule(seed, len(q.pool), int(openDur.Seconds()*queryRate)+1)
	var res queryResult
	res.open = q.openLoop(ctx, sched, queryRate, openDur)
	if q.afterOpen != nil {
		q.afterOpen(res.open)
	}
	res.closed, res.closedWall = q.closedLoop(ctx, genSchedule(seed+1, len(q.pool), 1<<14), closedDur)
	return res
}

// summarize turns the samples into end-to-end metrics and operation
// counts.
func (res queryResult) summarize(pool []request, m *metrics, c *counts) {
	var lat, coreJSON, late []float64
	for _, s := range res.open {
		c.add(s.err)
		if s.err != nil {
			continue
		}
		ms := msBetween(s.due, s.done)
		lat = append(lat, ms)
		late = append(late, msBetween(s.due, s.sent))
		if pool[s.entry].Kind == "core-all" && !s.bin {
			coreJSON = append(coreJSON, ms)
		}
	}
	ok := 0
	for _, s := range res.closed {
		c.add(s.err)
		if s.err == nil {
			ok++
		}
	}
	m.opP50 = m.wall("query_p50_ms", lat, 50)
	m.wall("query_p99_ms", lat, 99)
	m.wall("core_json_p50_ms", coreJSON, 50)
	m.note("query_rps %.3f 1/s: closed loop, %d requests in %.3f s", ratio(float64(ok), res.closedWall.Seconds()), ok, res.closedWall.Seconds())
	m.note("loadgen late p99 %.3f ms, %d open-loop samples at %d req/s, %d JSON //core; closed loop %d requests",
		pctOr0(late, 99), len(lat), queryRate, len(coreJSON), ok)
	byKind := map[string][]float64{}
	for _, s := range res.open {
		if s.err == nil {
			k := pool[s.entry].Kind + map[bool]string{false: "/json", true: "/bin"}[s.bin]
			byKind[k] = append(byKind[k], msBetween(s.due, s.done))
		}
	}
	for _, k := range sortedKeys(byKind) {
		m.note("open loop %s: %d requests, p50 %.3f ms, max %.3f ms", k, len(byKind[k]), median(byKind[k]), pctOr0(byKind[k], 100))
	}
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }
