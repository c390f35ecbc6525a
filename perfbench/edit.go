package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync/atomic"
	"time"

	"xpdl/internal/serve"
)

// editModel is the model the edit workload rewrites under its readers.
const editModel = modelXS

// swap is one timed edit cycle.
type swap struct {
	target      int
	value       string
	gen         uint64
	answered    bool      // the refresh answer decoded
	patched     bool      // the refresh answer reported a delta swap
	written     time.Time // just before the descriptor write
	refreshSent time.Time // refresh request about to be sent
	refreshed   time.Time // refresh answer received
	event       time.Time // matching watch event received
	readStart   time.Time // post-swap /json request sent
	readDone    time.Time // last byte of the export read
	refreshID   int64
	readID      int64
	err         error
}

// watchEvent is a decoded watch event with its receipt time.
type watchEvent struct {
	serve.WatchEvent
	at time.Time
}

// editEnv drives the edit workload: one editor connection plus one
// watch stream.
type editEnv struct {
	t     *target
	dir   string // private models directory
	gen   *editGen
	files [][]byte         // current contents of each edit target's descriptor
	attrs []*regexp.Regexp // each edit target's attribute pattern
	ids   atomic.Int64
	trace bool
	after func(swap) // traced runs: called after every cycle
}

func attrPattern(attr string) *regexp.Regexp {
	return regexp.MustCompile(`\b` + attr + `="([^"]*)"`)
}

// newEditEnv reads the edit targets' current values from the private
// copy and seeds the edit sequence with them.
func newEditEnv(t *target, dir string, seed int64) (*editEnv, error) {
	e := &editEnv{t: t, dir: dir}
	var initial []string
	for _, tg := range editTargets {
		b, err := os.ReadFile(filepath.Join(dir, tg.File))
		if err != nil {
			return nil, err
		}
		re := attrPattern(tg.Attr)
		m := re.FindSubmatch(b)
		if m == nil {
			return nil, fmt.Errorf("%s: no %s attribute", tg.File, tg.Attr)
		}
		e.files = append(e.files, b)
		e.attrs = append(e.attrs, re)
		initial = append(initial, string(m[1]))
	}
	e.gen = newEditGen(seed, initial)
	return e, nil
}

// apply writes one edit to the private descriptor copy.
func (e *editEnv) apply(ed edit) error {
	tg := editTargets[ed.Target]
	b := e.files[ed.Target]
	loc := e.attrs[ed.Target].FindSubmatchIndex(b)
	nb := append(append(append([]byte(nil), b[:loc[2]]...), ed.Value...), b[loc[3]:]...)
	e.files[ed.Target] = nb
	return os.WriteFile(filepath.Join(e.dir, tg.File), nb, 0o644)
}

// measure runs edit cycles for dur, and at least minCycles of them. It
// returns the cycles and the number of watch events received for
// generations after the start.
func (e *editEnv) measure(ctx context.Context, dur time.Duration, minCycles int) ([]swap, int, error) {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Sized far beyond the swaps one run can make, so the stream reader
	// never waits on the editor.
	events := make(chan watchEvent, 4096)
	opened := make(chan uint64, 1)
	streamErr := make(chan error, 1)
	go func() {
		defer close(events)
		streamErr <- e.t.stream(wctx, modelPath(editModel, "watch")+"?since=0",
			func(resp *http.Response) {
				g, _ := strconv.ParseUint(resp.Header.Get("X-Xpdl-Generation"), 10, 64)
				opened <- g
			},
			func(ev sseEvent) bool {
				if ev.typ != "change" {
					return true
				}
				var we serve.WatchEvent
				if err := json.Unmarshal(ev.data, &we); err != nil {
					return false
				}
				events <- watchEvent{we, ev.at}
				return true
			})
	}()
	var g0 uint64
	select {
	case g0 = <-opened:
	case err := <-streamErr:
		return nil, 0, fmt.Errorf("watch: %w", err)
	case <-time.After(10 * time.Second):
		return nil, 0, fmt.Errorf("watch: stream did not open")
	}

	seen := 0 // events for generations after g0
	next := func(deadline <-chan time.Time) (watchEvent, error) {
		for {
			select {
			case ev, ok := <-events:
				if !ok {
					return watchEvent{}, fmt.Errorf("watch stream ended")
				}
				if ev.Generation <= g0 {
					continue // history replayed on subscribe
				}
				seen++
				return ev, nil
			case <-deadline:
				return watchEvent{}, fmt.Errorf("no watch event within 10s")
			}
		}
	}

	var (
		out []swap
		buf bytes.Buffer
	)
	end := time.Now().Add(dur)
	for (len(out) < minCycles || time.Now().Before(end)) && ctx.Err() == nil {
		s := e.cycle(ctx, next, &buf)
		out = append(out, s)
		if e.after != nil {
			e.after(s)
		}
		if s.err != nil && s.gen == 0 {
			break // the daemon stopped answering; later cycles would only repeat it
		}
	}
	// Collect stragglers: a second event for a swap arrives right after
	// the first.
	time.Sleep(50 * time.Millisecond)
	cancel()
	for ev := range events {
		if ev.Generation > g0 {
			seen++
		}
	}
	return out, seen, nil
}

// cycle makes one edit and follows it to the watcher and the reader.
func (e *editEnv) cycle(ctx context.Context, next func(<-chan time.Time) (watchEvent, error), buf *bytes.Buffer) swap {
	ed := e.gen.next()
	s := swap{target: ed.Target, value: ed.Value}
	if e.trace {
		s.refreshID, s.readID = e.ids.Add(1), e.ids.Add(1)
	}
	s.written = time.Now()
	if s.err = e.apply(ed); s.err != nil {
		return s
	}
	s.refreshSent = time.Now()
	a, err := e.t.do(ctx, "POST", modelPath(editModel, "refresh"), nil, false, s.refreshID, buf)
	s.refreshed = time.Now()
	if err != nil {
		s.err = err
		return s
	}
	var rr serve.RefreshResponse
	if err := json.Unmarshal(a.body, &rr); err != nil {
		s.err = err
		return s
	}
	s.gen, s.answered, s.patched = rr.Generation, true, rr.Swapped && rr.Delta
	if !s.patched {
		s.err = fmt.Errorf("refresh %d: swapped=%v delta=%v, want a delta swap", s.gen, rr.Swapped, rr.Delta)
		return s
	}
	ev, err := next(time.After(10 * time.Second))
	s.event = ev.at
	if err != nil {
		s.err = err
		return s
	}
	if ev.Generation != s.gen || ev.Fingerprint == "" || !ev.Delta {
		s.err = fmt.Errorf("watch event gen %d delta=%v, want delta gen %d", ev.Generation, ev.Delta, s.gen)
		return s
	}
	s.readStart = time.Now()
	a, err = e.t.do(ctx, "GET", modelPath(editModel, "json"), nil, false, s.readID, buf)
	s.readDone = time.Now()
	switch {
	case err != nil:
		s.err = err
	case a.gen != s.gen || a.fp != ev.Fingerprint:
		s.err = fmt.Errorf("export gen %d fingerprint %s, watch event said gen %d fingerprint %s", a.gen, a.fp, s.gen, ev.Fingerprint)
	case !exportHas(a.body, editTargets[ed.Target].Type, editTargets[ed.Target].Attr, ed.Value):
		s.err = fmt.Errorf("export gen %d: %s %s is not %s", s.gen, editTargets[ed.Target].Type, editTargets[ed.Target].Attr, ed.Value)
	}
	return s
}

// exportHas reports whether the first instance of typeName in a JSON
// export carries attr with the given numeric value.
func exportHas(body []byte, typeName, attr, value string) bool {
	want, err := strconv.ParseFloat(value, 64)
	if err != nil {
		return false
	}
	i := bytes.Index(body, []byte(`"type": "`+typeName+`"`))
	if i < 0 {
		return false
	}
	node := body[i:]
	if k := bytes.Index(node, []byte(`"kind": `)); k >= 0 {
		node = node[:k] // this node's own fields end where the first child starts
	}
	j := bytes.Index(node, []byte(`"`+attr+`": {`))
	if j < 0 {
		return false
	}
	rest := node[j:]
	v := bytes.Index(rest, []byte(`"value": `))
	if v < 0 {
		return false
	}
	rest = rest[v+len(`"value": `):]
	n := bytes.IndexAny(rest, ",\n}")
	if n < 0 {
		return false
	}
	got, err := strconv.ParseFloat(string(bytes.TrimSpace(rest[:n])), 64)
	return err == nil && got == want
}

// summarizeEdit turns the cycles into end-to-end metrics.
func summarizeEdit(swaps []swap, events int, wall time.Duration, m *metrics, c *counts) {
	var lat, read []float64
	for _, s := range swaps {
		c.add(s.err)
		if s.err != nil {
			continue
		}
		lat = append(lat, msBetween(s.written, s.event))
		read = append(read, msBetween(s.readStart, s.readDone))
	}
	if events != len(swaps) {
		c.failed++ // the watch stream must carry exactly one event per swap
		m.problems = append(m.problems, fmt.Sprintf("%d watch events for %d swaps", events, len(swaps)))
	}
	m.opP50 = m.wall("swap_p50_ms", lat, 50)
	m.wall("swap_p80_ms", lat, editTailPct)
	m.wall("export_after_swap_ms", read, 50)
	m.note("swaps_per_s %.3f 1/s; %d swaps, %d watch events", ratio(float64(len(lat)), wall.Seconds()), len(swaps), events)
	for i, tg := range editTargets {
		var xs []float64
		for _, s := range swaps {
			if s.err == nil && s.target == i {
				xs = append(xs, msBetween(s.written, s.event))
			}
		}
		m.note("edit %s: %d swaps, p50 %.3f ms", tg.Type, len(xs), median(xs))
	}
}

// editTailPct is the swap-latency tail percentile in the ledger: a
// 25-second run makes 60 to 115 swaps, so p80 keeps ten samples beyond
// it on a slower host too.
const editTailPct = 80
