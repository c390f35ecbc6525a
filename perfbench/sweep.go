package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"xpdl/internal/repo"
	"xpdl/internal/scenario"
	"xpdl/internal/serve"
)

// sweepModel is the model the sweep workload explores.
const sweepModel = modelLiu

// sweepPoints is the grid size of every generated spec (3×3×24).
const sweepPoints = 216

// sweepJob is one timed sweep job.
type sweepJob struct {
	spec       int
	submitted  time.Time
	firstPoint time.Time
	lastPoint  time.Time
	terminal   time.Time
	fetched    time.Time
	points     int
	result     []byte // compact JSON of the job's scenario.Result
	err        error
}

// sweepJobs is how many measured jobs a run makes. The count is fixed
// rather than set by the deadline because xpdld keeps every finished job,
// with its result and point events, for its job TTL (15 minutes by
// default) and refuses new ones once it holds 64: with a fixed count
// the retained set behind heap_live_mb is the same on every commit, and a
// faster engine can never fill the job table. 20 jobs took 17 to 24 s
// on the two-CPU reference host, inside a 25-second run.
const sweepJobs = 20

// runSweeps submits up to sweepJobs jobs one at a time, cycling through
// specs, and follows each to its result. It stops early when dur has
// passed.
func runSweeps(ctx context.Context, t *target, specs []*scenario.Spec, dur time.Duration) []sweepJob {
	var out []sweepJob
	end := time.Now().Add(dur)
	for i := 0; i < sweepJobs && time.Now().Before(end) && ctx.Err() == nil; i++ {
		j := runSweep(ctx, t, specs, i%len(specs))
		out = append(out, j)
		if j.err != nil && j.points == 0 {
			break
		}
	}
	return out
}

func runSweep(ctx context.Context, t *target, specs []*scenario.Spec, spec int) sweepJob {
	j := sweepJob{spec: spec}
	body, err := json.Marshal(specs[spec])
	if err != nil {
		j.err = err
		return j
	}
	j.submitted = time.Now()
	var acc serve.SweepAccepted
	if j.err = t.getJSON(ctx, "POST", modelPath(sweepModel, "sweep"), body, &acc); j.err != nil {
		return j
	}
	if acc.Total != sweepPoints {
		j.err = fmt.Errorf("sweep %s: %d points, want %d", acc.Job, acc.Total, sweepPoints)
		return j
	}
	state := ""
	err = t.stream(ctx, "/v1/jobs/"+acc.Job+"/stream", nil, func(ev sseEvent) bool {
		switch ev.typ {
		case "point":
			if j.points == 0 {
				j.firstPoint = ev.at
			}
			j.points++
			j.lastPoint = ev.at
			return true
		case "done", "failed", "canceled":
			state, j.terminal = ev.typ, ev.at
			return false
		}
		return true
	})
	if err != nil {
		j.err = err
		return j
	}
	var info struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	j.err = t.getJSON(ctx, "GET", "/v1/jobs/"+acc.Job+"?points=1", nil, &info)
	j.fetched = time.Now()
	switch {
	case j.err != nil:
	case state != "done" || info.State != "done":
		j.err = fmt.Errorf("sweep %s ended %q/%q", acc.Job, state, info.State)
	case j.points != sweepPoints:
		j.err = fmt.Errorf("sweep %s streamed %d points, want %d", acc.Job, j.points, sweepPoints)
	default:
		var b bytes.Buffer
		if j.err = json.Compact(&b, info.Result); j.err == nil {
			j.result = b.Bytes()
		}
	}
	return j
}

// sweepOracle runs each spec in-process over the same repository copy.
// onPoint, when set, receives every point callback of every run.
type sweepOracle struct {
	results [][]byte // compact JSON per spec
	fast    []bool
	skipped []int
}

func runSweepOracle(ctx context.Context, dir string, specs []*scenario.Spec, used []bool, onPoint func(int, scenario.PointResult)) (*sweepOracle, error) {
	o := &sweepOracle{results: make([][]byte, len(specs)), fast: make([]bool, len(specs)), skipped: make([]int, len(specs))}
	for i, spec := range specs {
		if !used[i] {
			continue
		}
		r, err := repo.New(dir)
		if err != nil {
			return nil, err
		}
		eng := &scenario.Engine{Repo: r, Workers: runtime.GOMAXPROCS(0)}
		if onPoint != nil {
			i := i
			eng.OnPoint = func(p scenario.PointResult) { onPoint(i, p) }
		}
		res, err := eng.Run(ctx, sweepModel, spec)
		if err != nil {
			return nil, fmt.Errorf("oracle sweep %d: %w", i, err)
		}
		if o.results[i], err = json.Marshal(res); err != nil {
			return nil, err
		}
		o.fast[i], o.skipped[i] = res.FastPath, res.Skipped
	}
	return o, nil
}

// checkSweeps compares every job's result with the oracle's.
func checkSweeps(jobs []sweepJob, o *sweepOracle) {
	for i := range jobs {
		j := &jobs[i]
		if j.err == nil && !bytes.Equal(j.result, o.results[j.spec]) {
			j.err = fmt.Errorf("sweep result for spec %d differs from the in-process engine", j.spec)
		}
	}
}

func usedSpecs(jobs []sweepJob, n int) []bool {
	used := make([]bool, n)
	for _, j := range jobs {
		used[j.spec] = true
	}
	return used
}

// summarizeSweep turns the jobs into end-to-end metrics.
func summarizeSweep(jobs []sweepJob, m *metrics, c *counts) {
	var lat, fetch []float64
	var points int
	var wall time.Duration
	for _, j := range jobs {
		c.add(j.err)
		if j.err != nil {
			continue
		}
		lat = append(lat, msBetween(j.submitted, j.fetched))
		fetch = append(fetch, msBetween(j.terminal, j.fetched))
		points += j.points
		wall += j.fetched.Sub(j.submitted)
	}
	// A run completes at most sweepJobs = 20 jobs, so the median is the
	// highest percentile with ten samples beyond it.
	m.opP50 = m.wall("sweep_job_p50_ms", lat, 50)
	m.wall("result_fetch_p50_ms", fetch, 50)
	m.note("sweep_points_per_s %.3f 1/s; %d jobs, %d points", ratio(float64(points), wall.Seconds()), len(lat), points)
}
