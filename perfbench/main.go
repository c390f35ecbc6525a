// Command perfbench is the repository's benchmark. It builds nothing
// itself: run.sh builds xpdld and this command from the checkout and
// starts it. One invocation runs one workload against the real daemon:
//
//	query  reads on liu_gpu_server and XScluster (open loop, then closed loop)
//	edit   descriptor edits on XScluster followed to a watcher and a reader
//	sweep  216-point scenario sweeps on liu_gpu_server
//
// Inputs come from -seed; every answer is checked against an in-process
// oracle over the same private model copy, and wrong answers count as
// failed operations. With -trace 0 it prints the end-to-end metrics;
// with -trace 1 it hosts the serve stack in-process and prints the
// per-layer metrics (see README.md).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root
	xpdld    string // daemon binary built from root
}

// workloadModels are the models each workload keeps resident.
var workloadModels = map[string][]string{
	"query": {modelLiu, modelXS},
	"edit":  {editModel},
	"sweep": {sweepModel},
}

// editWarmCycles is how many unmeasured edit cycles run before timing
// starts. They keep the one-off costs of the first refreshes after the
// daemon starts out of the measured phase, for about 1.5 s on the
// reference host.
const editWarmCycles = 5

// setupRuns is how many times a run starts xpdld to time set-up; the
// last daemon serves the measured phase.
const setupRuns = 5

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload: query, edit or sweep")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.xpdld, "xpdld", ".bench_build/xpdld", "xpdld binary built from the root")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workloadModels[o.workload]; !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload query|edit|sweep --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range ledger(o) {
		fmt.Println("#", l)
	}
	for _, n := range res.m.notes {
		fmt.Println("#", n)
	}
	for _, p := range res.m.problems {
		fmt.Println("# problem:", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.c.failed == 0 && len(res.m.problems) == 0 && res.c.attempted > 0, res.c.attempted, res.c.failed, res.m.vals})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type runResult struct {
	m *metrics
	c *counts
}

// run prepares a private copy of models/ inside the checkout and runs
// the workload on it; the copy is removed afterwards.
func run(o options) (runResult, error) {
	out := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return runResult{}, err
	}
	work, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return runResult{}, err
	}
	defer os.RemoveAll(work)
	dir := filepath.Join(work, "models")
	if err := copyTree(filepath.Join(o.root, "models"), dir); err != nil {
		return runResult{}, err
	}
	ctx := context.Background()
	res := runResult{m: newMetrics(), c: &counts{}}
	if o.trace {
		err = runTraced(ctx, o, dir, res)
	} else {
		err = runUntraced(ctx, o, dir, res)
	}
	return res, err
}

// dur converts a share of the measured time to a duration.
func (o options) dur(share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

// runUntraced measures the end-to-end metrics against a separate xpdld
// process.
func runUntraced(ctx context.Context, o options, dir string, res runResult) error {
	s, err := newSession(o, dir)
	if err != nil {
		return err
	}
	defer s.close()
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if err := s.startDaemon(ctx); err != nil {
			return err
		}
		setups = append(setups, s.setup.Seconds())
	}
	res.m.set("setup_s", "s", median(setups))
	res.m.note("set-up times %.3f s", setups)
	steal := stealShare()
	if err := s.measure(ctx, o.dur(1), res.m, res.c); err != nil {
		return err
	}
	res.m.note("host steal %.1f%% of CPU time during the measured phase", steal())
	res.m.note("xpdld flags: %s", strings.Join(s.d.args, " "))
	return nil
}

// session is one workload's state across set-up, measurement and
// checking.
type session struct {
	o     options
	dir   string
	d     *daemon // nil in traced runs
	t     *target
	setup time.Duration

	query *queryEnv
}

// newSession prepares the workload's generated inputs and, for query,
// the oracle's expected answers.
func newSession(o options, dir string) (*session, error) {
	s := &session{o: o, dir: dir}
	if o.workload == "query" {
		q, err := buildQuery(dir, o.seed)
		if err != nil {
			return nil, err
		}
		s.query = q
	}
	return s, nil
}

// startDaemon (re)starts xpdld and times its set-up.
func (s *session) startDaemon(ctx context.Context) error {
	if s.d != nil {
		s.t.close()
		s.d.stop()
	}
	d, t, setup, err := setupDaemon(ctx, s.o.xpdld, s.dir, workloadModels[s.o.workload])
	if err != nil {
		return err
	}
	s.d, s.t, s.setup = d, t, setup
	return nil
}

func (s *session) close() {
	if s.t != nil {
		s.t.close()
	}
	if s.d != nil {
		s.d.stop()
	}
}

// measure runs the workload's measured phase against s.t, then reads
// the daemon's live heap and checks what the oracle checks afterwards.
func (s *session) measure(ctx context.Context, dur time.Duration, m *metrics, c *counts) error {
	switch s.o.workload {
	case "query":
		s.query.t = s.t
		if err := s.query.warm(ctx); err != nil {
			return err
		}
		// op_cpu_ms counts the open loop: its requests are a fixed
		// schedule, while the closed loop's count, and with it the mix
		// of the two phases, depends on speed.
		cpu := s.cpuMeter()
		var cpuErr error
		s.query.afterOpen = func(open []sample) { cpuErr = cpu(m, len(open)) }
		res := s.query.measure(ctx, s.o.seed, dur.Seconds())
		if cpuErr != nil {
			return cpuErr
		}
		if err := s.heap(ctx, m); err != nil {
			return err
		}
		res.summarize(s.query.pool, m, c)
	case "edit":
		e, err := newEditEnv(s.t, s.dir, s.o.seed)
		if err != nil {
			return err
		}
		// Unmeasured cycles take the first-refresh costs out of the
		// measured phase.
		if _, _, err := e.measure(ctx, 0, editWarmCycles); err != nil {
			return err
		}
		cpu := s.cpuMeter()
		start := time.Now()
		swaps, events, err := e.measure(ctx, dur, 0)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		if err := cpu(m, len(swaps)); err != nil {
			return err
		}
		if err := s.heap(ctx, m); err != nil {
			return err
		}
		summarizeEdit(swaps, events, wall, m, c)
	case "sweep":
		specs := genSpecs(s.o.seed, sweepSpecs)
		// One unmeasured job warms the daemon's repository.
		if j := runSweep(ctx, s.t, specs, 0); j.err != nil {
			return fmt.Errorf("warm-up sweep: %w", j.err)
		}
		cpu := s.cpuMeter()
		jobs := runSweeps(ctx, s.t, specs, dur)
		if err := cpu(m, len(jobs)); err != nil {
			return err
		}
		if err := s.heap(ctx, m); err != nil {
			return err
		}
		o, err := runSweepOracle(ctx, s.dir, specs, usedSpecs(jobs, len(specs)), nil)
		if err != nil {
			return err
		}
		checkSweeps(jobs, o)
		summarizeSweep(jobs, m, c)
	}
	return nil
}

// cpuMeter starts metering xpdld's CPU time; the returned function
// reports op_cpu_ms, the CPU time used per operation since the start.
// The operations of a workload are its open-loop requests (query), edit
// cycles (edit) or sweep jobs (sweep), failed ones included.
func (s *session) cpuMeter() func(m *metrics, ops int) error {
	pid := s.d.cmd.Process.Pid
	c0, err0 := processCPU(pid)
	return func(m *metrics, ops int) error {
		c1, err := processCPU(pid)
		if err := errors.Join(err0, err); err != nil {
			return fmt.Errorf("xpdld CPU time: %w", err)
		}
		m.set("op_cpu_ms", "ms", ratio(ms(c1-c0), float64(ops)))
		m.note("xpdld used %.2f s of CPU for %d operations", (c1 - c0).Seconds(), ops)
		return nil
	}
}

func (s *session) heap(ctx context.Context, m *metrics) error {
	mb, err := liveHeapMB(ctx, s.t)
	if err != nil {
		return fmt.Errorf("live heap: %w", err)
	}
	m.set("heap_live_mb", "MB", mb)
	return nil
}

// buildQuery generates the query pool from the seed and renders every
// entry's expected answer from an in-process load of the private copy.
func buildQuery(dir string, seed int64) (*queryEnv, error) {
	var (
		cats []catalog
		refs = map[string]*refModel{}
		fps  = map[string]string{}
	)
	for _, id := range workloadModels["query"] {
		r, err := loadRef(dir, id)
		if err != nil {
			return nil, err
		}
		c, err := r.catalog()
		if err != nil {
			return nil, err
		}
		cats = append(cats, c)
		refs[id], fps[id] = r, r.Fingerprint
	}
	pool := genPool(seed, cats, poolPerModel)
	expect := make([][]byte, len(pool))
	for i := range pool {
		b, err := refs[pool[i].Model].expect(&pool[i])
		if err != nil {
			return nil, err
		}
		expect[i] = b
	}
	return &queryEnv{pool: pool, ver: newVerifier(pool, expect, fps)}, nil
}

// copyTree copies a directory of regular files.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// ledger is the run's header: host, toolchain, source and inputs.
func ledger(o options) []string {
	return []string{
		fmt.Sprintf("workload=%s seed=%d seconds=%g trace=%v", o.workload, o.seed, o.seconds, o.trace),
		fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel()),
		fmt.Sprintf("commit=%s src_sha256=%s", commit(o.root), sourceDigest(o.root)),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealShare starts a meter of the CPU time the hypervisor stole from
// this host; the returned function gives the share so far in percent. A
// run slowed by a noisy neighbour shows it here.
func stealShare() func() float64 {
	s0, t0 := cpuTicks()
	return func() float64 {
		s1, t1 := cpuTicks()
		return 100 * ratio(float64(s1-s0), float64(t1-t0))
	}
}

// cpuTicks reads the steal and total tick counts from /proc/stat.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// commit reads HEAD from the checkout's git metadata, if it has any.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(l, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and models the daemon is built and
// run from, so ledgers of checkouts without git metadata still compare.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() && path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod" || strings.HasSuffix(name, ".xpdl")) {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, filepath.ToSlash(rel))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
