package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one xpdld process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string
	args []string
	done chan struct{}

	logMu sync.Mutex
	log   bytes.Buffer
}

// daemonArgs are the flags xpdld runs with: shipped defaults except the
// listen address, the model directory, and no background revalidation
// (a revalidator would race the edit workload's own refreshes).
func daemonArgs(addr, models string) []string {
	return []string{"-addr", addr, "-models", models, "-revalidate", "0"}
}

// freeAddr returns a loopback address with a port that was free a
// moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func startDaemon(bin, models string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + addr, args: daemonArgs(addr, models), done: make(chan struct{})}
	d.cmd = exec.Command(bin, d.args...)
	// The daemon must not outlive the benchmark, even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stdout = d
	d.cmd.Stderr = d
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start xpdld: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // stop reports nothing; an early exit shows in awaitModels
		close(d.done)
	}()
	return d, nil
}

// Write collects the daemon's output for error reports.
func (d *daemon) Write(p []byte) (int, error) {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	if d.log.Len() < 1<<20 {
		d.log.Write(p)
	}
	return len(p), nil
}

func (d *daemon) output() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

// stop asks xpdld to drain (SIGTERM), kills it after a grace period, and
// returns once the process has exited.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// awaitModels polls until the daemon answers and every model is
// resident: the first summary request of a model is its cold load.
func awaitModels(ctx context.Context, t *target, done <-chan struct{}, models []string) error {
	for {
		var h struct{ Status string }
		if err := t.getJSON(ctx, "GET", "/healthz", nil, &h); err == nil && h.Status == "ok" {
			break
		}
		select {
		case <-done:
			return fmt.Errorf("xpdld exited during start-up")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	for _, m := range models {
		var s struct{ Cores int }
		if err := t.getJSON(ctx, "GET", modelPath(m, "summary"), nil, &s); err != nil {
			return fmt.Errorf("load %s: %w", m, err)
		}
	}
	return nil
}

// setupDaemon starts xpdld and times start-up until models are resident
// and answering.
func setupDaemon(ctx context.Context, bin, dir string, models []string) (*daemon, *target, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(bin, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	t := newTarget(d.base)
	actx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := awaitModels(actx, t, d.done, models); err != nil {
		d.stop()
		return nil, nil, 0, fmt.Errorf("%w\n%s", err, d.output())
	}
	return d, t, time.Since(start), nil
}

// liveHeapMB forces a collection in the server and reads its live heap
// from the Prometheus endpoint.
func liveHeapMB(ctx context.Context, t *target) (float64, error) {
	var buf bytes.Buffer
	if _, err := t.do(ctx, "GET", "/debug/pprof/heap?gc=1", nil, false, 0, &buf); err != nil {
		return 0, err
	}
	if _, err := t.do(ctx, "GET", "/metrics", nil, false, 0, &buf); err != nil {
		return 0, err
	}
	return heapFromMetrics(buf.Bytes())
}

func heapFromMetrics(text []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "go_memstats_heap_alloc_bytes "); ok {
			b, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return 0, err
			}
			return b / (1 << 20), nil
		}
	}
	return 0, fmt.Errorf("metrics: no go_memstats_heap_alloc_bytes")
}
