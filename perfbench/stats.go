package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// minBeyond is the number of samples a reported percentile must have
// beyond it; a percentile resting on fewer is not reported.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100). ok is false when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

// pctOr0 is percentile for log lines: 0 when there are no samples.
func pctOr0(xs []float64, p float64) float64 {
	v, _ := percentile(xs, p)
	return v
}

func median(xs []float64) float64 { return pctOr0(xs, 50) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's reported values, ledger notes and problems:
// wrong answers found after the operations were counted.
type metrics struct {
	vals     map[string]metric
	notes    []string
	problems []string
	// opP50 is the workload's median operation wall time in ms, the
	// end-to-end figure the traced run reconciles its layers with.
	opP50 float64
}

func newMetrics() *metrics { return &metrics{vals: map[string]metric{}} }

func (m *metrics) set(name, unit string, v float64) { m.vals[name] = metric{Value: v, Unit: unit} }

// wall notes the p-th percentile of the wall times xs (ms) in the
// ledger under the name the workload was specified with. Wall times are
// reported but are not result metrics: on a shared host a noisy
// neighbour moves them by more than any bound a comparison could use
// (see README.md), so the result line carries op_cpu_ms instead.
func (m *metrics) wall(name string, xs []float64, p float64) float64 {
	v, ok := percentile(xs, p)
	warn := ""
	if !ok {
		warn = fmt.Sprintf(" (warning: fewer than %d samples beyond p%g)", minBeyond, p)
	}
	m.note("%s %.3f ms: p%g of %d%s", name, v, p, len(xs), warn)
	return v
}

func (m *metrics) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// counts tallies operations; every failure is a wrong or missing answer.
type counts struct {
	attempted, failed int64
	shown             int
}

func (c *counts) add(err error) {
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if c.shown < 5 {
		c.shown++
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", err)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ratio is a/b, or 0 when b is 0 (a run whose operations all failed),
// so that the result line stays valid JSON.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
