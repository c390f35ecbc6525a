package serve

import (
	"context"
	"time"

	"xpdl/internal/delta"
	"xpdl/internal/model"
	"xpdl/internal/obs"
	"xpdl/internal/query"
)

// Delta-refresh metrics. The fallback counter is labeled by the refusal
// reason so operators can see *why* full resolves still happen.
var (
	mDeltaPatched = obs.Default().Counter("xpdl_delta_patched_total",
		"Refreshes published through the in-place delta patch path.")
	mDeltaUnchanged = obs.Default().Counter("xpdl_delta_unchanged_total",
		"Delta refreshes that proved the descriptor closure unchanged without resolving.")
)

// deltaFallbacks returns the per-reason fallback counter. Reasons are
// the delta package's refusal taxonomy (structural, params, override,
// unbounded) plus the serve-side ones: "config" (toolchain options the
// patch path cannot honor), "state" (no captured closure on the old
// snapshot), "error" (capture or patch failed).
func deltaFallbacks(reason string) *obs.Counter {
	return obs.Default().CounterWith("xpdl_delta_fallback_total",
		"Delta refreshes that fell back to a full resolve, by reason.",
		"reason", reason)
}

// DeltaOutcome classifies one incremental refresh.
type DeltaOutcome int

// Delta refresh outcomes.
const (
	// DeltaUnchanged: the descriptor closure is byte-identical (or the
	// patched model fingerprints equal); keep the old snapshot.
	DeltaUnchanged DeltaOutcome = iota
	// DeltaPatched: Snap was produced by patching the old snapshot's
	// runtime model in place of a full resolve.
	DeltaPatched
	// DeltaFull: the change was out of the patch path's bounds; Snap is
	// a full resolve and Reason names the fallback taxon.
	DeltaFull
)

// DeltaResult is a DeltaLoader's refresh verdict.
type DeltaResult struct {
	Outcome DeltaOutcome
	// Snap is the snapshot to publish (the old one for DeltaUnchanged).
	Snap *Snapshot
	// Reason is the fallback taxon; set only for DeltaFull.
	Reason string
	// Changed lists the descriptor identifiers whose content changed
	// (DeltaPatched only).
	Changed []string
}

// DeltaLoader is a Loader that can refresh incrementally against a
// previous snapshot. The store prefers LoadDelta over Load on refresh
// when the loader implements it.
type DeltaLoader interface {
	Loader
	LoadDelta(ctx context.Context, old *Snapshot) (*DeltaResult, error)
}

// LoadDelta refreshes old.Ident incrementally: it re-captures the
// descriptor closure, diffs it against the closure behind old, and —
// when the change is a bounded attribute edit — patches old's runtime
// model (delta.ApplyRT: type-matched attribute edits plus the flagged
// runtime-level re-analyses) and fingerprints the result, without
// re-running the resolver or touching a composed tree. Anything the
// analysis cannot bound falls back to a full load, with the reason
// recorded on the result.
func (l *ToolchainLoader) LoadDelta(ctx context.Context, old *Snapshot) (*DeltaResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "load.delta")
	if sp == nil {
		sp = l.Span.Start("load.delta")
	}
	sp.SetAttr("system", old.Ident)
	defer sp.Stop()

	full := func(reason string) (*DeltaResult, error) {
		sp.Event("delta fallback (%s): full resolve", reason)
		snap, err := l.loadLocked(ctx, old.Ident)
		if err != nil {
			return nil, err
		}
		return &DeltaResult{Outcome: DeltaFull, Snap: snap, Reason: reason}, nil
	}

	// Microbenchmarking, tailored configs and custom rule sets all move
	// the pipeline beyond what the patch path reproduces.
	if l.opts.RunMicrobenchmarks || l.opts.Config != nil || l.opts.Rules != nil {
		return full("config")
	}
	if old.descs == nil {
		return full("state")
	}
	newSet, err := delta.Capture(old.Ident, func(id string) (*model.Component, error) {
		return l.tc.Repo.LoadContext(ctx, id)
	})
	if err != nil {
		return full("error")
	}
	an := delta.Analyze(old.descs, newSet, nil)
	switch an.Outcome {
	case delta.Unchanged:
		sp.Event("descriptor closure unchanged (%d descriptors)", len(newSet.Descs))
		return &DeltaResult{Outcome: DeltaUnchanged, Snap: old}, nil
	case delta.Fallback:
		return full(an.Reason)
	}
	rt, n := delta.ApplyRT(old.Session.Model(), old.Ident, an.Plan, nil)
	fp, err := fingerprintOf(rt)
	if err != nil {
		return full("error")
	}
	if fp == old.Fingerprint {
		// The descriptor edit did not reach the runtime model (e.g. the
		// changed attribute was filtered out); nothing to republish.
		sp.Event("patched model fingerprints equal; keeping old snapshot")
		return &DeltaResult{Outcome: DeltaUnchanged, Snap: old}, nil
	}
	sp.Event("delta patch: %d attribute edits", n)
	snap := &Snapshot{
		Ident:       old.Ident,
		Fingerprint: fp,
		LoadedAt:    time.Now(),
		Session:     query.NewSession(rt),
		descs:       newSet,
	}
	return &DeltaResult{Outcome: DeltaPatched, Snap: snap, Changed: an.Changed}, nil
}
