package serve

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"xpdl/internal/core"
	"xpdl/internal/model"
	"xpdl/internal/query"
	"xpdl/internal/rtmodel"
)

// modelsDir locates the repository's models/ directory relative to
// this source file.
func modelsDir(t testing.TB) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("caller unknown")
	}
	return filepath.Join(filepath.Dir(file), "..", "..", "models")
}

// newModelServer boots a full stack — toolchain loader, store, HTTP
// server — over the repository's models/ fixture.
func newModelServer(t testing.TB, cfg Config) (*Server, *Store) {
	t.Helper()
	loader, err := NewToolchainLoader(core.Options{SearchPaths: []string{modelsDir(t)}})
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(loader, 0)
	cfg.Store = store
	return NewServer(cfg), store
}

// stubLoader is a Loader whose snapshot content is controlled by the
// test: each model serves a version string both as the root attribute
// "v" and inside the fingerprint, so a reader can detect a torn
// snapshot (fingerprint from one generation, model from another).
type stubLoader struct {
	mu            sync.Mutex
	version       map[string]int
	loads         int
	invalidations int
	delay         time.Duration
}

func newStubLoader() *stubLoader {
	return &stubLoader{version: map[string]int{}}
}

func (l *stubLoader) bumpVersion(ident string) {
	l.mu.Lock()
	l.version[ident]++
	l.mu.Unlock()
}

func (l *stubLoader) Load(ctx context.Context, ident string) (*Snapshot, error) {
	l.mu.Lock()
	v := l.version[ident]
	l.loads++
	delay := l.delay
	l.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	comp := &model.Component{Kind: "system", ID: ident}
	comp.SetAttr("v", model.Attr{Raw: fmt.Sprintf("%d", v)})
	// Version-tied children: every core is named "c<v>", so an indexed
	// select against the current version detects stale per-snapshot
	// indexes (an old index would miss the new name entirely).
	for i := 0; i < 4; i++ {
		core := model.New("core")
		core.ID = fmt.Sprintf("%s-core%d-v%d", ident, i, v)
		core.Name = fmt.Sprintf("c%d", v)
		comp.Children = append(comp.Children, core)
	}
	return &Snapshot{
		Ident:       ident,
		Fingerprint: fmt.Sprintf("fp-%s-%d", ident, v),
		LoadedAt:    time.Now(),
		Session:     query.NewSession(rtmodel.Build(comp)),
	}, nil
}

func (l *stubLoader) Invalidate() {
	l.mu.Lock()
	l.invalidations++
	l.mu.Unlock()
}

func (l *stubLoader) counts() (loads, invalidations int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.loads, l.invalidations
}

// versionOf reads the stub content back out of a snapshot.
func versionOf(t testing.TB, snap *Snapshot) string {
	t.Helper()
	v, ok := snap.Session.Root().GetString("v")
	if !ok {
		t.Fatalf("snapshot %s has no v attribute", snap.Ident)
	}
	return v
}

func TestStoreGetLoadsOnce(t *testing.T) {
	l := newStubLoader()
	st := NewStore(l, 0)
	ctx := context.Background()
	a, err := st.Get(ctx, "m1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Get(ctx, "m1")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Get returned a different snapshot without a swap")
	}
	if loads, _ := l.counts(); loads != 1 {
		t.Fatalf("loads = %d, want 1", loads)
	}
	if a.Gen == 0 {
		t.Fatal("published snapshot has zero generation")
	}
}

func TestStoreConcurrentColdLoadCoalesces(t *testing.T) {
	l := newStubLoader()
	l.delay = 20 * time.Millisecond
	st := NewStore(l, 0)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := st.Get(context.Background(), "m1"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if loads, _ := l.counts(); loads != 1 {
		t.Fatalf("loads = %d, want 1 (cold loads must coalesce)", loads)
	}
}

func TestStoreRefreshSwapsOnlyOnChange(t *testing.T) {
	l := newStubLoader()
	st := NewStore(l, 0)
	ctx := context.Background()
	first, err := st.Get(ctx, "m1")
	if err != nil {
		t.Fatal(err)
	}

	swapped, err := st.Refresh(ctx, "m1")
	if err != nil {
		t.Fatal(err)
	}
	if swapped {
		t.Fatal("unchanged model was swapped")
	}
	cur, _ := st.Peek("m1")
	if cur != first {
		t.Fatal("unchanged refresh replaced the snapshot pointer")
	}

	l.bumpVersion("m1")
	swapped, err = st.Refresh(ctx, "m1")
	if err != nil {
		t.Fatal(err)
	}
	if !swapped {
		t.Fatal("changed model was not swapped")
	}
	cur, _ = st.Peek("m1")
	if cur == first {
		t.Fatal("swap kept the old snapshot")
	}
	if cur.Gen <= first.Gen {
		t.Fatalf("generation did not advance: %d -> %d", first.Gen, cur.Gen)
	}
	if got := versionOf(t, cur); got != "1" {
		t.Fatalf("swapped snapshot serves v=%s, want 1", got)
	}
}

func TestStoreRefreshNonResidentIsNoop(t *testing.T) {
	l := newStubLoader()
	st := NewStore(l, 0)
	swapped, err := st.Refresh(context.Background(), "ghost")
	if err != nil || swapped {
		t.Fatalf("Refresh(ghost) = (%v, %v), want (false, nil)", swapped, err)
	}
	if loads, _ := l.counts(); loads != 0 {
		t.Fatalf("refresh of non-resident model loaded anyway (%d loads)", loads)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	l := newStubLoader()
	st := NewStore(l, 2)
	ctx := context.Background()
	for _, id := range []string{"a", "b", "c"} {
		if _, err := st.Get(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	// "a" is the least recently used and must be gone.
	res := st.Resident()
	if len(res) != 2 || res[0] != "b" || res[1] != "c" {
		t.Fatalf("resident = %v, want [b c]", res)
	}
	if _, ok := st.Peek("a"); ok {
		t.Fatal("evicted model still resident")
	}
	// Serving "b" protects it; loading "d" evicts "c".
	if _, err := st.Get(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	res = st.Resident()
	if len(res) != 2 || res[0] != "b" || res[1] != "d" {
		t.Fatalf("resident = %v, want [b d]", res)
	}
	// An evicted model reloads transparently.
	snap, err := st.Get(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Ident != "a" {
		t.Fatalf("reloaded snapshot = %+v", snap)
	}
}

func TestStoreFailedLoadDoesNotPinSlot(t *testing.T) {
	l := newStubLoader()
	st := NewStore(failingLoader{l}, 0)
	if _, err := st.Get(context.Background(), "bad"); err == nil {
		t.Fatal("expected load error")
	}
	if len(st.Resident()) != 0 {
		t.Fatalf("failed load left residents: %v", st.Resident())
	}
}

// failingLoader fails every load.
type failingLoader struct{ inner *stubLoader }

func (f failingLoader) Load(ctx context.Context, ident string) (*Snapshot, error) {
	return nil, fmt.Errorf("synthetic load failure for %s", ident)
}
func (f failingLoader) Invalidate() {}

func TestRevalidatorCycle(t *testing.T) {
	l := newStubLoader()
	st := NewStore(l, 0)
	ctx := context.Background()
	if _, err := st.Get(ctx, "m1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(ctx, "m2"); err != nil {
		t.Fatal(err)
	}
	var swappedIdents []string
	rv := &Revalidator{Store: st, OnSwap: func(id string) { swappedIdents = append(swappedIdents, id) }}

	rv.Cycle(ctx)
	if len(swappedIdents) != 0 {
		t.Fatalf("unchanged cycle swapped %v", swappedIdents)
	}
	l.bumpVersion("m2")
	rv.Cycle(ctx)
	if len(swappedIdents) != 1 || swappedIdents[0] != "m2" {
		t.Fatalf("swapped = %v, want [m2]", swappedIdents)
	}
	if _, inv := l.counts(); inv != 2 {
		t.Fatalf("invalidations = %d, want 2 (one per cycle)", inv)
	}
	snap, _ := st.Peek("m2")
	if got := versionOf(t, snap); got != "1" {
		t.Fatalf("m2 serves v=%s after swap, want 1", got)
	}
}

// TestToolchainLoaderFingerprintStable: loading the same system twice
// yields the same fingerprint, so the revalidator can skip the swap.
func TestToolchainLoaderFingerprintStable(t *testing.T) {
	loader, err := NewToolchainLoader(core.Options{SearchPaths: []string{modelsDir(t)}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := loader.Load(ctx, "myriad_standalone")
	if err != nil {
		t.Fatal(err)
	}
	loader.Invalidate()
	b, err := loader.Load(ctx, "myriad_standalone")
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprint changed across identical loads: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	if a.Session == b.Session {
		t.Fatal("reloaded snapshot shares the Session with the previous one")
	}
}
