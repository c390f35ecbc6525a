package query

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"xpdl/internal/expr"
	"xpdl/internal/rtmodel"
)

// systemModels are the bundled system models the aggregate oracle
// runs on.
var systemModels = []string{"XScluster", "liu_gpu_server", "myriad_server", "myriad_standalone"}

// The walker references below are the tree-walking implementations the
// root aggregates replaced; the oracle holds the aggregates to them.

func installedWalk(s *Session, prefix string) bool {
	found := false
	s.Root().walk(func(x Elem) bool {
		if found {
			return false
		}
		if x.Kind() == "installed" || x.Kind() == "hostOS" {
			if strings.HasPrefix(x.TypeName(), prefix) || strings.HasPrefix(x.Ident(), prefix) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func installedListWalk(s *Session) []string {
	var out []string
	s.Root().walk(func(x Elem) bool {
		if x.Kind() == "installed" || x.Kind() == "hostOS" {
			if t := x.TypeName(); t != "" {
				out = append(out, t)
			} else if id := x.Ident(); id != "" {
				out = append(out, id)
			}
		}
		return true
	})
	return out
}

func hasKindWalk(s *Session, kind string) bool {
	found := false
	s.Root().walk(func(x Elem) bool {
		if x.Kind() == kind {
			found = true
		}
		return !found
	})
	return found
}

// evalNum evaluates a platform-function expression to a number.
func evalNum(t *testing.T, s *Session, src string) float64 {
	t.Helper()
	v, err := expr.Eval(src, s.Env(nil))
	if err != nil {
		t.Fatalf("eval %s: %v", src, err)
	}
	return v.Num
}

func evalBool(t *testing.T, s *Session, src string) bool {
	t.Helper()
	v, err := expr.Eval(src, s.Env(nil))
	if err != nil {
		t.Fatalf("eval %s: %v", src, err)
	}
	return v.Bool
}

// TestAggregatesMatchWalker holds the root aggregates, and the platform
// functions that answer from them, to the walker functions on every
// bundled system model: counts and the summed static power exactly,
// has_kind for every kind present (and one absent), installed for every
// prefix of every installed type and ident.
func TestAggregatesMatchWalker(t *testing.T) {
	sessions := map[string]*Session{"gpu": NewSession(buildModel())}
	if !testing.Short() {
		for _, m := range systemModels {
			sessions[m] = bundledSession(t, m)
		}
	}
	for name, s := range sessions {
		root := s.Root()
		if got, want := s.NumCores(), root.NumCores(); got != want {
			t.Errorf("%s: NumCores %d, walker %d", name, got, want)
		}
		if got, want := evalNum(t, s, "num_cores()"), float64(root.NumCores()); got != want {
			t.Errorf("%s: num_cores() %v, walker %v", name, got, want)
		}
		if got, want := s.NumCUDADevices(), root.NumCUDADevices(); got != want {
			t.Errorf("%s: NumCUDADevices %d, walker %d", name, got, want)
		}
		if got, want := evalNum(t, s, "num_cuda_devices()"), float64(root.NumCUDADevices()); got != want {
			t.Errorf("%s: num_cuda_devices() %v, walker %v", name, got, want)
		}
		if got, want := s.TotalStaticPower(), root.TotalStaticPower(); got != want {
			t.Errorf("%s: TotalStaticPower %v, walker %v", name, got, want)
		}
		if got, want := evalNum(t, s, "total_static_power()"), root.TotalStaticPower().Value; got != want {
			t.Errorf("%s: total_static_power() %v, walker %v", name, got, want)
		}
		if got, want := s.InstalledList(), installedListWalk(s); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: InstalledList %q, walker %q", name, got, want)
		}

		kinds := map[string]bool{"no_such_kind": true}
		prefixes := map[string]bool{"": true, "no_such_package": true}
		m := s.Model()
		for i := range m.Nodes {
			n := &m.Nodes[i]
			kinds[n.Kind] = true
			if n.Kind == "installed" || n.Kind == "hostOS" {
				for _, str := range []string{n.Type, n.Ident()} {
					for j := 0; j <= len(str); j++ {
						prefixes[str[:j]] = true
					}
				}
			}
		}
		for _, kind := range sortedKeys(kinds) {
			want := hasKindWalk(s, kind)
			if got := s.HasKind(kind); got != want {
				t.Errorf("%s: HasKind(%q) %v, walker %v", name, kind, got, want)
			}
			if got := evalBool(t, s, "has_kind('"+kind+"')"); got != want {
				t.Errorf("%s: has_kind(%q) %v, walker %v", name, kind, got, want)
			}
		}
		for _, prefix := range sortedKeys(prefixes) {
			want := installedWalk(s, prefix)
			if got := s.Installed(prefix); got != want {
				t.Errorf("%s: Installed(%q) %v, walker %v", name, prefix, got, want)
			}
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestAggregatesNotAdopted pins that the root aggregates belong to one
// session: a delta-patched successor adopts its predecessor's selector
// indexes, but computes its own aggregates from its own values.
func TestAggregatesNotAdopted(t *testing.T) {
	old := adoptSession("15")
	if got := old.TotalStaticPower().Value; got != 45 {
		t.Fatalf("predecessor static power %v W, want 45", got)
	}
	patched := adoptSession("20")
	if !patched.AdoptIndexes(old) {
		t.Fatal("same-shape adoption refused")
	}
	if got := patched.TotalStaticPower().Value; got != 60 {
		t.Fatalf("patched static power %v W, want 60 (aggregates leaked across sessions)", got)
	}
	if got := evalNum(t, patched, "total_static_power()"); got != 60 {
		t.Fatalf("patched total_static_power() %v, want 60", got)
	}
}

// TestAggregatesEmptyModel: an empty model has no platform, and the
// platform functions say so instead of failing.
func TestAggregatesEmptyModel(t *testing.T) {
	s := NewSession(&rtmodel.Model{})
	if s.NumCores() != 0 || s.NumCUDADevices() != 0 || s.TotalStaticPower().Value != 0 {
		t.Fatal("empty model reports platform figures")
	}
	if got := evalNum(t, s, "num_cores()"); got != 0 {
		t.Fatalf("num_cores() on an empty model: %v", got)
	}
}

// TestWalkAllocFree pins that a subtree walk allocates nothing per
// visited element: NumCores over all of XScluster allocates nothing.
func TestWalkAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("resolves XScluster")
	}
	s := bundledSession(t, "XScluster")
	root := s.Root()
	var n int
	if got := testing.AllocsPerRun(20, func() { n = root.NumCores() }); got != 0 {
		t.Fatalf("Root().NumCores() on XScluster: %.1f allocs/op, want 0", got)
	}
	if n != s.NumCores() {
		t.Fatalf("Root().NumCores() %d, aggregate %d", n, s.NumCores())
	}
}
