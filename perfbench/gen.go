package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"

	"xpdl/internal/scenario"
	"xpdl/internal/serve"
)

// Everything xpdld receives is generated here from the run's seed: the
// query pool and its schedule, the edit sequence and the sweep specs.
// The same seed gives the same inputs; nothing depends on timing.

// Query models. liu is the small answer-set model, xs the large one.
const (
	modelLiu = "liu_gpu_server"
	modelXS  = "XScluster"
)

// request is one entry of the query pool: a fully formed HTTP request
// against one model, plus what the oracle needs to check its answer.
type request struct {
	Model  string
	Kind   string // summary element select eval energy batch core-all tree
	Method string
	Path   string // absolute path with query string
	Body   []byte // JSON body for POST requests
	Large  bool   // one of the fixed large answers

	// Oracle inputs.
	Ident    string
	Selector string
	Limit    int
	Expr     string
	Table    string
	Inst     string
	GHz      float64
	Batch    serve.BatchRequest
}

// catalog is what the generator may draw from for one model: element
// identifiers, selectors with at least one match, and the instruction
// table with its instruction names.
type catalog struct {
	Model     string
	Idents    []string
	Selectors []string
	Table     string
	Insts     []string
}

// Expressions every model evaluates without error.
var evalExprs = []string{
	"num_cores() >= %d",
	"num_cores() * %d",
	"total_static_power() + %d",
	"num_cuda_devices() > %d",
	"installed('CUDA') && num_cores() > %d",
	"has_kind('gpu') || %d > 3",
}

// smallKinds is the small-answer mix, drawn uniformly.
var smallKinds = []string{"summary", "element", "select", "eval", "energy", "batch"}

// genPool builds the query pool: perModel small requests for every
// catalog, then the two fixed large answers on XScluster (unlimited
// //core and the tree export), which are always the last two entries.
func genPool(seed int64, cats []catalog, perModel int) []request {
	rng := rand.New(rand.NewSource(seed))
	var pool []request
	for _, c := range cats {
		for i := 0; i < perModel; i++ {
			pool = append(pool, genSmall(rng, c, smallKinds[i%len(smallKinds)]))
		}
	}
	return append(pool,
		request{Model: modelXS, Kind: "core-all", Method: "GET", Large: true, Selector: "//core",
			Path: modelPath(modelXS, "select") + "?q=" + url.QueryEscape("//core")},
		request{Model: modelXS, Kind: "tree", Method: "GET", Large: true, Path: modelPath(modelXS, "tree")},
	)
}

func modelPath(model, endpoint string) string {
	return "/v1/models/" + model + "/" + endpoint
}

func genSmall(rng *rand.Rand, c catalog, kind string) request {
	r := request{Model: c.Model, Kind: kind, Method: "GET"}
	switch kind {
	case "summary":
		r.Path = modelPath(c.Model, "summary")
	case "element":
		r.Ident = c.Idents[rng.Intn(len(c.Idents))]
		r.Path = modelPath(c.Model, "element") + "?ident=" + url.QueryEscape(r.Ident)
	case "select":
		r.Selector, r.Limit = c.Selectors[rng.Intn(len(c.Selectors))], 1+rng.Intn(16)
		r.Path = modelPath(c.Model, "select") + "?q=" + url.QueryEscape(r.Selector) + "&limit=" + strconv.Itoa(r.Limit)
	case "eval":
		r.Method, r.Expr = "POST", genExpr(rng)
		r.Path = modelPath(c.Model, "eval")
		r.Body, _ = json.Marshal(serve.EvalRequest{Expr: r.Expr})
	case "energy":
		r.Table, r.Inst = c.Table, c.Insts[rng.Intn(len(c.Insts))]
		r.GHz = float64(10+rng.Intn(24)) / 10 // 1.0 .. 3.3 GHz
		r.Path = modelPath(c.Model, "energy") + "?table=" + url.QueryEscape(r.Table) +
			"&inst=" + url.QueryEscape(r.Inst) + "&ghz=" + strconv.FormatFloat(r.GHz, 'f', -1, 64)
	case "batch":
		r.Method = "POST"
		n := 2 + rng.Intn(5)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				r.Batch.Ops = append(r.Batch.Ops, serve.BatchOp{Op: "eval", Expr: genExpr(rng)})
			} else {
				r.Batch.Ops = append(r.Batch.Ops, serve.BatchOp{Op: "select",
					Selector: c.Selectors[rng.Intn(len(c.Selectors))], Limit: 1 + rng.Intn(8)})
			}
		}
		r.Path = modelPath(c.Model, "batch")
		r.Body, _ = json.Marshal(r.Batch)
	}
	return r
}

func genExpr(rng *rand.Rand) string {
	return fmt.Sprintf(evalExprs[rng.Intn(len(evalExprs))], 1+rng.Intn(9999))
}

// The schedule holds one large answer in every block of largeEvery
// requests, at a seeded position. Four in five large answers are the
// unlimited //core select and the fifth is the tree, and each kind
// alternates JSON and binary on its own.
//
// The shares follow from the measured latency of each answer kind in the
// open loop on the two-CPU reference host (p50): JSON //core 31-35 ms,
// binary //core 11-16 ms, tree 1.6-2.8 ms in either protocol (it is
// large in bytes but served pre-rendered), every small kind 1.1-2.6 ms.
// JSON //core is the only kind far above the rest, so p99 (the slowest
// 1%) is stable only if it falls inside that kind rather than on its
// boundary with the next. Making JSON //core 2% of requests, twice the
// 1% beyond p99, puts p99 at that kind's median for every seed:
// 1/20 large × 4/5 //core × 1/2 JSON = 2%. The tree keeps the remaining
// 1%, which still gives each protocol about 20 tree answers per run.
const largeEvery = 20

// largeShare is the share of requests that ask for a large answer.
const largeShare = 1.0 / largeEvery

// schedItem is one scheduled request: a pool index and the protocol.
type schedItem struct {
	Entry int
	Bin   bool
}

// genSchedule draws n scheduled requests from a pool whose last two
// entries are the large answers (//core, then tree). Small answers
// alternate JSON and binary by position.
func genSchedule(seed int64, poolSize, n int) []schedItem {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	small := poolSize - 2
	out := make([]schedItem, n)
	var largeAt, cores, trees int
	for i := range out {
		if i%largeEvery == 0 {
			largeAt = i + rng.Intn(largeEvery)
		}
		e := rng.Intn(small)
		switch {
		case i != largeAt:
			out[i] = schedItem{Entry: e, Bin: i%2 == 1}
		case (cores+trees)%5 == 4:
			out[i] = schedItem{Entry: small + 1, Bin: trees%2 == 1}
			trees++
		default:
			out[i] = schedItem{Entry: small, Bin: cores%2 == 1}
			cores++
		}
	}
	return out
}

// editTarget is one descriptor attribute the edit workload rewrites.
// Every target is used by XScluster and is delta-patchable: a bounded
// attribute edit that fans out to every instance and ancestor rollup.
type editTarget struct {
	File string // relative to the models directory
	Type string // descriptor name, the "type" of its instances in the export
	Attr string
}

var editTargets = []editTarget{
	{"cpu/Intel_Xeon_E5_2630L.xpdl", "Intel_Xeon_E5_2630L", "static_power"},
	{"device/Nvidia_K20c.xpdl", "Nvidia_K20c", "static_power"},
	{"device/Nvidia_K40c.xpdl", "Nvidia_K40c", "static_power"},
	{"memory/DDR3_4G.xpdl", "DDR3_4G", "static_power"},
}

// edit is one step of the edit sequence: set Target's attribute to
// Value (a decimal with at most one fractional digit).
type edit struct {
	Target int
	Value  string
}

// editGen yields the seeded edit sequence. It remembers each target's
// current value so that an edit never rewrites the value in place.
type editGen struct {
	rng *rand.Rand
	cur []string
}

func newEditGen(seed int64, initial []string) *editGen {
	return &editGen{rng: rand.New(rand.NewSource(seed ^ 0xed17)), cur: append([]string(nil), initial...)}
}

func (g *editGen) next() edit {
	t := g.rng.Intn(len(g.cur))
	for {
		v := strconv.FormatFloat(float64(10+g.rng.Intn(491))/10, 'f', -1, 64) // 1.0 .. 50.0
		if v != g.cur[t] {
			g.cur[t] = v
			return edit{Target: t, Value: v}
		}
	}
}

// sweepSpecs is how many distinct specs one run cycles through; the
// in-process oracle runs each once.
const sweepSpecs = 3

// genSpecs builds the seeded sweep specs: each is E20's 3×3×24 = 216
// point grid over the GPU cache split and the clock (1.0-3.3 GHz), with a seeded
// divsd count and cache-split value order.
func genSpecs(seed int64, n int) []*scenario.Spec {
	rng := rand.New(rand.NewSource(seed ^ 0x5ee9))
	out := make([]*scenario.Spec, n)
	for i := range out {
		from, to, step := 1.0, 3.3, 0.1
		sizes := []string{"16", "32", "48"}
		rng.Shuffle(len(sizes), func(a, b int) { sizes[a], sizes[b] = sizes[b], sizes[a] })
		counts := map[string]int64{"divsd": int64(1+rng.Intn(100)) * 10000}
		out[i] = &scenario.Spec{
			Params: []scenario.ParamSpec{
				{Name: "L1size", Target: "gpu1", Unit: "KB", Values: append([]string(nil), sizes...)},
				{Name: "shmsize", Target: "gpu1", Unit: "KB", Values: sizes},
				{Name: "freq_ghz", From: &from, To: &to, Step: &step},
			},
			Objectives: []scenario.ObjectiveSpec{
				{Name: "energy_j", Kind: scenario.KindTaskEnergy, Table: "e5_isa", Counts: counts, FreqGHz: "freq_ghz"},
				{Name: "time_s", Kind: scenario.KindTaskTime, Table: "e5_isa", Counts: counts, FreqGHz: "freq_ghz"},
				{Name: "shm", Expr: "shmsize", Sense: scenario.SenseMax},
			},
		}
	}
	return out
}
