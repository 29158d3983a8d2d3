package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"indexedrec/internal/workload"
	"indexedrec/ir"
)

// fakePlan is a CachedPlan of a declared size, for exercising the LRU
// bookkeeping without compiling anything.
type fakePlan int64

func (p fakePlan) SizeBytes() int64 { return int64(p) }

func newBareCache(t *testing.T, maxBytes int64) (*PlanCache, *serverMetrics) {
	t.Helper()
	m := newServerMetrics(NewRegistry(), func() float64 { return 0 }, 1)
	return NewPlanCache(maxBytes, m.planCacheMetrics()), m
}

// TestPlanCacheLRU drives the cache directly: byte accounting, recency
// order, eviction of the least-recently-used entry, and the oversized-plan
// admission rule.
func TestPlanCacheLRU(t *testing.T) {
	c, m := newBareCache(t, 100)

	c.Put("a", fakePlan(40))
	c.Put("b", fakePlan(40))
	if _, ok := c.Get("a"); !ok { // refresh a: now b is LRU
		t.Fatal("a missing after put")
	}
	c.Put("c", fakePlan(40)) // 120 > 100: evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; want LRU evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted; want the recently-used entry kept")
	}
	if got := m.planEvictions.Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if c.bytes != 80 || m.planBytes.Value() != 80 {
		t.Errorf("bytes = %d (gauge %v), want 80", c.bytes, m.planBytes.Value())
	}

	// An entry larger than the whole cache is refused outright.
	c.Put("huge", fakePlan(101))
	if _, ok := c.Get("huge"); ok {
		t.Error("oversized plan was cached")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}

	// Re-inserting an existing key neither duplicates nor re-accounts.
	c.Put("a", fakePlan(40))
	if c.Len() != 2 || c.bytes != 80 {
		t.Errorf("after duplicate put: len = %d bytes = %d, want 2 and 80", c.Len(), c.bytes)
	}
}

// TestPlanCacheWarmSolves posts identical ordinary, general and linear
// requests twice each and asserts the second pass replayed cached plans
// (hits advanced, answers unchanged) and that the counters surface on
// /metrics under the documented names.
func TestPlanCacheWarmSolves(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		s, ts, down := newTestServer(t, Config{})
		defer down()

		ord := OrdinaryRequest{
			System: systemWireChain(16),
			Op:     "int64-add",
			Init:   json.RawMessage(`[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]`),
		}
		gen := GeneralRequest{
			System: systemWireScatter(12),
			Op:     "int64-add",
			Init:   json.RawMessage(`[1,1,1,1,1,1,1,1,1,1,1,1,1]`),
		}
		lin := chainLinear(8)

		var ordVals [2][]int64
		var genVals [2][]int64
		var linVals [2][]float64
		for pass := 0; pass < 2; pass++ {
			resp, data := post(t, ts.URL+APIPrefix+"ordinary", ord)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ordinary pass %d: HTTP %d: %s", pass, resp.StatusCode, data)
			}
			var or OrdinaryResponse
			if err := json.Unmarshal(data, &or); err != nil {
				t.Fatal(err)
			}
			ordVals[pass] = or.ValuesInt

			resp, data = post(t, ts.URL+APIPrefix+"general", gen)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("general pass %d: HTTP %d: %s", pass, resp.StatusCode, data)
			}
			var gr GeneralResponse
			if err := json.Unmarshal(data, &gr); err != nil {
				t.Fatal(err)
			}
			genVals[pass] = gr.ValuesInt

			resp, data = post(t, ts.URL+APIPrefix+"linear", lin)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("linear pass %d: HTTP %d: %s", pass, resp.StatusCode, data)
			}
			var mr MoebiusResponse
			if err := json.Unmarshal(data, &mr); err != nil {
				t.Fatal(err)
			}
			linVals[pass] = mr.Values
		}

		if fmt.Sprint(ordVals[0]) != fmt.Sprint(ordVals[1]) {
			t.Errorf("ordinary warm replay diverged: %v vs %v", ordVals[0], ordVals[1])
		}
		if fmt.Sprint(genVals[0]) != fmt.Sprint(genVals[1]) {
			t.Errorf("general warm replay diverged: %v vs %v", genVals[0], genVals[1])
		}
		if fmt.Sprint(linVals[0]) != fmt.Sprint(linVals[1]) {
			t.Errorf("linear warm replay diverged: %v vs %v", linVals[0], linVals[1])
		}
		if ordVals[1][16] != 17 {
			t.Errorf("ordinary answer wrong: %v", ordVals[1])
		}

		if hits := s.metrics.planHits.Value(); hits < 3 {
			t.Errorf("plan cache hits = %d, want >= 3 (one warm replay per family)", hits)
		}
		if misses := s.metrics.planMisses.Value(); misses < 3 {
			t.Errorf("plan cache misses = %d, want >= 3 (one cold compile per family)", misses)
		}
		if bytes := s.metrics.planBytes.Value(); bytes <= 0 {
			t.Errorf("plan cache bytes gauge = %v, want > 0", bytes)
		}

		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, name := range []string{
			"irserved_plan_cache_hits_total",
			"irserved_plan_cache_misses_total",
			"irserved_plan_cache_evictions_total",
			"irserved_plan_cache_bytes",
		} {
			if !strings.Contains(string(body), name) {
				t.Errorf("/metrics missing %s", name)
			}
		}
	}()
	leak()
}

// TestPlanCacheDisabled sets PlanCacheBytes negative and asserts the server
// runs the direct solve paths: correct answers, no cache, no counter
// movement.
func TestPlanCacheDisabled(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		s, ts, down := newTestServer(t, Config{PlanCacheBytes: -1})
		defer down()
		if s.plans != nil {
			t.Fatal("plan cache built despite PlanCacheBytes < 0")
		}
		ord := OrdinaryRequest{
			System: systemWireChain(8),
			Op:     "int64-add",
			Init:   json.RawMessage(`[1,1,1,1,1,1,1,1,1]`),
		}
		for pass := 0; pass < 2; pass++ {
			resp, data := post(t, ts.URL+APIPrefix+"ordinary", ord)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("pass %d: HTTP %d: %s", pass, resp.StatusCode, data)
			}
			resp, data = post(t, ts.URL+APIPrefix+"linear", chainLinear(8))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("linear pass %d: HTTP %d: %s", pass, resp.StatusCode, data)
			}
		}
		if h, m := s.metrics.planHits.Value(), s.metrics.planMisses.Value(); h != 0 || m != 0 {
			t.Errorf("cache counters moved while disabled: hits = %d misses = %d", h, m)
		}
	}()
	leak()
}

// systemWireScatter builds a general (H != G) system as wire JSON:
// A[i+1] = A[i] + A[h(i)] with h(i) hopping around earlier cells.
func systemWireScatter(n int) (w ir.SystemWire) {
	w.M = n + 1
	w.N = n
	for i := 0; i < n; i++ {
		w.G = append(w.G, i+1)
		w.F = append(w.F, i)
		w.H = append(w.H, (i*7)%(i+1))
	}
	return w
}

// sharedPlan returns a check that s's plan cache holds exactly one entry,
// under fp, and that it is the plan the first check found: routes that
// send one structure compile it once and replay it after.
func sharedPlan(t *testing.T, s *Server, fp string) func(route string) *ir.Plan {
	var first *ir.Plan
	return func(route string) *ir.Plan {
		t.Helper()
		if n := s.plans.Len(); n != 1 {
			t.Fatalf("after %s: %d cached plans, want 1", route, n)
		}
		got, ok := s.plans.Get(fp)
		if !ok {
			t.Fatalf("after %s: no plan cached under the structure's fingerprint", route)
		}
		p, ok := got.(*ir.Plan)
		if !ok {
			t.Fatalf("after %s: cached plan is %T, want *ir.Plan", route, got)
		}
		if first == nil {
			first = p
		} else if p != first {
			t.Fatalf("after %s: cached plan %p replaced the first route's %p", route, p, first)
		}
		return p
	}
}

// TestMoebiusPlanSharedAcrossRoutes sends one structure through every route
// that compiles a Möbius-family plan — the linear and moebius endpoints and
// a Möbius shard solve — and asserts each finds the
// same cached *ir.Plan under the structure's fingerprint: one compile, then
// replays, whichever route came first.
func TestMoebiusPlanSharedAcrossRoutes(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	lin := chainLinear(3)
	expectShared := sharedPlan(t, s, ir.PlanFingerprint(ir.FamilyMoebius, len(lin.G), lin.M, lin.G, lin.F, nil, 0))
	ones := []float64{1, 1, 1}
	zeros := []float64{0, 0, 0}

	var first *ir.Plan
	send := func(route, path string, body any) {
		t.Helper()
		resp, data := post(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", route, resp.StatusCode, data)
		}
		first = expectShared(route)
	}

	send("linear", APIPrefix+"linear", lin)
	send("moebius", APIPrefix+"moebius", MoebiusRequest{M: lin.M, G: lin.G, F: lin.F,
		A: lin.A, B: lin.B, C: zeros, D: ones, X0: lin.X0})
	send("shard", ShardPrefix+"solve", ShardRequest{Family: "moebius",
		System: ir.SystemWire{M: lin.M, N: len(lin.G), G: lin.G, F: lin.F},
		Shard:  ShardWire{Lo: 0, Hi: first.ShardUnits()},
		A:      lin.A, B: lin.B, X0: lin.X0})
	send("linear again", APIPrefix+"linear", lin)
}

// TestGrid2DPlanSharedAcrossRoutes is the grid2d sibling: one grid posted to
// the grid2d endpoint and as a one-band shard solve leaves one cache entry,
// under ir.Grid2DFingerprint, compiled by whichever route came first.
func TestGrid2DPlanSharedAcrossRoutes(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	sys := workload.RandomGrid2D(rand.New(rand.NewSource(3)), 9, 300, "minplus", 15)
	fp, err := ir.Grid2DFingerprint(sys)
	if err != nil {
		t.Fatal(err)
	}
	expectShared := sharedPlan(t, s, fp)
	for _, r := range []struct {
		route, path string
		body        any
	}{
		{"shard", ShardPrefix + "solve", ShardRequest{Family: "grid2d", Shard: ShardWire{Lo: 0, Hi: sys.Rows}, Grid: sys}},
		{"grid2d", APIPrefix + "grid2d", Grid2DRequest{System: *sys}},
		{"shard again", ShardPrefix + "solve", ShardRequest{Family: "grid2d", Shard: ShardWire{Lo: 0, Hi: sys.Rows}, Grid: sys}},
	} {
		resp, data := post(t, ts.URL+r.path, r.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", r.route, resp.StatusCode, data)
		}
		expectShared(r.route)
	}
}

// TestLoopPlanSharedAcrossRoutes: a general-IR loop's leaf and the same
// system posted to /v1/solve/general compile one plan, under the general
// route's fingerprint (the server's MaxExponentBits included), and a second
// identical loop request replays it as a cache hit.
func TestLoopPlanSharedAcrossRoutes(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	const n = 24
	x, hIdx := make([]float64, n+1), make([]float64, n+1)
	w := ir.SystemWire{M: n + 1, N: n}
	for i := 1; i <= n; i++ {
		hIdx[i] = float64((i * 7) % i)
		w.G, w.F, w.H = append(w.G, i), append(w.F, i-1), append(w.H, int(hIdx[i]))
	}
	for i := range x {
		x[i] = 1 + float64(i%3)/4
	}
	loop := LoopRequest{Loop: "for i = 1 to n do X[i] := X[i-1] * X[H[i]]", N: n,
		Arrays: map[string][]float64{"X": x, "H": hIdx}}
	init, err := json.Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	expectShared := sharedPlan(t, s, ir.PlanFingerprint(ir.FamilyGeneral, n, n+1, w.G, w.F, w.H, s.cfg.MaxExponentBits))
	for k, r := range []struct {
		route, path string
		body        any
	}{
		{"loop", APIPrefix + "loop", loop},
		{"general", APIPrefix + "general", GeneralRequest{System: w, Op: "float64-mul", Init: init}},
		{"loop again", APIPrefix + "loop", loop},
	} {
		hits := s.metrics.planHits.Value()
		resp, data := post(t, ts.URL+r.path, r.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", r.route, resp.StatusCode, data)
		}
		if h, m := s.metrics.planHits.Value()-hits, s.metrics.planMisses.Value(); h != min(int64(k), 1) || m != 1 {
			t.Fatalf("%s: %d hits, %d misses in all; want %d and 1", r.route, h, m, min(k, 1))
		}
		expectShared(r.route) // its own lookup counts one hit
	}
}

// TestLoopNestHitsPlanCache: an outer loop whose inner leaf does not read
// the outer index lowers to one structure per outer iteration, so the
// first compiles it and the other 63 replay it from the cache.
func TestLoopNestHitsPlanCache(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, data := post(t, ts.URL+APIPrefix+"loop", LoopRequest{
		Loop:   "for j = 1 to 64 do for i = 1 to 32 do X[i] := X[i] + X[i-1]",
		Arrays: map[string][]float64{"X": make([]float64, 33)},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	_, body := get(t, ts.URL+"/metrics")
	for _, want := range []string{"irserved_plan_cache_misses_total 1\n", "irserved_plan_cache_hits_total 63\n"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
