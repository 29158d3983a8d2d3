package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"indexedrec/internal/grid2d"
	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

// gridSpec wraps a grid system as the solve request the grid2d route
// would decode.
func gridSpec(sys *ir.Grid2DSystem) *server.SolveRequest {
	return &server.SolveRequest{Family: ir.FamilyGrid2D, Data: ir.PlanData{Grid: sys}}
}

// randGrid draws a full-mask grid over the given semiring; tropical rings
// use small integer costs so every path sum is exact.
func randGrid(rng *rand.Rand, rows, cols int, semiring string) *ir.Grid2DSystem {
	n := rows * cols
	grid := func(scale float64, offset float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			if semiring == "" || semiring == "affine" {
				out[i] = (rng.Float64()*2-1)*scale + offset
			} else {
				out[i] = float64(rng.Intn(21) - 10)
			}
		}
		return out
	}
	edge := func(k int) []float64 {
		out := make([]float64, k)
		for i := range out {
			if semiring == "" || semiring == "affine" {
				out[i] = rng.Float64()*2 - 1
			} else {
				out[i] = float64(rng.Intn(11))
			}
		}
		return out
	}
	return &ir.Grid2DSystem{
		Rows: rows, Cols: cols, Semiring: semiring,
		A: grid(0.3, 0), B: grid(0.3, 0), Diag: grid(0.3, 0), C: grid(1, 0),
		North: edge(cols), West: edge(rows), NorthWest: 1,
	}
}

// gridReference solves sys locally through the public facade.
func gridReference(t testing.TB, sys *ir.Grid2DSystem) *ir.Grid2DResult {
	t.Helper()
	res, err := ir.SolveGrid2D(sys, ir.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGrid2DScatterMatchesLocal pipelines row bands across fleets of
// several sizes and requires the stitched result to be bit-identical to a
// local solve, with every band served remotely (no silent fallback).
func TestGrid2DScatterMatchesLocal(t *testing.T) {
	defer checkGoroutines(t)()
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3} {
		for _, ring := range []string{"", "minplus", "maxplus"} {
			co, workers, down := newFleet(t, n, nil)
			var shardHits atomic.Int64
			for _, tw := range workers {
				count := func(r *http.Request) bool {
					if strings.HasSuffix(r.URL.Path, "solve") && strings.Contains(r.URL.Path, "shard") {
						shardHits.Add(1)
					}
					return true
				}
				tw.intercept.Store(&count)
			}
			sys := randGrid(rng, 37, 23, ring)
			want := gridReference(t, sys)
			sol, err := co.Solve(context.Background(), gridSpec(sys))
			if err != nil {
				t.Fatalf("fleet=%d ring=%q: %v", n, ring, err)
			}
			assertSameSolution(t, sol, &ir.PlanSolution{Values: want.Values})
			if sol.Rounds != want.Rounds {
				t.Fatalf("fleet=%d ring=%q: rounds %d != %d", n, ring, sol.Rounds, want.Rounds)
			}
			if got := co.metrics.fallbacks.Value(); got != 0 {
				t.Fatalf("fleet=%d ring=%q: %d local fallbacks, want none", n, ring, got)
			}
			if hits := shardHits.Load(); hits < int64(n) {
				t.Fatalf("fleet=%d ring=%q: only %d shard requests for %d bands", n, ring, hits, n)
			}
			down()
		}
	}
}

// TestGrid2DMoreWorkersThanRows caps the band count at the row count so no
// worker receives an empty band.
func TestGrid2DMoreWorkersThanRows(t *testing.T) {
	defer checkGoroutines(t)()
	co, _, down := newFleet(t, 4, nil)
	defer down()
	sys := randGrid(rand.New(rand.NewSource(11)), 2, 29, "minplus")
	want := gridReference(t, sys)
	sol, err := co.Solve(context.Background(), gridSpec(sys))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, sol, &ir.PlanSolution{Values: want.Values})
}

// TestGrid2DNoWorkersFallback requires an empty fleet to degrade to a
// local solve with the same bits, counting one fallback.
func TestGrid2DNoWorkersFallback(t *testing.T) {
	defer checkGoroutines(t)()
	co, _, down := newFleet(t, 0, nil)
	defer down()
	sys := randGrid(rand.New(rand.NewSource(3)), 19, 31, "")
	want := gridReference(t, sys)
	sol, err := co.Solve(context.Background(), gridSpec(sys))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, sol, &ir.PlanSolution{Values: want.Values})
	if got := co.metrics.fallbacks.Value(); got != 1 {
		t.Fatalf("fallbacks = %d, want 1", got)
	}
}

// TestGrid2DWorkerCrashFallsBack kills every worker mid-pipeline and
// requires the coordinator to finish the solve locally, bit-identical.
func TestGrid2DWorkerCrashFallsBack(t *testing.T) {
	defer checkGoroutines(t)()
	co, workers, down := newFleet(t, 2, nil)
	defer down()
	for _, tw := range workers {
		die := func(r *http.Request) bool { return !strings.Contains(r.URL.Path, "shard") }
		tw.intercept.Store(&die)
	}
	sys := randGrid(rand.New(rand.NewSource(5)), 23, 17, "maxplus")
	want := gridReference(t, sys)
	sol, err := co.Solve(context.Background(), gridSpec(sys))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, sol, &ir.PlanSolution{Values: want.Values})
	if got := co.metrics.fallbacks.Value(); got != 1 {
		t.Fatalf("fallbacks = %d, want 1", got)
	}
}

// TestGrid2DFrontEndToEnd drives POST /v1/solve/grid2d on the coordinator
// through the typed client and checks the distributed answer against the
// local facade, plus the 422 mapping for non-finite solutions.
func TestGrid2DFrontEndToEnd(t *testing.T) {
	defer checkGoroutines(t)()
	co, _, down := newFleet(t, 2, nil)
	defer down()
	front := httptest.NewServer(co.Handler())
	defer front.Close()
	c := client.New(front.URL)

	sys := randGrid(rand.New(rand.NewSource(9)), 29, 13, "minplus")
	want := gridReference(t, sys)
	resp, err := c.SolveGrid2D(context.Background(), server.Grid2DRequest{System: *sys})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Values) != len(want.Values) {
		t.Fatalf("got %d values, want %d", len(resp.Values), len(want.Values))
	}
	for i := range want.Values {
		if resp.Values[i] != want.Values[i] {
			t.Fatalf("cell %d: distributed %v != local %v", i, resp.Values[i], want.Values[i])
		}
	}
	if resp.Rounds != want.Rounds || resp.Cells != want.Cells {
		t.Fatalf("rounds/cells (%d, %d) != (%d, %d)", resp.Rounds, resp.Cells, want.Rounds, want.Cells)
	}

	// Affine overflow surfaces as 422, the same class irserved reports.
	bad := randGrid(rand.New(rand.NewSource(2)), 40, 40, "")
	for i := range bad.A {
		bad.A[i] = 1e300
	}
	for i := range bad.C {
		bad.C[i] = 1e300
	}
	_, err = c.SolveGrid2D(context.Background(), server.Grid2DRequest{System: *bad})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("want 422 APIError, got %v", err)
	}
}

// TestGrid2DCrossRouteBitIdentity solves every ring × term mask on a
// one-tile grid, and each ring on a grid two ragged tiles wide, through the
// facade, irserved, the shard endpoint and ircoord with one and two
// workers. Every route must match grid2d.SolveSequential bit
// for bit, rounds included. An overflowing multi-tile grid, whose first bad
// cell in row-major order sits in a later tile round than another bad
// cell, must fail on every route naming the oracle's cell.
func TestGrid2DCrossRouteBitIdentity(t *testing.T) {
	defer checkGoroutines(t)()
	co1, workers, down1 := newFleet(t, 1, nil)
	co2, _, down2 := newFleet(t, 2, nil)
	front1 := httptest.NewServer(co1.Handler())
	front2 := httptest.NewServer(co2.Handler())
	defer down2()
	defer down1()
	defer front2.Close()
	defer front1.Close()
	worker := workers[0].ts.URL

	oracle := func(sys *ir.Grid2DSystem) (*grid2d.Result, error) {
		ring, err := grid2d.RingByName(sys.Semiring)
		if err != nil {
			t.Fatal(err)
		}
		return grid2d.SolveSequential(&grid2d.System{
			Rows: sys.Rows, Cols: sys.Cols, Ring: ring,
			A: sys.A, B: sys.B, D: sys.Diag, C: sys.C,
			North: sys.North, West: sys.West, NW: sys.NorthWest,
		})
	}
	// solve runs sys through every route and returns each route's values
	// and rounds (0 where the route does not report them), or its error
	// text.
	type answer struct {
		values []float64
		rounds int
		err    string
	}
	solve := func(sys *ir.Grid2DSystem) map[string]answer {
		got := map[string]answer{}
		if res, err := ir.SolveGrid2D(sys, ir.SolveOptions{Procs: 2}); err != nil {
			got["facade"] = answer{err: err.Error()}
		} else {
			got["facade"] = answer{values: res.Values, rounds: res.Rounds}
		}
		post := func(route, url string, body any, into func([]byte) answer) {
			code, data := postFront(t, url, body)
			if code != http.StatusOK {
				got[route] = answer{err: fmt.Sprintf("HTTP %d: %s", code, data)}
				return
			}
			got[route] = into(data)
		}
		grid := func(data []byte) answer {
			var r server.Grid2DResponse
			if err := json.Unmarshal(data, &r); err != nil {
				t.Fatal(err)
			}
			return answer{values: r.Values, rounds: r.Rounds}
		}
		post("irserved", worker+server.APIPrefix+"grid2d", server.Grid2DRequest{System: *sys}, grid)
		post("ircoord/1", front1.URL+server.APIPrefix+"grid2d", server.Grid2DRequest{System: *sys}, grid)
		post("ircoord/2", front2.URL+server.APIPrefix+"grid2d", server.Grid2DRequest{System: *sys}, grid)
		post("shard", worker+server.ShardPrefix+"solve", server.ShardRequest{
			Family: "grid2d", Shard: server.ShardWire{Lo: 0, Hi: sys.Rows}, Grid: sys,
		}, func(data []byte) answer {
			var r server.ShardResponse
			if err := json.Unmarshal(data, &r); err != nil {
				t.Fatal(err)
			}
			return answer{values: r.Values}
		})
		return got
	}

	rng := rand.New(rand.NewSource(18))
	type gridCase struct {
		rows, cols int
		ring       string
		mask       uint8
	}
	var cases []gridCase
	for _, ring := range []string{"affine", "minplus", "maxplus"} {
		for mask := uint8(1); mask < 16; mask++ {
			cases = append(cases, gridCase{7, 9, ring, mask})
		}
		cases = append(cases, gridCase{40, 300, ring, 15})
	}
	for _, c := range cases {
		label := fmt.Sprintf("%dx%d %s mask %#x", c.rows, c.cols, c.ring, c.mask)
		sys := workload.RandomGrid2D(rng, c.rows, c.cols, c.ring, c.mask)
		want, err := oracle(sys)
		if err != nil {
			t.Fatalf("%s: oracle: %v", label, err)
		}
		for route, got := range solve(sys) {
			if got.err != "" {
				t.Fatalf("%s via %s: %s", label, route, got.err)
			}
			if len(got.values) != len(want.Values) {
				t.Fatalf("%s via %s: %d values, want %d", label, route, len(got.values), len(want.Values))
			}
			for k, v := range want.Values {
				if math.Float64bits(got.values[k]) != math.Float64bits(v) {
					t.Fatalf("%s via %s: cell %d = %v, oracle %v", label, route, k, got.values[k], v)
				}
			}
			if route != "shard" && got.rounds != want.Rounds {
				t.Fatalf("%s via %s: %d rounds, oracle %d", label, route, got.rounds, want.Rounds)
			}
		}
	}

	// A huge cell times a huge left coefficient overflows its right
	// neighbour: (39,200) in tile (0,0), round 0, and (0,256) in tile
	// (0,1), round 1 — the later round holds the row-major-first bad cell.
	bad := workload.RandomGrid2D(rng, 40, 300, "affine", 15)
	for _, k := range []int{39*300 + 200, 256} {
		bad.C[k-1], bad.B[k] = 1.7e308, 1e300
	}
	_, oerr := oracle(bad)
	if !errors.Is(oerr, grid2d.ErrNonFinite) || !strings.Contains(oerr.Error(), "cell (0,256)") {
		t.Fatalf("oracle error = %v, want ErrNonFinite at cell (0,256)", oerr)
	}
	for route, got := range solve(bad) {
		if !strings.Contains(got.err, oerr.Error()) {
			t.Fatalf("overflow via %s: got %q, want the oracle's %q", route, got.err, oerr)
		}
	}
}

// TestFrontJSONErrorSchema pins the coordinator's edge responses — unknown
// path, wrong method, and the unimplemented loop route — to the same JSON
// wire error schema the implemented endpoints speak, and decodes each the
// way the typed client does.
func TestFrontJSONErrorSchema(t *testing.T) {
	defer checkGoroutines(t)()
	co, _, down := newFleet(t, 0, nil)
	defer down()
	front := httptest.NewServer(co.Handler())
	defer front.Close()

	decode := func(t *testing.T, resp *http.Response) server.ErrorResponse {
		t.Helper()
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q, want application/json", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var er server.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("body %q is not the JSON error schema: %v", body, err)
		}
		if er.Error == "" || er.Code != resp.StatusCode {
			t.Fatalf("decoded %+v, want non-empty error and code %d", er, resp.StatusCode)
		}
		return er
	}

	t.Run("unknown path 404", func(t *testing.T) {
		resp, err := http.Get(front.URL + "/v1/solve/no-such-family")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
		er := decode(t, resp)
		if !strings.Contains(er.Error, "/v1/solve/no-such-family") {
			t.Fatalf("error %q does not name the path", er.Error)
		}
	})

	t.Run("wrong method 405", func(t *testing.T) {
		resp, err := http.Get(front.URL + server.APIPrefix + "grid2d")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
			t.Fatalf("Allow = %q, want POST", allow)
		}
		decode(t, resp)
	})

	t.Run("client decodes unimplemented loop", func(t *testing.T) {
		c := client.New(front.URL)
		_, err := c.SolveLoop(context.Background(), server.LoopRequest{Loop: "x"})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("want APIError, got %v", err)
		}
		if apiErr.Status != http.StatusNotImplemented || !strings.Contains(apiErr.Message, "worker") {
			t.Fatalf("got %d %q, want 501 pointing at a worker", apiErr.Status, apiErr.Message)
		}
	})
}

// TestGrid2DPlanSharedAcrossRoutes sends one grid through a worker's grid2d
// endpoint, its shard endpoint as one band over every row, and a
// one-worker coordinator, whose single band is the whole grid. The worker
// must compile once and replay twice, and the coordinator must hold one
// plan, under ir.Grid2DFingerprint: every route keys the structure alike.
func TestGrid2DPlanSharedAcrossRoutes(t *testing.T) {
	defer checkGoroutines(t)()
	co, workers, down := newFleet(t, 1, nil)
	front := httptest.NewServer(co.Handler())
	defer down()
	defer front.Close()
	worker := workers[0].ts.URL
	sys := workload.RandomGrid2D(rand.New(rand.NewSource(4)), 9, 300, "maxplus", 15)
	fp, err := ir.Grid2DFingerprint(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		route, url string
		body       any
	}{
		{"irserved", worker + server.APIPrefix + "grid2d", server.Grid2DRequest{System: *sys}},
		{"shard", worker + server.ShardPrefix + "solve", server.ShardRequest{
			Family: "grid2d", Shard: server.ShardWire{Lo: 0, Hi: sys.Rows}, Grid: sys}},
		{"ircoord", front.URL + server.APIPrefix + "grid2d", server.Grid2DRequest{System: *sys}},
	} {
		if code, data := postFront(t, r.url, r.body); code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", r.route, code, data)
		}
	}
	var text strings.Builder
	if _, err := workers[0].srv.Registry().WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"\nirserved_plan_cache_misses_total 1\n",
		"\nirserved_plan_cache_hits_total 2\n",
		"\nirserved_plan_cache_evictions_total 0\n",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("worker metrics lack %q", strings.TrimSpace(want))
		}
	}
	if n := co.plans.Len(); n != 1 {
		t.Fatalf("coordinator caches %d plans, want 1", n)
	}
	if _, ok := co.plans.Get(fp); !ok {
		t.Fatal("coordinator plan is not under ir.Grid2DFingerprint")
	}
}
