package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"indexedrec/internal/core"
	"indexedrec/internal/grid2d"
	"indexedrec/internal/moebius"
	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
	"indexedrec/internal/session"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

// crossCase is one row of the cross-route table: a family, an encoding and
// an operator.
type crossCase struct {
	family ir.Family
	sparse bool
	op     string
	mod    int64
}

func (c crossCase) String() string {
	enc := "dense"
	if c.sparse {
		enc = "sparse"
	}
	return fmt.Sprintf("%v/%s/%s", c.family, enc, c.op)
}

// crossSystem draws a case's system: SparseZipf's touched set (48 writes
// over a global array 64x larger) and, for the general family, an H over
// the same touched cells so the CAP path counts are nontrivial.
func crossSystem(t *testing.T, rng *rand.Rand, fam ir.Family) *ir.SparseSystem {
	t.Helper()
	zipf := workload.SparseZipf(rng, 64*48, 48)
	if fam == ir.FamilyOrdinary {
		return zipf
	}
	d := zipf.Dense()
	h := make([]int, d.N)
	for i := range h {
		h[i] = zipf.Cells[rng.Intn(len(zipf.Cells))]
	}
	sp, err := ir.NewSparseSystem(zipf.M, d.G, d.F, h)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// crossAnswer is the value-bearing part of every route's response.
type crossAnswer struct {
	ValuesInt   []int64   `json:"values_int"`
	ValuesFloat []float64 `json:"values_float"`
	Cells       []int     `json:"cells"`
}

// bits flattens the values to their bit patterns, so int and float cases
// share one exact comparison.
func (a crossAnswer) bits() []uint64 {
	out := make([]uint64, 0, len(a.ValuesInt)+len(a.ValuesFloat))
	for _, v := range a.ValuesInt {
		out = append(out, uint64(v))
	}
	for _, v := range a.ValuesFloat {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// TestCrossRouteBitIdentity runs one table of requests — {ordinary,
// general} × {dense, sparse} × {integer, float} operator, plus a linear, a
// moebius and three grid2d rows — through irserved's solve endpoint, its
// shard endpoint over the whole shard domain, and the coordinator with one,
// two and four workers. Every HTTP row runs twice: as a curl-style JSON
// body, and through the typed client, which sends and asks for the packed
// encoding. The ordinary/general rows also run in process, through
// ir.Compile (or CompileSparse) and Plan.SolveCtx. Every ordinary/general answer, read back through
// its touched-cell list, must be bit-identical to core.RunSequential on the
// dense expansion; every linear/moebius answer to ir.SolveMoebiusPlanCtx on
// the same input; every grid2d answer to grid2d.SolveSequential. A loop
// row compares a float chain's loop-route and ir.CompileLoop answers with
// its /v1/solve/ordinary one (crossLoop). Two session rows (linear and ordinary int64-add) stream the same batches
// through irserved, every coordinator and an in-process session.Open; see
// crossSession.
func TestCrossRouteBitIdentity(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co1, workers, down1 := newFleet(t, 1, nil)
		co2, _, down2 := newFleet(t, 2, nil)
		co4, _, down4 := newFleet(t, 4, nil)
		front1 := httptest.NewServer(co1.Handler())
		front2 := httptest.NewServer(co2.Handler())
		front4 := httptest.NewServer(co4.Handler())
		defer down4()
		defer down2()
		defer down1()
		defer front4.Close()
		defer front2.Close()
		defer front1.Close()
		worker := workers[0].ts.URL
		fronts := []route{{"ircoord/1", front1.URL}, {"ircoord/2", front2.URL}, {"ircoord/4", front4.URL}}

		var cases []crossCase
		for _, fam := range []ir.Family{ir.FamilyOrdinary, ir.FamilyGeneral} {
			intOp, mod := "int64-add", int64(0)
			if fam == ir.FamilyGeneral {
				intOp, mod = "mul-mod", 1_000_003
			}
			for _, sparse := range []bool{false, true} {
				cases = append(cases,
					crossCase{family: fam, sparse: sparse, op: intOp, mod: mod},
					crossCase{family: fam, sparse: sparse, op: "float64-add"})
			}
		}
		rng := rand.New(rand.NewSource(12))
		for _, c := range cases {
			t.Run(c.String(), func(t *testing.T) {
				sp := crossSystem(t, rng, c.family)
				dense := sp.Dense()
				iop, err := ir.IntOpByName(c.op, c.mod)
				if err != nil {
					t.Fatal(err)
				}
				fop, err := ir.FloatOpByName(c.op)
				if err != nil {
					t.Fatal(err)
				}

				// Small integral inits keep float sums exact, so every
				// association order yields the same bits.
				var oracle crossAnswer
				var initAny any
				if iop != nil {
					init := make([]int64, dense.M)
					for x := range init {
						init[x] = rng.Int63n(1000) + 1
					}
					oracle.ValuesInt = core.RunSequential[int64](dense, iop, init)
					initAny = init
					if c.sparse {
						initAny, err = core.GatherTouched(sp, init)
					}
				} else {
					init := make([]float64, dense.M)
					for x := range init {
						init[x] = float64(rng.Intn(9) + 1)
					}
					oracle.ValuesFloat = core.RunSequential[float64](dense, fop, init)
					initAny = init
					if c.sparse {
						initAny, err = core.GatherTouched(sp, init)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(initAny)
				if err != nil {
					t.Fatal(err)
				}
				wire := ir.WireFromSystem(dense)
				if c.sparse {
					wire = ir.WireFromSparse(sp)
				}
				want := oracle.bits()

				check := func(route string, got crossAnswer) {
					t.Helper()
					vals := got.bits()
					if !c.sparse {
						if len(got.Cells) != 0 || len(vals) != len(want) {
							t.Fatalf("%s: %d values, %d cells; want %d dense values", route, len(vals), len(got.Cells), len(want))
						}
						for x := range want {
							if vals[x] != want[x] {
								t.Fatalf("%s: cell %d differs from the sequential oracle", route, x)
							}
						}
						return
					}
					if len(got.Cells) != len(sp.Cells) || len(vals) != len(sp.Cells) {
						t.Fatalf("%s: %d values over %d cells, want %d", route, len(vals), len(got.Cells), len(sp.Cells))
					}
					for i, x := range got.Cells {
						if x != sp.Cells[i] || vals[i] != want[x] {
							t.Fatalf("%s: compact id %d (cell %d) differs from the sequential oracle at cell %d", route, i, x, sp.Cells[i])
						}
					}
				}
				solve := func(route, url string) {
					t.Helper()
					body := server.GeneralRequest{System: wire, Op: c.op, Mod: c.mod, Init: raw}
					code, data := postFront(t, url+server.APIPrefix+c.family.String(), body)
					if code != http.StatusOK {
						t.Fatalf("%s: HTTP %d: %s", route, code, data)
					}
					var got crossAnswer
					if err := json.Unmarshal(data, &got); err != nil {
						t.Fatal(err)
					}
					check(route, got)
				}
				// The same body through the typed client, which packs it.
				solveClient := func(route, url string) {
					t.Helper()
					cl := client.New(url)
					var got crossAnswer
					if c.family == ir.FamilyOrdinary {
						resp, err := cl.SolveOrdinary(t.Context(), server.OrdinaryRequest{System: wire, Op: c.op, Mod: c.mod, Init: raw})
						if err != nil {
							t.Fatalf("%s: %v", route, err)
						}
						got = crossAnswer{resp.ValuesInt, resp.ValuesFloat, resp.Cells}
					} else {
						resp, err := cl.SolveGeneral(t.Context(), server.GeneralRequest{System: wire, Op: c.op, Mod: c.mod, Init: raw})
						if err != nil {
							t.Fatalf("%s: %v", route, err)
						}
						got = crossAnswer{resp.ValuesInt, resp.ValuesFloat, resp.Cells}
					}
					check(route, got)
				}
				for _, r := range append([]route{{"irserved", worker}}, fronts...) {
					solve(r.route, r.url)
					solveClient(r.route+" (client)", r.url)
				}

				// The shard endpoint over the whole domain, merged the way the
				// coordinator merges a one-shard scatter.
				sr, err := server.DecodeSolve(c.family, wire, c.op, c.mod, raw, false, ir.OptionsWire{},
					server.Limits{MaxN: 1 << 22, MaxExponentBits: 16384})
				if err != nil {
					t.Fatal(err)
				}
				p, err := sr.Compile(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				req := server.ShardRequest{
					Family: c.family.String(), System: wire,
					Shard: server.ShardWire{Lo: 0, Hi: p.ShardUnits()},
					Op:    c.op, Mod: c.mod, Init: raw,
				}
				code, data := postFront(t, worker+server.ShardPrefix+"solve", req)
				if code != http.StatusOK {
					t.Fatalf("shard: HTTP %d: %s", code, data)
				}
				var part server.ShardResponse
				if err := json.Unmarshal(data, &part); err != nil {
					t.Fatal(err)
				}
				packed, err := client.New(worker).SolveShard(t.Context(), req)
				if err != nil {
					t.Fatalf("shard (client): %v", err)
				}
				for route, part := range map[string]*server.ShardResponse{"shard": &part, "shard (client)": packed} {
					sol, err := p.MergeShards(sr.Data, []*ir.ShardSolution{{
						Shard: ir.Shard{Lo: part.Shard.Lo, Hi: part.Shard.Hi}, Cells: part.Cells,
						ValuesInt: part.ValuesInt, ValuesFloat: part.ValuesFloat,
					}})
					if err != nil {
						t.Fatal(err)
					}
					merged := crossAnswer{ValuesInt: sol.ValuesInt, ValuesFloat: sol.ValuesFloat}
					if c.sparse {
						merged.Cells = sp.Cells
					}
					check(route, merged)
				}

				// In process: ir.Compile (or CompileSparse) and Plan.SolveCtx
				// on the decoded data, no wire at all.
				opt := ir.CompileOptions{Family: c.family}
				var plan *ir.Plan
				if c.sparse {
					plan, err = ir.CompileSparse(sp, opt)
				} else {
					plan, err = ir.Compile(dense, opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				sol, err := plan.SolveCtx(t.Context(), sr.Data)
				if err != nil {
					t.Fatal(err)
				}
				local := crossAnswer{ValuesInt: sol.ValuesInt, ValuesFloat: sol.ValuesFloat}
				if c.sparse {
					local.Cells = sp.Cells
				}
				check("in-process", local)
			})
		}
		for _, endpoint := range []string{"linear", "moebius"} {
			t.Run(endpoint, func(t *testing.T) {
				crossMoebius(t, rng, endpoint, worker, fronts)
			})
		}
		for _, g := range []struct {
			rows, cols int
			ring       string
		}{{9, 7, "affine"}, {33, 300, "minplus"}, {5, 40, "maxplus"}} {
			t.Run(fmt.Sprintf("grid2d/%dx%d/%s", g.rows, g.cols, g.ring), func(t *testing.T) {
				crossGrid2D(t, workload.RandomGrid2D(rng, g.rows, g.cols, g.ring, 15), worker, fronts)
			})
		}
		for _, family := range []string{"linear", "ordinary"} {
			t.Run("session/"+family, func(t *testing.T) {
				crossSession(t, rng, family, worker, fronts)
			})
		}
		t.Run("loop", func(t *testing.T) {
			crossLoop(t, rng, worker, fronts)
		})
		for _, co := range []*Coordinator{co2, co4} {
			if co.metrics.shards.Value() == 0 {
				t.Fatalf("the %d-worker coordinator never scattered", len(co.alive()))
			}
		}
	}()
	leak()
}

// route names one daemon a cross-route row posts to.
type route struct{ route, url string }

// crossGrid2D is TestCrossRouteBitIdentity's grid2d row: sys posted to
// irserved's grid2d endpoint, to its shard endpoint as one band over every
// row, and to each coordinator, which cuts it into row bands. Every answer
// must match grid2d.SolveSequential bit for bit, rounds included where the
// route reports them.
func crossGrid2D(t *testing.T, sys *ir.Grid2DSystem, worker string, fronts []route) {
	t.Helper()
	ring, err := grid2d.RingByName(sys.Semiring)
	if err != nil {
		t.Fatal(err)
	}
	want, err := grid2d.SolveSequential(&grid2d.System{
		Rows: sys.Rows, Cols: sys.Cols, Ring: ring,
		A: sys.A, B: sys.B, D: sys.Diag, C: sys.C,
		North: sys.North, West: sys.West, NW: sys.NorthWest,
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(route string, got []float64) {
		t.Helper()
		if len(got) != len(want.Values) {
			t.Fatalf("%s: %d values, want %d", route, len(got), len(want.Values))
		}
		for k, v := range want.Values {
			if math.Float64bits(got[k]) != math.Float64bits(v) {
				t.Fatalf("%s: cell %d = %v, sequential %v", route, k, got[k], v)
			}
		}
	}
	for _, r := range append([]route{{"irserved", worker}}, fronts...) {
		code, data := postFront(t, r.url+server.APIPrefix+"grid2d", server.Grid2DRequest{System: *sys})
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", r.route, code, data)
		}
		var got server.Grid2DResponse
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if got.Rounds != want.Rounds || got.Cells != want.Cells {
			t.Fatalf("%s: %d rounds over %d cells, sequential %d over %d", r.route, got.Rounds, got.Cells, want.Rounds, want.Cells)
		}
		check(r.route, got.Values)
		resp, err := client.New(r.url).SolveGrid2D(t.Context(), server.Grid2DRequest{System: *sys})
		if err != nil {
			t.Fatalf("%s (client): %v", r.route, err)
		}
		if resp.Rounds != want.Rounds || resp.Cells != want.Cells {
			t.Fatalf("%s (client): %d rounds over %d cells, sequential %d over %d", r.route, resp.Rounds, resp.Cells, want.Rounds, want.Cells)
		}
		check(r.route+" (client)", resp.Values)
	}
	shard := server.ShardRequest{Family: "grid2d", Shard: server.ShardWire{Lo: 0, Hi: sys.Rows}, Grid: sys}
	code, data := postFront(t, worker+server.ShardPrefix+"solve", shard)
	if code != http.StatusOK {
		t.Fatalf("shard: HTTP %d: %s", code, data)
	}
	var part server.ShardResponse
	if err := json.Unmarshal(data, &part); err != nil {
		t.Fatal(err)
	}
	packed, err := client.New(worker).SolveShard(t.Context(), shard)
	if err != nil {
		t.Fatalf("shard (client): %v", err)
	}
	for route, part := range map[string]*server.ShardResponse{"shard": &part, "shard (client)": packed} {
		if part.Shard.Lo != 0 || part.Shard.Hi != sys.Rows {
			t.Fatalf("%s: echoed band [%d, %d), want [0, %d)", route, part.Shard.Lo, part.Shard.Hi, sys.Rows)
		}
		check(route, part.Values)
	}
}

// crossMoebius is TestCrossRouteBitIdentity's linear/moebius row: a random
// chain forest with coefficients that keep every value bounded, posted to
// the endpoint on irserved and on every coordinator, and to irserved's
// shard endpoint over the whole domain. Each answer must match
// ir.SolveMoebiusPlanCtx bit for bit.
func crossMoebius(t *testing.T, rng *rand.Rand, endpoint, worker string, fronts []route) {
	t.Helper()
	sys := workload.RandomOrdinary(rng, 512, 400)
	m, g, f, n := sys.M, sys.G, sys.F, sys.N
	uniform := func(k int, lo, hi float64) []float64 {
		out := make([]float64, k)
		for i := range out {
			out[i] = lo + (hi-lo)*rng.Float64()
		}
		return out
	}
	// |a|, |b| <= 1, |c| <= 0.1 and d >= 2 keep |x| <= 2 along any chain
	// from |x0| <= 1, so no route can overflow.
	a, b, x0 := uniform(n, -1, 1), uniform(n, -1, 1), uniform(m, -1, 1)
	var c, d []float64
	var body any
	if endpoint == "linear" {
		// The linear endpoint solves the affine form as c = 0, d = 1.
		c, d = make([]float64, n), make([]float64, n)
		for i := range d {
			d[i] = 1
		}
		body = server.LinearRequest{M: m, G: g, F: f, A: a, B: b, X0: x0}
	} else {
		c, d = uniform(n, -0.1, 0.1), uniform(n, 2, 3)
		body = server.MoebiusRequest{M: m, G: g, F: f, A: a, B: b, C: c, D: d, X0: x0}
	}
	p, err := ir.CompileMoebiusCtx(t.Context(), m, g, f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ir.SolveMoebiusPlanCtx(t.Context(), p, a, b, c, d, x0, ir.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(route string, got []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", route, len(got), len(want))
		}
		for x := range want {
			if math.Float64bits(got[x]) != math.Float64bits(want[x]) {
				t.Fatalf("%s: cell %d = %v differs from the plan replay's %v", route, x, got[x], want[x])
			}
		}
	}
	for _, r := range append([]route{{"irserved", worker}}, fronts...) {
		code, data := postFront(t, r.url+server.APIPrefix+endpoint, body)
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", r.route, code, data)
		}
		var got server.MoebiusResponse
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if got.BatchSize != 1 {
			t.Errorf("%s: batch_size = %d, want 1", r.route, got.BatchSize)
		}
		check(r.route, got.Values)
		var resp *server.MoebiusResponse
		if req, ok := body.(server.LinearRequest); ok {
			resp, err = client.New(r.url).SolveLinear(t.Context(), req)
		} else {
			resp, err = client.New(r.url).SolveMoebius(t.Context(), body.(server.MoebiusRequest))
		}
		if err != nil {
			t.Fatalf("%s (client): %v", r.route, err)
		}
		check(r.route+" (client)", resp.Values)
	}

	shard := server.ShardRequest{
		Family: "moebius", System: ir.SystemWire{M: m, N: n, G: g, F: f},
		Shard: server.ShardWire{Lo: 0, Hi: p.ShardUnits()},
		A:     a, B: b, C: c, D: d, X0: x0,
	}
	code, data := postFront(t, worker+server.ShardPrefix+"solve", shard)
	if code != http.StatusOK {
		t.Fatalf("shard: HTTP %d: %s", code, data)
	}
	var part server.ShardResponse
	if err := json.Unmarshal(data, &part); err != nil {
		t.Fatal(err)
	}
	packed, err := client.New(worker).SolveShard(t.Context(), shard)
	if err != nil {
		t.Fatalf("shard (client): %v", err)
	}
	for route, part := range map[string]*server.ShardResponse{"shard": &part, "shard (client)": packed} {
		sol, err := p.MergeShards(ir.PlanData{A: a, B: b, C: c, D: d, X0: x0}, []*ir.ShardSolution{{
			Shard: ir.Shard{Lo: part.Shard.Lo, Hi: part.Shard.Hi}, Values: part.Values,
		}})
		if err != nil {
			t.Fatal(err)
		}
		check(route, sol.Values)
	}
}

// crossLoop is TestCrossRouteBitIdentity's loop row: one float chain,
// X[i] := X[i-1] + X[i] over non-integral values so the association order
// shows in the low bits, as loop source on irserved's /v1/solve/loop and
// in process through ir.CompileLoop(...).ExecuteCtx, and as a system on
// /v1/solve/ordinary on irserved and every coordinator. Every answer must
// be bit-identical to irserved's ordinary one. The coordinators answer
// 501 on the loop route: loop execution is not distributed.
func crossLoop(t *testing.T, rng *rand.Rand, worker string, fronts []route) {
	t.Helper()
	const n = 1024
	x := make([]float64, n+1)
	w := ir.SystemWire{M: n + 1, N: n}
	for i := range x {
		x[i] = rng.Float64() - 0.25
	}
	for i := 1; i <= n; i++ {
		w.G, w.F = append(w.G, i), append(w.F, i-1)
	}
	init, err := json.Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(route, url string) []float64 {
		t.Helper()
		code, data := postFront(t, url+server.APIPrefix+"ordinary", server.GeneralRequest{System: w, Op: "float64-add", Init: init})
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", route, code, data)
		}
		var got crossAnswer
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		return got.ValuesFloat
	}
	want := solve("irserved", worker)
	check := func(route string, got []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", route, len(got), len(want))
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s: cell %d = %v, /v1/solve/ordinary %v", route, k, got[k], want[k])
			}
		}
	}
	const src = "for i = 1 to n do X[i] := X[i-1] + X[i]"
	body := server.LoopRequest{Loop: src, N: n, Arrays: map[string][]float64{"X": x}}
	code, data := postFront(t, worker+server.APIPrefix+"loop", body)
	if code != http.StatusOK {
		t.Fatalf("loop: HTTP %d: %s", code, data)
	}
	var got server.LoopResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	check("loop", got.Arrays["X"])

	loop, err := ir.ParseLoop(src)
	if err != nil {
		t.Fatal(err)
	}
	env := ir.NewEnv()
	env.Scalars["n"] = n
	env.Arrays["X"] = append([]float64(nil), x...)
	if err := ir.CompileLoop(loop).ExecuteCtx(t.Context(), env, 0); err != nil {
		t.Fatal(err)
	}
	check("ir.CompileLoop", env.Arrays["X"])

	for _, r := range append([]route{{"irserved", worker}}, fronts...) {
		resp, err := client.New(r.url).SolveOrdinary(t.Context(), server.OrdinaryRequest{System: w, Op: "float64-add", Init: init})
		if err != nil {
			t.Fatalf("%s (client): %v", r.route, err)
		}
		check(r.route+" (client)", resp.ValuesFloat)
	}
	for _, r := range fronts {
		check(r.route, solve(r.route, r.url))
		if code, data := postFront(t, r.url+server.APIPrefix+"loop", body); code != http.StatusNotImplemented {
			t.Fatalf("%s: loop route HTTP %d (%s), want 501", r.route, code, data)
		}
	}
}

// crossSession is TestCrossRouteBitIdentity's session row: one stream — a
// prefix plus four appended batches — opened and appended through
// irserved, every coordinator, and an in-process session.Open. Every
// batch's values must be bit-identical to the sequential loop over the
// concatenation, and every route must report the same open fingerprint.
func crossSession(t *testing.T, rng *rand.Rand, family, worker string, fronts []route) {
	t.Helper()
	const n0, batches = 100, 4
	sys := workload.RandomOrdinary(rng, 512, 400)
	m, g, f, n := sys.M, sys.G, sys.F, sys.N
	k := (n - n0) / batches
	uniform := func(k int) []float64 {
		out := make([]float64, k)
		for i := range out {
			out[i] = 2*rng.Float64() - 1
		}
		return out
	}
	// |a|, |b|, |x0| <= 1 keep every linear value within [-n, n].
	a, b, x0 := uniform(n), uniform(n), uniform(m)
	init := make([]int64, m)
	for x := range init {
		init[x] = rng.Int63n(1 << 40)
	}
	rawInit, err := json.Marshal(init)
	if err != nil {
		t.Fatal(err)
	}

	// The oracle: the loop over the whole concatenation. Distinct g makes
	// each cell final once written, so batch j's values are its cells here.
	var want []uint64
	if family == "linear" {
		for _, v := range moebius.NewLinear(m, g, f, a, b).RunSequential(x0) {
			want = append(want, math.Float64bits(v))
		}
	} else {
		for _, v := range core.RunSequential[int64](sys, core.IntAdd{}, init) {
			want = append(want, uint64(v))
		}
	}
	open := server.SessionOpenRequest{Family: family}
	var spec session.Spec
	if family == "linear" {
		open.M, open.G, open.F, open.A, open.B, open.X0 = m, g[:n0], f[:n0], a[:n0], b[:n0], x0
		spec.Family, spec.M, spec.G, spec.F, spec.A, spec.B, spec.X0 = ir.FamilyMoebius, m, g[:n0], f[:n0], a[:n0], b[:n0], x0
	} else {
		open.System, open.Op, open.Init = ir.SystemWire{M: m, N: n0, G: g[:n0], F: f[:n0]}, "int64-add", rawInit
		spec.Family, spec.System, spec.Op, spec.InitInt = ir.FamilyOrdinary, &ir.System{M: m, N: n0, G: g[:n0], F: f[:n0]}, "int64-add", init
	}
	batch := func(j int) server.SessionAppendRequest {
		lo, hi := n0+j*k, n0+(j+1)*k
		req := server.SessionAppendRequest{G: g[lo:hi], F: f[lo:hi]}
		if family == "linear" {
			req.A, req.B = a[lo:hi], b[lo:hi]
		}
		return req
	}
	check := func(route string, j int, got server.SessionAppendResponse) {
		t.Helper()
		vals := make([]uint64, 0, k)
		for _, v := range got.ValuesInt {
			vals = append(vals, uint64(v))
		}
		for _, v := range got.Values {
			vals = append(vals, math.Float64bits(v))
		}
		cells := batch(j).G
		if len(vals) != len(cells) || got.N != n0+(j+1)*k {
			t.Fatalf("%s: batch %d returned %d values at n = %d, want %d at n = %d", route, j, len(vals), got.N, len(cells), n0+(j+1)*k)
		}
		for i, x := range cells {
			if vals[i] != want[x] {
				t.Fatalf("%s: batch %d, cell %d differs from the loop over the concatenation", route, j, x)
			}
		}
	}

	local, err := session.Open(t.Context(), spec)
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := ir.PlanFingerprint(spec.Family, n0, m, g[:n0], f[:n0], nil, 0)
	if fp := local.Fingerprint(); fp != fingerprint {
		t.Fatalf("in-process open fingerprint %s, PlanFingerprint %s", fp, fingerprint)
	}
	for j := 0; j < batches; j++ {
		req := batch(j)
		res, err := local.Append(t.Context(), session.Batch{G: req.G, F: req.F, A: req.A, B: req.B})
		if err != nil {
			t.Fatalf("in-process: batch %d: %v", j, err)
		}
		check("in-process", j, server.SessionAppendResponse{N: res.N, ValuesInt: res.ValuesInt, Values: res.Values})
	}

	for _, r := range append([]route{{"irserved", worker}}, fronts...) {
		code, data := postFront(t, r.url+server.SessionPrefix, open)
		if code != http.StatusOK {
			t.Fatalf("%s: open: HTTP %d: %s", r.route, code, data)
		}
		var opened server.SessionOpenResponse
		if err := json.Unmarshal(data, &opened); err != nil {
			t.Fatal(err)
		}
		if opened.Fingerprint != fingerprint {
			t.Fatalf("%s: open fingerprint %s, in-process %s", r.route, opened.Fingerprint, fingerprint)
		}
		for j := 0; j < batches; j++ {
			code, data := postFront(t, r.url+server.SessionPrefix+"/"+opened.ID+"/append", batch(j))
			if code != http.StatusOK {
				t.Fatalf("%s: batch %d: HTTP %d: %s", r.route, j, code, data)
			}
			var got server.SessionAppendResponse
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatal(err)
			}
			check(r.route, j, got)
		}

		// The same stream through the typed client, packed both ways.
		cl := client.New(r.url)
		packed, err := cl.OpenSession(t.Context(), open)
		if err != nil {
			t.Fatalf("%s (client): open: %v", r.route, err)
		}
		if packed.Fingerprint != fingerprint {
			t.Fatalf("%s (client): open fingerprint %s, in-process %s", r.route, packed.Fingerprint, fingerprint)
		}
		for j := 0; j < batches; j++ {
			got, err := cl.Append(t.Context(), packed.ID, batch(j))
			if err != nil {
				t.Fatalf("%s (client): batch %d: %v", r.route, j, err)
			}
			check(r.route+" (client)", j, *got)
		}
	}
}

// TestStatusParity posts the same malformed requests to irserved and to the
// coordinator: both daemons share one decoder and one status mapping, so
// every row must answer the same status from each. A row's session form —
// the same defect in a POST /v1/session body — must answer the status of
// its solve route too, since an open decodes through the same decoders.
func TestStatusParity(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co, workers, down := newFleet(t, 1, nil)
		front := httptest.NewServer(co.Handler())
		defer down()
		defer front.Close()

		sp := workload.SparseZipf(rand.New(rand.NewSource(5)), 4096, 32)
		dense := ir.WireFromSystem(sp.Dense())
		sparse := ir.WireFromSparse(sp)
		ints := func(n int) json.RawMessage {
			blob, err := json.Marshal(make([]int64, n))
			if err != nil {
				t.Fatal(err)
			}
			return blob
		}
		unsorted := sparse
		unsorted.Cells = append([]int(nil), sparse.Cells...)
		unsorted.Cells[0], unsorted.Cells[1] = unsorted.Cells[1], unsorted.Cells[0]
		general := dense
		general.H = make([]int, len(dense.G))

		// x[1] = 1/x[0] with x0[0] = 0 divides by zero one step down a chain.
		divZero := server.MoebiusRequest{M: 3, G: []int{1, 2}, F: []int{0, 1},
			A: []float64{0, 1}, B: []float64{1, 0}, C: []float64{1, 0}, D: []float64{0, 1},
			X0: []float64{0, 0, 0}}
		chain := server.LinearRequest{M: 3, G: []int{1, 2}, F: []int{0, 1},
			A: []float64{1, 1}, B: []float64{1, 1}, X0: []float64{1, 0, 0}}
		// JSON has no Inf: an overflowing literal is how one arrives.
		nonFinite := `"m":3,"g":[1,2],"f":[0,1],"a":[1,1],"b":[1,1],"x0":[1,1e999,0]`
		// The extended rewrite b + x0[g] overflows a finite b and x0.
		overflow := `"m":2,"g":[1],"f":[0],"a":[1],"b":[1e308],"x0":[1,1e308],"extended":true`
		outOfRange := chain
		outOfRange.G = []int{1, 3}
		open := func(family string, w ir.SystemWire, op string, init json.RawMessage) server.SessionOpenRequest {
			return server.SessionOpenRequest{Family: family, System: w, Op: op, Init: init}
		}

		rows := []struct {
			name     string
			endpoint string
			req      any
			open     any // the same defect as a session open
			want     int
		}{
			{"dense init length", "ordinary",
				server.GeneralRequest{System: dense, Op: "int64-add", Init: ints(sp.M - 1)},
				open("ordinary", dense, "int64-add", ints(sp.M-1)), http.StatusBadRequest},
			{"sparse init length", "ordinary",
				server.GeneralRequest{System: sparse, Op: "int64-add", Init: ints(sp.NumCells() - 1)},
				open("ordinary", sparse, "int64-add", ints(sp.NumCells()-1)), http.StatusUnprocessableEntity},
			{"unsorted cells", "general",
				server.GeneralRequest{System: unsorted, Op: "int64-add", Init: ints(sp.NumCells())},
				open("general", unsorted, "int64-add", ints(sp.NumCells())), http.StatusUnprocessableEntity},
			{"H != G on ordinary", "ordinary",
				server.GeneralRequest{System: general, Op: "int64-add", Init: ints(sp.M)},
				open("ordinary", general, "int64-add", ints(sp.M)), http.StatusBadRequest},
			{"unknown op", "general",
				server.GeneralRequest{System: dense, Op: "no-such-op", Init: ints(sp.M)},
				open("general", dense, "no-such-op", ints(sp.M)), http.StatusBadRequest},
			{"division by zero along a chain", "moebius", divZero,
				server.SessionOpenRequest{Family: "moebius", M: divZero.M, G: divZero.G, F: divZero.F,
					A: divZero.A, B: divZero.B, C: divZero.C, D: divZero.D, X0: divZero.X0},
				http.StatusUnprocessableEntity},
			{"non-finite x0", "linear", json.RawMessage("{" + nonFinite + "}"),
				json.RawMessage(`{"family":"linear",` + nonFinite + "}"), http.StatusBadRequest},
			{"g out of range", "linear", outOfRange,
				server.SessionOpenRequest{Family: "linear", M: outOfRange.M, G: outOfRange.G, F: outOfRange.F,
					A: outOfRange.A, B: outOfRange.B, X0: outOfRange.X0},
				http.StatusBadRequest},
			{"extended overflow", "linear", json.RawMessage("{" + overflow + "}"),
				json.RawMessage(`{"family":"linear",` + overflow + "}"), http.StatusBadRequest},
		}
		for _, row := range rows {
			for _, base := range []string{workers[0].ts.URL, front.URL} {
				code, data := postFront(t, base+server.APIPrefix+row.endpoint, row.req)
				if code != row.want {
					t.Errorf("%s via %s: HTTP %d (%s), want %d", row.name, base, code, data, row.want)
				}
				if code, data := postFront(t, base+server.SessionPrefix, row.open); code != row.want {
					t.Errorf("%s as a session open via %s: HTTP %d (%s), want %d", row.name, base, code, data, row.want)
				}
			}
		}
	}()
	leak()
}

// TestLinearShardBodyOmitsCD checks that a linear request, plain or
// extended, scatters shard bodies without c and d: the decoded request
// carries the affine form as nil rows, so workers are not sent n zeros and
// n ones per shard. A moebius request still ships its rows.
func TestLinearShardBodyOmitsCD(t *testing.T) {
	for _, tc := range []struct {
		endpoint, body string
		wantCD         bool
	}{
		{"linear", `{"m":3,"g":[1,2],"f":[0,1],"a":[1,1],"b":[1,1],"x0":[1,0,0]}`, false},
		{"linear", `{"m":3,"g":[1,2],"f":[0,1],"a":[2,1],"b":[1,1],"x0":[1,2,3],"extended":true}`, false},
		{"moebius", `{"m":3,"g":[1,2],"f":[0,1],"a":[1,1],"b":[1,1],"c":[0,0],"d":[1,1],"x0":[1,0,0]}`, true},
	} {
		spec, err := server.Decode(tc.endpoint, []byte(tc.body), server.Limits{MaxN: 1 << 10})
		if err != nil {
			t.Fatalf("%s %s: %v", tc.endpoint, tc.body, err)
		}
		req, err := spec.ShardRequest(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(raw, &keys); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"c", "d"} {
			if _, ok := keys[k]; ok != tc.wantCD {
				t.Errorf("%s %s: shard body has %q = %v, want %v: %s", tc.endpoint, tc.body, k, ok, tc.wantCD, raw)
			}
		}
	}
}
