package indexedrec

// FuzzSolveAgainstOracle drives randomly generated indexed-recurrence
// systems through the hardened parallel solvers and checks every output
// cell against the sequential oracle (core.RunSequential). The property
// under fuzz: the solvers never panic, whenever they succeed they agree
// with the oracle exactly, and a compiled plan (ir.Compile + replay)
// reproduces the direct solve bit for bit. Each input also picks an
// execution configuration — persistent gang vs spawn-per-round,
// monomorphized kernels vs generic dispatch — so the equivalence holds
// across every path the hot-path engine can take. Ordinary systems are also
// compiled under both the blocked-scan and pointer-jumping schedules, whose
// full and member replays must agree, and every system is re-solved in the
// compressed sparse encoding against the same oracle.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"indexedrec/internal/core"
	"indexedrec/internal/gir"
	"indexedrec/internal/grid2d"
	"indexedrec/internal/moebius"
	"indexedrec/internal/ordinary"
	"indexedrec/internal/parallel"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

// toggleEngine selects the gang and kernel dispatch paths from two fuzz
// seed bits and returns a restore function. The solvers must be
// bit-identical across all four combinations.
func toggleEngine(seed int64) func() {
	prevGang := parallel.SetGangEnabled(seed&1 == 0)
	prevKern := ordinary.SetKernelsEnabled(seed&2 == 0)
	prevGrid := grid2d.SetKernelsEnabled(seed&2 == 0)
	return func() {
		parallel.SetGangEnabled(prevGang)
		ordinary.SetKernelsEnabled(prevKern)
		grid2d.SetKernelsEnabled(prevGrid)
	}
}

// compareSchedules compiles s under ScheduleJumping and ScheduleBlocked
// and requires identical full replays and identical member replays of a
// few chain ranges. A forest that is not a path union has no blocked
// schedule and is skipped. op must be exactly associative.
func compareSchedules(t *testing.T, s *core.System, op core.Semigroup[int64], init []int64) {
	t.Helper()
	ctx := context.Background()
	opt := ordinary.Options{Procs: 4}
	jp, err := ordinary.CompilePlanOpts(ctx, s, ordinary.PlanOptions{Schedule: ordinary.ScheduleJumping})
	if err != nil {
		t.Fatalf("compile jumping: %v", err)
	}
	bp, err := ordinary.CompilePlanOpts(ctx, s, ordinary.PlanOptions{Schedule: ordinary.ScheduleBlocked})
	if err != nil {
		return
	}
	jr, err := ordinary.SolvePlanCtx(ctx, jp, op, init, opt)
	if err != nil {
		t.Fatalf("jumping replay: %v", err)
	}
	br, err := ordinary.SolvePlanCtx(ctx, bp, op, init, opt)
	if err != nil {
		t.Fatalf("blocked replay: %v", err)
	}
	for x, v := range jr.Values {
		if br.Values[x] != v {
			t.Fatalf("cell %d: blocked replay %d != jumping replay %d", x, br.Values[x], v)
		}
	}
	if bp.NumChains() != jp.NumChains() {
		t.Fatalf("chain count: blocked %d != jumping %d", bp.NumChains(), jp.NumChains())
	}
	k := jp.NumChains()
	for _, r := range [][2]int{{0, k}, {0, k / 2}, {k / 2, k}, {k / 3, 2 * k / 3}} {
		member, err := jp.MemberForChains(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		jv, err := ordinary.SolvePlanMemberCtx(ctx, jp, op, init, member, opt)
		if err != nil {
			t.Fatalf("jumping member replay: %v", err)
		}
		bv, err := ordinary.SolvePlanMemberCtx(ctx, bp, op, init, member, opt)
		if err != nil {
			t.Fatalf("blocked member replay: %v", err)
		}
		for x, v := range jv {
			if bv[x] != v {
				t.Fatalf("chains [%d,%d) cell %d: blocked member %d != jumping member %d", r[0], r[1], x, bv[x], v)
			}
		}
	}
}

func FuzzSolveAgainstOracle(f *testing.F) {
	// Seed corpus: shapes that historically stress the solvers — tiny
	// systems, n ≈ m (dense rewrites), chain-like sparse maps, scatter
	// (non-distinct g with commutative combine), and fib-style GIR fan-in.
	f.Add(int64(1), 8, 8, uint8(0))
	f.Add(int64(2), 1, 1, uint8(0))
	f.Add(int64(3), 64, 200, uint8(0))
	f.Add(int64(4), 100, 30, uint8(1))
	f.Add(int64(5), 16, 64, uint8(1))
	f.Add(int64(6), 32, 32, uint8(2))
	f.Add(int64(7), 2, 300, uint8(2))
	f.Add(int64(8), 500, 499, uint8(0))
	// Long single chains compile to the blocked-scan schedule (m > 256);
	// seeds 9 and 12 replay it under different gang/kernel paths.
	f.Add(int64(9), 512, 511, uint8(3))
	f.Add(int64(12), 512, 511, uint8(3))
	// Sparse-shaped systems (zipfian touched sets in a much larger global
	// array), two draws.
	f.Add(int64(16), 256, 128, uint8(4))
	f.Add(int64(24), 256, 128, uint8(4))
	f.Add(int64(25), 300, 200, uint8(0))
	// Unions of contiguous chains (workload.Chains): long runs take the
	// ordinary run path to the blocked scan, short ones pointer jumping.
	f.Add(int64(26), 512, 1024, uint8(5))
	f.Add(int64(27), 512, 900, uint8(5))
	f.Add(int64(28), 64, 40, uint8(5))

	f.Fuzz(func(t *testing.T, seed int64, m, n int, kind uint8) {
		if m < 1 || m > 512 || n < 0 || n > 1024 {
			t.Skip("out of budget")
		}
		defer toggleEngine(seed)()
		rng := rand.New(rand.NewSource(seed))
		var s *core.System
		switch kind % 6 {
		case 0:
			s = workload.RandomOrdinary(rng, m, n)
		case 1:
			s = workload.Scatter(rng, n, m)
		case 2:
			s = workload.RandomGIR(rng, m, n)
		case 3:
			// One chain spanning every cell: the contiguous loop the
			// ordinary run path compiles straight from g, to the
			// blocked-scan schedule once it crosses the length threshold.
			s = workload.Chain(min(n, m-1))
		case 4:
			// A zipfian touched set scattered over a global array 16x the
			// fuzz budget: the shape the sparse encoding exists for. The
			// dense expansion feeds the oracle; the sparse cross-check
			// below re-compresses it.
			s = workload.SparseZipf(rng, 16*m+2, max(n, 1)).Dense()
		default:
			// 1–8 contiguous chains side by side, each rooted at an
			// unwritten cell: the run path's union of runs.
			s = workload.Chains(n, 1+rng.Intn(8))
		}

		// Commutative, associative, and immune to overflow discrepancies:
		// modular multiplication is safe for both solver families even when
		// a scatter target is combined in a different order than the oracle.
		op := core.MulMod{M: 1_000_003}
		init := workload.InitInt64(rng, s.M, 1_000_000)
		want := core.RunSequential[int64](s, op, init)
		ctx := context.Background()

		if s.Ordinary() && s.GDistinct() {
			res, err := ordinary.SolveCtx[int64](ctx, s, op, init, ordinary.Options{Procs: 4})
			if err != nil {
				t.Fatalf("ordinary.SolveCtx(%v): %v", s, err)
			}
			for i, v := range res.Values {
				if v != want[i] {
					t.Fatalf("ordinary cell %d: parallel %d != sequential %d", i, v, want[i])
				}
			}

			// Compiled-plan equivalence: compiling the system and replaying
			// the plan must be bit-identical to the direct solve, including
			// the schedule cost counters.
			plan, err := ir.Compile(s, ir.CompileOptions{Family: ir.FamilyOrdinary})
			if err != nil {
				t.Fatalf("ir.Compile(ordinary): %v", err)
			}
			prep, err := ir.SolveOrdinaryPlanCtx[int64](ctx, plan, op, init, ir.SolveOptions{Procs: 4})
			if err != nil {
				t.Fatalf("SolveOrdinaryPlanCtx: %v", err)
			}
			for i, v := range prep.Values {
				if v != res.Values[i] {
					t.Fatalf("ordinary plan cell %d: replay %d != direct %d", i, v, res.Values[i])
				}
			}
			// A blocked-scan replay does O(n) combines against the direct
			// solver's O(n log n), so the cost counters only match for a
			// pointer-jumping plan.
			if plan.Schedule() != "blocked-scan" && (prep.Rounds != res.Rounds || prep.Combines != res.Combines) {
				t.Fatalf("ordinary plan cost: replay (%d rounds, %d combines) != direct (%d, %d)",
					prep.Rounds, prep.Combines, res.Rounds, res.Combines)
			}

			// IntAdd implements the monomorphized kernel (MulMod does not),
			// so this cross-check is the one that actually drives kernel
			// dispatch when the toggle enables it: direct solve and plan
			// replay must agree bit for bit on whichever path was selected.
			sumDirect, err := ordinary.SolveCtx[int64](ctx, s, ir.IntAdd{}, init, ordinary.Options{Procs: 3})
			if err != nil {
				t.Fatalf("ordinary.SolveCtx(IntAdd): %v", err)
			}
			sumReplay, err := ir.SolveOrdinaryPlanCtx[int64](ctx, plan, ir.IntAdd{}, init, ir.SolveOptions{Procs: 3})
			if err != nil {
				t.Fatalf("SolveOrdinaryPlanCtx(IntAdd): %v", err)
			}
			for i, v := range sumReplay.Values {
				if v != sumDirect.Values[i] {
					t.Fatalf("IntAdd plan cell %d: replay %d != direct %d", i, v, sumDirect.Values[i])
				}
			}
			compareSchedules(t, s, op, init)
			compareSchedules(t, s, ir.IntAdd{}, init)
		}

		res, err := gir.SolveCtx[int64](ctx, s, op, init, gir.Options{Procs: 4, MaxExponentBits: 4096})
		if err != nil {
			if errors.Is(err, gir.ErrExponentLimit) {
				t.Skip("path counts beyond cap — acceptable rejection")
			}
			t.Fatalf("gir.SolveCtx: %v", err)
		}
		for i, v := range res.Values {
			if v != want[i] {
				t.Fatalf("gir cell %d: parallel %d != sequential %d", i, v, want[i])
			}
		}

		// Compiled-plan equivalence for the general family: same contract,
		// through the facade's compile + generic replay.
		plan, err := ir.Compile(s, ir.CompileOptions{Family: ir.FamilyGeneral, MaxExponentBits: 4096})
		if err != nil {
			t.Fatalf("ir.Compile(general): %v", err)
		}
		prep, err := ir.SolveGeneralPlanCtx[int64](ctx, plan, op, init, ir.SolveOptions{Procs: 4})
		if err != nil {
			t.Fatalf("SolveGeneralPlanCtx: %v", err)
		}
		for i, v := range prep.Values {
			if v != res.Values[i] {
				t.Fatalf("general plan cell %d: replay %d != direct %d", i, v, res.Values[i])
			}
		}

		// Sparse/dense bit-identity: compress the system and solve the
		// compact form; every touched cell must reproduce the dense oracle
		// exactly.
		if s.N > 0 {
			sp, err := ir.CompressSystem(s)
			if err != nil {
				t.Fatalf("ir.CompressSystem: %v", err)
			}
			compact := make([]int64, sp.NumCells())
			for i, c := range sp.Cells {
				compact[i] = init[c]
			}
			if s.Ordinary() && s.GDistinct() {
				sres, err := ir.SolveSparseOrdinaryCtx[int64](ctx, sp, op, compact, ir.SolveOptions{Procs: 4})
				if err != nil {
					t.Fatalf("SolveSparseOrdinaryCtx: %v", err)
				}
				for i, v := range sres.Values {
					if v != want[sp.Cells[i]] {
						t.Fatalf("sparse ordinary compact cell %d (global %d): %d != oracle %d",
							i, sp.Cells[i], v, want[sp.Cells[i]])
					}
				}
			}
			gres, err := ir.SolveSparseGeneralCtx[int64](ctx, sp, op, compact, ir.SolveOptions{Procs: 4, MaxExponentBits: 4096})
			if err != nil {
				t.Fatalf("SolveSparseGeneralCtx: %v", err)
			}
			for i, v := range gres.Values {
				if v != want[sp.Cells[i]] {
					t.Fatalf("sparse general compact cell %d (global %d): %d != oracle %d",
						i, sp.Cells[i], v, want[sp.Cells[i]])
				}
			}
		}
	})
}

// FuzzMoebiusPlanAgainstDirect fuzzes the Möbius/linear families' plan
// equivalence: for random distinct-g systems and random finite
// coefficients, a compiled plan's replay must match the direct solver
// bit for bit — including agreeing on which inputs are rejected
// (ErrNonFinite from a division by zero along a chain). The same contract
// is asserted for the explicit arena replays (including a back-to-back
// second replay on the same arena, proving prime-in-place reuse is stable)
// and a random [lo, hi) range replay under fuzz-selected gang and kernel
// dispatch paths. Affine cases run those replays, and the direct solve
// once more, with nil c and d, which must equal the 0/1 rows bit for bit.
func FuzzMoebiusPlanAgainstDirect(f *testing.F) {
	f.Add(int64(1), 8, 8, false)
	f.Add(int64(2), 1, 1, true)
	f.Add(int64(3), 64, 200, false)
	f.Add(int64(4), 300, 120, true)

	f.Fuzz(func(t *testing.T, seed int64, m, n int, full bool) {
		if m < 1 || m > 512 || n < 0 || n > 512 {
			t.Skip("out of budget")
		}
		defer toggleEngine(seed)()
		rng := rand.New(rand.NewSource(seed))
		s := workload.RandomOrdinary(rng, m, n) // distinct g, as Möbius requires
		a := make([]float64, s.N)
		b := make([]float64, s.N)
		c := make([]float64, s.N)
		d := make([]float64, s.N)
		for i := 0; i < s.N; i++ {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			if full {
				c[i] = rng.NormFloat64() / 8
			}
			d[i] = 1
		}
		x0 := make([]float64, s.M)
		for x := range x0 {
			x0[x] = rng.NormFloat64()
		}
		lo := rng.Intn(s.M + 1)
		hi := lo + rng.Intn(s.M-lo+1)
		ctx := context.Background()

		direct, derr := ir.SolveMoebiusCtx(ctx, s.M, s.G, s.F, a, b, c, d, x0, ir.SolveOptions{Procs: 4})
		// same fails unless got and gotErr match the direct solve: the same
		// rejection, or bit-identical cells [from, from+len(got)).
		same := func(what string, got []float64, gotErr error, from int) {
			t.Helper()
			if (derr == nil) != (gotErr == nil) {
				t.Fatalf("%s: error disagreement: direct %v, got %v", what, derr, gotErr)
			}
			for k, v := range got {
				if v != direct[from+k] {
					t.Fatalf("%s cell %d: %v != direct %v", what, from+k, v, direct[from+k])
				}
			}
		}
		plan, err := ir.CompileMoebius(s.M, s.G, s.F)
		if err != nil {
			t.Fatalf("ir.CompileMoebius: %v", err)
		}
		replay, rerr := ir.SolveMoebiusPlanCtx(ctx, plan, a, b, c, d, x0, ir.SolveOptions{Procs: 4})
		same("plan replay", replay, rerr, 0)

		// Affine cases replay below with nil c and d: c = 0, d = 1 exactly,
		// so the affine fill must reproduce the 0/1 rows bit for bit.
		rc, rd := c, d
		if !full {
			rc, rd = nil, nil
			nilDirect, nerr := ir.SolveMoebiusCtx(ctx, s.M, s.G, s.F, a, b, nil, nil, x0, ir.SolveOptions{Procs: 4})
			same("direct nil c/d", nilDirect, nerr, 0)
		}
		mp, err := moebius.CompilePlan(ctx, s.M, s.G, s.F)
		if err != nil {
			t.Fatalf("moebius.CompilePlan: %v", err)
		}
		sopt := ordinary.Options{Procs: 4}
		pooled, perr := mp.SolveCtx(ctx, a, b, rc, rd, x0, sopt)
		same("pooled", pooled, perr, 0)

		// Explicit arena replays, twice on the same arena: the second run
		// exercises the primed (no init copy) steady state over slots the
		// first replay already dirtied.
		ar := mp.NewArena()
		for pass := 1; pass <= 2; pass++ {
			warm, werr := mp.SolveArenaCtx(ctx, ar, a, b, rc, rd, x0, sopt)
			same(fmt.Sprintf("arena pass %d", pass), warm, werr, 0)
		}

		// A range replay meets only the cells in [lo, hi): it may succeed
		// where a cell outside the range made the direct solve fail.
		part, gerr := mp.SolveRangeCtx(ctx, a, b, rc, rd, x0, lo, hi, sopt)
		if derr == nil || gerr != nil {
			same(fmt.Sprintf("range [%d, %d)", lo, hi), part, gerr, lo)
		}

		if derr != nil && !errors.Is(derr, ir.ErrNonFinite) {
			t.Fatalf("direct solve failed unexpectedly: %v", derr)
		}
	})
}

// FuzzGrid2DAgainstOracle fuzzes the 2-D grid family: random grids across
// every semiring and term mask must solve identically through the
// sequential row-major oracle, the public facade (compile + wavefront
// replay), and two back-to-back warm replays on an explicit arena — under
// every gang × kernel dispatch combination the toggles select. Errors must
// agree too: when the oracle rejects a solution as non-finite, the
// parallel paths must reject with the same class and name the same cell.
func FuzzGrid2DAgainstOracle(f *testing.F) {
	f.Add(int64(1), 1, 1, uint8(0), uint8(15))
	f.Add(int64(2), 1, 17, uint8(1), uint8(7))
	f.Add(int64(3), 17, 1, uint8(2), uint8(5))
	f.Add(int64(4), 13, 9, uint8(0), uint8(3))
	f.Add(int64(5), 32, 32, uint8(1), uint8(15))
	f.Add(int64(6), 7, 31, uint8(2), uint8(9))
	f.Add(int64(7), 24, 5, uint8(0), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols int, ringSel, mask uint8) {
		if rows < 1 || rows > 32 || cols < 1 || cols > 32 {
			t.Skip("grid shape out of fuzz range")
		}
		defer toggleEngine(seed)()
		rng := rand.New(rand.NewSource(seed))
		rings := []string{"affine", "minplus", "maxplus"}
		sys := workload.RandomGrid2D(rng, rows, cols, rings[ringSel%3], mask&15)

		// The oracle operates on the internal system; the wire struct's
		// fields mirror it one for one.
		ring, err := grid2d.RingByName(sys.Semiring)
		if err != nil {
			t.Fatal(err)
		}
		gsys := &grid2d.System{
			Rows: sys.Rows, Cols: sys.Cols, Ring: ring,
			A: sys.A, B: sys.B, D: sys.Diag, C: sys.C,
			North: sys.North, West: sys.West, NW: sys.NorthWest,
		}
		want, wantErr := grid2d.SolveSequential(gsys)

		ctx := context.Background()
		got, gotErr := ir.SolveGrid2DCtx(ctx, sys, ir.SolveOptions{Procs: 4})
		if wantErr != nil {
			if !errors.Is(gotErr, ir.ErrGrid2DNonFinite) || gotErr.Error() != wantErr.Error() {
				t.Fatalf("oracle rejected with %q, facade said %v", wantErr, gotErr)
			}
			return
		}
		if gotErr != nil {
			t.Fatalf("facade failed where the oracle succeeded: %v", gotErr)
		}
		for i, v := range got.Values {
			if v != want.Values[i] {
				t.Fatalf("cell (%d,%d): facade %v != oracle %v", i/cols, i%cols, v, want.Values[i])
			}
		}
		b := grid2d.TileSide(rows, cols)
		if want := (rows+b-1)/b + (cols+b-1)/b - 1; got.Rounds != want {
			t.Fatalf("rounds = %d, want %d tile rounds of side %d", got.Rounds, want, b)
		}

		// Plan replay and two warm arena replays: bit-identical, every time.
		gp, err := grid2d.Compile(ctx, gsys)
		if err != nil {
			t.Fatal(err)
		}
		ar := gp.NewArena()
		for rep := 0; rep < 2; rep++ {
			res, err := ar.SolveCtx(ctx, gsys, 4)
			if err != nil {
				t.Fatalf("arena replay %d: %v", rep, err)
			}
			for i, v := range res.Values {
				if v != want.Values[i] {
					t.Fatalf("arena replay %d cell %d: %v != oracle %v", rep, i, v, want.Values[i])
				}
			}
		}
	})
}
