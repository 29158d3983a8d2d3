package ir

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"indexedrec/internal/parallel"
)

// randOrdinary builds a random ordinary system with distinct g over m cells.
func randOrdinary(rng *rand.Rand, m, n int) *System {
	perm := rng.Perm(m)
	if n > m {
		n = m
	}
	g := make([]int, n)
	f := make([]int, n)
	for i := 0; i < n; i++ {
		g[i] = perm[i]
		f[i] = rng.Intn(m)
	}
	return &System{M: m, N: n, G: g, F: f}
}

// randGeneral builds a random general system (g may repeat, H present).
func randGeneral(rng *rand.Rand, m, n int) *System {
	g := make([]int, n)
	f := make([]int, n)
	h := make([]int, n)
	for i := 0; i < n; i++ {
		g[i] = rng.Intn(m)
		f[i] = rng.Intn(m)
		h[i] = rng.Intn(m)
	}
	return &System{M: m, N: n, G: g, F: f, H: h}
}

func TestCompileOrdinaryBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(64)
		s := randOrdinary(rng, m, rng.Intn(m+1))
		init := make([]float64, m)
		for x := range init {
			init[x] = rng.Float64()*100 - 50
		}
		direct, err := SolveOrdinaryCtx[float64](ctx, s, Float64Add{}, init, SolveOptions{Procs: 3})
		if err != nil {
			t.Fatalf("trial %d: direct: %v", trial, err)
		}
		plan, err := CompileCtx(ctx, s, CompileOptions{})
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		if plan.Family() != FamilyOrdinary {
			t.Fatalf("trial %d: family = %v, want ordinary", trial, plan.Family())
		}
		replay, err := SolveOrdinaryPlanCtx[float64](ctx, plan, Float64Add{}, init, SolveOptions{Procs: 3})
		if err != nil {
			t.Fatalf("trial %d: replay: %v", trial, err)
		}
		for x := range direct.Values {
			if direct.Values[x] != replay.Values[x] {
				t.Fatalf("trial %d cell %d: direct %v != replay %v (float sums must be bit-identical)",
					trial, x, direct.Values[x], replay.Values[x])
			}
		}
		if direct.Rounds != replay.Rounds || direct.Combines != replay.Combines {
			t.Fatalf("trial %d: cost profile diverged: direct (%d rounds, %d combines), replay (%d, %d)",
				trial, direct.Rounds, direct.Combines, replay.Rounds, replay.Combines)
		}
	}
}

func TestCompileGeneralBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	op := MulMod{M: 1_000_003}
	for trial := 0; trial < 30; trial++ {
		m := 1 + rng.Intn(24)
		s := randGeneral(rng, m, rng.Intn(48))
		init := make([]int64, m)
		for x := range init {
			init[x] = rng.Int63n(1_000_000)
		}
		direct, err := SolveGeneralCtx[int64](ctx, s, op, init, SolveOptions{Procs: 3, MaxExponentBits: 4096})
		if err != nil {
			t.Fatalf("trial %d: direct: %v", trial, err)
		}
		plan, err := CompileCtx(ctx, s, CompileOptions{Family: FamilyGeneral, MaxExponentBits: 4096})
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		replay, err := SolveGeneralPlanCtx[int64](ctx, plan, op, init, SolveOptions{Procs: 3})
		if err != nil {
			t.Fatalf("trial %d: replay: %v", trial, err)
		}
		for x := range direct.Values {
			if direct.Values[x] != replay.Values[x] {
				t.Fatalf("trial %d cell %d: direct %d != replay %d", trial, x, direct.Values[x], replay.Values[x])
			}
		}
		if direct.CAPRounds != replay.CAPRounds {
			t.Fatalf("trial %d: CAP rounds diverged: %d vs %d", trial, direct.CAPRounds, replay.CAPRounds)
		}
		for x := range direct.Powers {
			if len(direct.Powers[x]) != len(replay.Powers[x]) {
				t.Fatalf("trial %d cell %d: power traces diverged", trial, x)
			}
			for k := range direct.Powers[x] {
				if direct.Powers[x][k] != replay.Powers[x][k] {
					t.Fatalf("trial %d cell %d term %d: %v != %v",
						trial, x, k, direct.Powers[x][k], replay.Powers[x][k])
				}
			}
		}
	}
}

func TestCompileMoebiusBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()
	for trial := 0; trial < 50; trial++ {
		m := 2 + rng.Intn(48)
		s := randOrdinary(rng, m, rng.Intn(m+1))
		n := s.N
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		d := make([]float64, n)
		x0 := make([]float64, m)
		for i := 0; i < n; i++ {
			a[i] = rng.Float64()*4 - 2
			b[i] = rng.Float64()*4 - 2
			c[i] = rng.Float64() * 0.25
			d[i] = 1 + rng.Float64()
		}
		for x := range x0 {
			x0[x] = rng.Float64()*2 - 1
		}
		direct, derr := SolveMoebiusCtx(ctx, m, s.G, s.F, a, b, c, d, x0, SolveOptions{Procs: 3})
		plan, err := CompileMoebiusCtx(ctx, m, s.G, s.F)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		replay, rerr := SolveMoebiusPlanCtx(ctx, plan, a, b, c, d, x0, SolveOptions{Procs: 3})
		if (derr == nil) != (rerr == nil) {
			t.Fatalf("trial %d: error parity broken: direct %v, replay %v", trial, derr, rerr)
		}
		if derr != nil {
			if !errors.Is(rerr, ErrNonFinite) {
				t.Fatalf("trial %d: replay error %v, want ErrNonFinite", trial, rerr)
			}
			continue
		}
		for x := range direct {
			if direct[x] != replay[x] {
				t.Fatalf("trial %d cell %d: direct %v != replay %v (must be bit-identical)",
					trial, x, direct[x], replay[x])
			}
		}

		// The affine special case through PlanData (nil C/D builds c=0, d=1).
		directLin, err := SolveLinearCtx(ctx, m, s.G, s.F, a, b, x0, SolveOptions{Procs: 2})
		if err != nil {
			continue // a zero divide in the affine variant: nothing to compare
		}
		sol, err := plan.SolveCtx(ctx, PlanData{A: a, B: b, X0: x0, Opts: SolveOptions{Procs: 2}})
		if err != nil {
			t.Fatalf("trial %d: PlanData replay: %v", trial, err)
		}
		for x := range directLin {
			if directLin[x] != sol.Values[x] {
				t.Fatalf("trial %d cell %d: linear direct %v != replay %v", trial, x, directLin[x], sol.Values[x])
			}
		}
	}
}

func TestPlanSolveCtxDispatch(t *testing.T) {
	ctx := context.Background()
	s := &System{M: 4, N: 3, G: []int{1, 2, 3}, F: []int{0, 1, 2}}
	plan, err := Compile(s, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := plan.SolveCtx(ctx, PlanData{Op: "int64-add", InitInt: []int64{1, 1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 3, 4}
	for x, v := range sol.ValuesInt {
		if v != want[x] {
			t.Fatalf("cell %d = %d, want %d", x, v, want[x])
		}
	}
	if _, err := plan.SolveCtx(ctx, PlanData{Op: "no-such-op", InitInt: []int64{1, 1, 1, 1}}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := SolveGeneralPlanCtx[int64](ctx, plan, IntAdd{}, []int64{1, 1, 1, 1}, SolveOptions{}); !errors.Is(err, ErrPlanFamily) {
		t.Fatalf("family mismatch error = %v, want ErrPlanFamily", err)
	}
}

// TestPlanConcurrentReplay hammers one shared plan from 32 goroutines — the
// plan cache's access pattern — and checks every replay under -race.
func TestPlanConcurrentReplay(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	s := randOrdinary(rng, 512, 512)
	plan, err := Compile(s, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gs := randGeneral(rng, 24, 40)
	gplan, err := Compile(gs, CompileOptions{Family: FamilyGeneral, MaxExponentBits: 4096})
	if err != nil {
		t.Fatal(err)
	}
	op := MulMod{M: 1_000_003}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 32; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			init := make([]int64, s.M)
			for x := range init {
				init[x] = int64((x*7 + w) % 1000)
			}
			want, err := SolveOrdinaryCtx[int64](ctx, s, op, init, SolveOptions{Procs: 2})
			if err != nil {
				errs <- err
				return
			}
			ginit := make([]int64, gs.M)
			for x := range ginit {
				ginit[x] = int64((x*13 + w) % 1000)
			}
			gwant, err := SolveGeneralCtx[int64](ctx, gs, op, ginit, SolveOptions{Procs: 2, MaxExponentBits: 4096})
			if err != nil {
				errs <- err
				return
			}
			for rep := 0; rep < 8; rep++ {
				got, err := SolveOrdinaryPlanCtx[int64](ctx, plan, op, init, SolveOptions{Procs: 2})
				if err != nil {
					errs <- err
					return
				}
				for x := range want.Values {
					if got.Values[x] != want.Values[x] {
						errs <- errors.New("ordinary replay diverged under concurrency")
						return
					}
				}
				ggot, err := SolveGeneralPlanCtx[int64](ctx, gplan, op, ginit, SolveOptions{Procs: 2})
				if err != nil {
					errs <- err
					return
				}
				for x := range gwant.Values {
					if ggot.Values[x] != gwant.Values[x] {
						errs <- errors.New("general replay diverged under concurrency")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPlanFingerprint(t *testing.T) {
	g := []int{1, 2, 3}
	f := []int{0, 1, 2}
	fp := PlanFingerprint(FamilyOrdinary, 3, 4, g, f, nil, 0)
	if fp != PlanFingerprint(FamilyOrdinary, 3, 4, []int{1, 2, 3}, []int{0, 1, 2}, nil, 0) {
		t.Fatal("equal structures produced different fingerprints")
	}
	distinct := map[string]string{
		"family":  PlanFingerprint(FamilyGeneral, 3, 4, g, f, nil, 0),
		"n":       PlanFingerprint(FamilyOrdinary, 2, 4, g[:2], f[:2], nil, 0),
		"m":       PlanFingerprint(FamilyOrdinary, 3, 5, g, f, nil, 0),
		"g":       PlanFingerprint(FamilyOrdinary, 3, 4, []int{1, 3, 2}, f, nil, 0),
		"f":       PlanFingerprint(FamilyOrdinary, 3, 4, g, []int{0, 0, 2}, nil, 0),
		"h":       PlanFingerprint(FamilyOrdinary, 3, 4, g, f, []int{0, 0, 0}, 0),
		"bits":    PlanFingerprint(FamilyOrdinary, 3, 4, g, f, nil, 64),
		"swapped": PlanFingerprint(FamilyOrdinary, 3, 4, f, g, nil, 0),
	}
	for dim, other := range distinct {
		if other == fp {
			t.Fatalf("fingerprint ignores %s", dim)
		}
	}
	// The plan compiled from the structure is the one that key names.
	s := &System{M: 4, N: 3, G: g, F: f}
	plan, err := Compile(s, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if key := planKey(plan, s, 0); key != fp {
		t.Fatalf("plan key %s != PlanFingerprint %s", key, fp)
	}
	if plan.SizeBytes() <= 0 {
		t.Fatal("plan reports non-positive size")
	}
}

// planKey is the cache key of plan p compiled from s: PlanFingerprint over
// the plan's own family, n and m and s's index maps (h only for the
// general family, as the caches key it).
func planKey(p *Plan, s *System, maxExponentBits int) string {
	h := s.H
	if p.Family() != FamilyGeneral {
		h = nil
	}
	return PlanFingerprint(p.Family(), p.N(), p.M(), s.G, s.F, h, maxExponentBits)
}

// multiBlockSystems returns structures whose fingerprint streams span many
// hasher blocks: a 5,000-iteration ordinary chain (blocked scan), a
// 2,048-iteration ordinary tree (pointer jumping), a 2,048-iteration general
// scatter with explicit H, and a 2,048-iteration Möbius (g, f) over
// len(g)+1 cells.
// TestGeneralPowersAlloc checks that the rendered traces of a
// unit-count plan cost two allocations, the shared term array and the
// per-cell slice headers, whatever the cell count, and that each cell's
// trace, an unwritten cell's (x, 1) included, is in place.
func TestGeneralPowersAlloc(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	_, _, scatter, _, _ := multiBlockSystems()
	p, err := Compile(scatter, CompileOptions{Family: FamilyGeneral})
	if err != nil {
		t.Fatal(err)
	}
	powers := generalPowers(p.gen)
	if last := powers[scatter.M-1]; len(last) != 1 || last[0] != (PowerTerm{Cell: scatter.M - 1, Exp: "1"}) {
		t.Fatalf("unwritten cell %d: trace %v", scatter.M-1, last)
	}
	if allocs := testing.AllocsPerRun(10, func() { generalPowers(p.gen) }); allocs > 2 {
		t.Fatalf("generalPowers made %.0f allocations, want 2", allocs)
	}
}

func multiBlockSystems() (chain, tree, scatter *System, mg, mf []int) {
	chain = FromFuncs(5000, 5001, func(i int) int { return i + 1 }, func(i int) int { return i }, nil)
	tree = FromFuncs(2048, 2048+64, func(i int) int { return 64 + i }, func(i int) int { return (i * 7) % (64 + i) }, nil)
	bucket := func(i int) int { return (37*i + 11) % 64 }
	scatter = FromFuncs(2048, 64+2048, bucket, func(i int) int { return 64 + i }, bucket)
	mg, mf = make([]int, 2048), make([]int, 2048)
	for i := range mg {
		mg[i], mf[i] = i+1, i/2
	}
	return chain, tree, scatter, mg, mf
}

// TestGoldenFingerprints pins the exact fingerprint strings (and the compiled
// cost profile) of fixed structures. Fingerprints key the plan caches and the
// cluster's rendezvous placement, so a change to the hashed byte stream —
// even one that keeps fingerprints deterministic and collision-free — splits
// a mixed-version fleet; this test fails on any such change. Each key is
// hashed over the family, n and m of the plan compiled from the structure,
// so a plan that compiled to another family or shape fails it too.
func TestGoldenFingerprints(t *testing.T) {
	ctx := context.Background()
	chain := FromFuncs(300, 301, func(i int) int { return i + 1 }, func(i int) int { return i }, nil)
	tree := FromFuncs(48, 64, func(i int) int { return (37*i + 5) % 64 }, func(i int) int { return (11*i + 3) % 64 }, nil)
	gen := FromFuncs(24, 16, func(i int) int { return 5 * i % 16 }, func(i int) int { return (3*i + 1) % 16 },
		func(i int) int { return (7*i + 2) % 16 })
	sp, err := NewSparseSystem(1<<20, []int{40, 7000, 123456, 900000}, []int{7, 40, 7000, 123456}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Multi-block structures: each hashes well past the hasher's 8 KiB
	// buffer, so block fills and flushes are pinned too.
	longChain, longTree, scatter, mbG, mbF := multiBlockSystems()

	type ordGolden struct {
		name      string
		plan      func() (*Plan, error)
		key       func(*Plan) string
		m         int
		fp, sched string
		rounds    int
		combines  int64
		size      int64
	}
	for _, c := range []ordGolden{
		{"chain", func() (*Plan, error) { return Compile(chain, CompileOptions{}) },
			func(p *Plan) string { return planKey(p, chain, 0) }, chain.M,
			"ordinary:9bddabc1fd242f648407379a5a6b7c80", "blocked-scan", 3, 600, 44},
		{"tree", func() (*Plan, error) { return Compile(tree, CompileOptions{}) },
			func(p *Plan) string { return planKey(p, tree, 0) }, tree.M,
			"ordinary:d072a2cb6c64228403f4d57dacbacebc", "pointer-jumping", 2, 52, 672},
		{"sparse", func() (*Plan, error) { return CompileSparse(sp, CompileOptions{}) },
			func(p *Plan) string { return SparseFingerprint(p.Family(), sp, 0) }, sp.NumCells(),
			"sparse-ordinary:c8dd0d7972b585a4a1dcdfa8035c11ce", "pointer-jumping", 2, 6, 108},
		{"long chain", func() (*Plan, error) { return Compile(longChain, CompileOptions{}) },
			func(p *Plan) string { return planKey(p, longChain, 0) }, longChain.M,
			"ordinary:ce7d86b765786c9d6083dc385d73c3c4", "blocked-scan", 7, 10050, 260},
		{"long tree", func() (*Plan, error) { return Compile(longTree, CompileOptions{}) },
			func(p *Plan) string { return planKey(p, longTree, 0) }, longTree.M,
			"ordinary:c544d4358718aa626ee51c4bb6be114c", "pointer-jumping", 4, 4615, 45368},
	} {
		p, err := c.plan()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		init := make([]int64, c.m)
		for x := range init {
			init[x] = int64(x + 1)
		}
		sol, err := p.SolveCtx(ctx, PlanData{Op: "int64-add", InitInt: init})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if key := c.key(p); key != c.fp || p.Schedule() != c.sched || sol.Rounds != c.rounds ||
			sol.Combines != c.combines || p.SizeBytes() != c.size {
			t.Errorf("%s: got (%q, %q, rounds %d, combines %d, size %d), want (%q, %q, %d, %d, %d)",
				c.name, key, p.Schedule(), sol.Rounds, sol.Combines, p.SizeBytes(),
				c.fp, c.sched, c.rounds, c.combines, c.size)
		}
	}

	gp, err := Compile(gen, CompileOptions{Family: FamilyGeneral, MaxExponentBits: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if key, want := planKey(gp, gen, 4096), "general:a2ccda0aa8f0edf6e044227e69108e5a"; key != want {
		t.Errorf("general: fingerprint %q, want %q", key, want)
	}
	// The flat plan holds 4 bytes per offset and 12 per term: 4·17 + 12·76.
	// Every cell is written and some counts exceed 1, so no term is
	// dropped. (The squaring-engine plan it replaced accounted 5248 bytes.)
	init := make([]int64, gen.M)
	for x := range init {
		init[x] = int64(x + 1)
	}
	gsol, err := gp.SolveCtx(ctx, PlanData{Op: "int64-add", InitInt: init})
	if err != nil {
		t.Fatal(err)
	}
	if size, rounds := int64(980), 3; gp.SizeBytes() != size || gsol.CAPRounds != rounds {
		t.Errorf("general: got (size %d, CAP rounds %d), want (%d, %d)", gp.SizeBytes(), gsol.CAPRounds, size, rounds)
	}

	sg, err := Compile(scatter, CompileOptions{MaxExponentBits: 4096})
	if err != nil {
		t.Fatal(err)
	}
	init = make([]int64, scatter.M)
	for x := range init {
		init[x] = int64(x + 1)
	}
	ssol, err := sg.SolveCtx(ctx, PlanData{Op: "int64-add", InitInt: init})
	if err != nil {
		t.Fatal(err)
	}
	// All counts are 1 and the 2,048 operand cells after the 64 buckets are
	// never written, so the plan holds 4·65 offsets over the buckets and the
	// 2,112 written-cell sinks at 4 B.
	if key, want, size, rounds := planKey(sg, scatter, 4096), "general:ee76e513de4cc9b62bb08458eb43a34f", int64(8708), 5; key != want ||
		sg.SizeBytes() != size || ssol.CAPRounds != rounds {
		t.Errorf("long general: got (%q, size %d, CAP rounds %d), want (%q, %d, %d)",
			key, sg.SizeBytes(), ssol.CAPRounds, want, size, rounds)
	}
	lm, err := CompileMoebius(len(mbG)+1, mbG, mbF)
	if err != nil {
		t.Fatal(err)
	}
	lmKey := PlanFingerprint(lm.Family(), lm.N(), lm.M(), mbG, mbF, nil, 0)
	if want, size := "moebius:9547e8f352487c8664fc1453d22488b3", int64(102140); lmKey != want || lm.SizeBytes() != size {
		t.Errorf("long moebius: got (%q, size %d), want (%q, %d)", lmKey, lm.SizeBytes(), want, size)
	}

	mp, err := CompileMoebius(tree.M, tree.G, tree.F)
	if err != nil {
		t.Fatal(err)
	}
	mpKey := PlanFingerprint(mp.Family(), mp.N(), mp.M(), tree.G, tree.F, nil, 0)
	if want, size := "moebius:c288818c1a16aa2b1f89e3116ce54709", int64(1644); mpKey != want || mp.SizeBytes() != size ||
		mp.Schedule() != "pointer-jumping" {
		t.Errorf("moebius: got (%q, %q, size %d), want (%q, pointer-jumping, %d)",
			mpKey, mp.Schedule(), mp.SizeBytes(), want, size)
	}

	gfp, err := Grid2DFingerprint(&Grid2DSystem{Rows: 3, Cols: 5, Semiring: "minplus",
		A: make([]float64, 15), B: make([]float64, 15), Diag: make([]float64, 15),
		North: make([]float64, 5), West: make([]float64, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if want := "grid2d:31fcc33538349db686cdd9765864c812"; gfp != want {
		t.Errorf("grid2d: fingerprint %q, want %q", gfp, want)
	}
}

// TestCompileGrid2DValidates: CompileGrid2D rejects exactly the grids
// Grid2DFingerprint rejects, with the same error, so a grid no cache can
// key never compiles either.
func TestCompileGrid2DValidates(t *testing.T) {
	valid := func() *Grid2DSystem {
		return &Grid2DSystem{Rows: 3, Cols: 5, Semiring: "minplus",
			A: make([]float64, 15), North: make([]float64, 5), West: make([]float64, 3)}
	}
	bad := map[string]func(*Grid2DSystem){
		"zero rows":    func(s *Grid2DSystem) { s.Rows = 0 },
		"short north":  func(s *Grid2DSystem) { s.North = s.North[:4] },
		"short a":      func(s *Grid2DSystem) { s.A = s.A[:14] },
		"no terms":     func(s *Grid2DSystem) { s.A = nil },
		"nan boundary": func(s *Grid2DSystem) { s.West[1] = math.NaN() },
		"unknown ring": func(s *Grid2DSystem) { s.Semiring = "tropical?" },
	}
	for name, mutate := range bad {
		s := valid()
		mutate(s)
		_, ferr := Grid2DFingerprint(s)
		p, cerr := CompileGrid2D(s)
		if ferr == nil || cerr == nil || p != nil || ferr.Error() != cerr.Error() {
			t.Errorf("%s: Grid2DFingerprint error %v, CompileGrid2D (%v, %v)", name, ferr, p, cerr)
		}
	}
	if _, err := CompileGrid2D(valid()); err != nil {
		t.Fatalf("valid grid: %v", err)
	}
}

// TestConcurrentCompileFingerprints compiles every family from 16
// goroutines at once (run it under -race), each goroutine also hashing
// every job's cache key. Every key must equal the sequential hash, and
// every plan's SizeBytes, Schedule and replay must equal those of a
// sequential compile.
func TestConcurrentCompileFingerprints(t *testing.T) {
	ctx := context.Background()
	chain, tree, scatter, mg, mf := multiBlockSystems()
	short := FromFuncs(300, 301, func(i int) int { return i + 1 }, func(i int) int { return i }, nil)
	sp, err := NewSparseSystem(1<<20, []int{40, 7000, 123456, 900000}, []int{7, 40, 7000, 123456}, nil)
	if err != nil {
		t.Fatal(err)
	}
	grid := &Grid2DSystem{Rows: 40, Cols: 70, Semiring: "minplus",
		A: make([]float64, 2800), B: make([]float64, 2800), Diag: make([]float64, 2800),
		North: make([]float64, 70), West: make([]float64, 40)}
	for k := range grid.A {
		grid.A[k], grid.B[k], grid.Diag[k] = 1, 1, float64(k%3)
	}
	ints := func(m int) PlanData {
		init := make([]int64, m)
		for x := range init {
			init[x] = int64(3*x + 1)
		}
		return PlanData{Op: "int64-add", InitInt: init}
	}
	mb := PlanData{A: make([]float64, len(mg)), B: make([]float64, len(mg)), X0: make([]float64, len(mg)+1)}
	for i := range mb.A {
		mb.A[i], mb.B[i] = 0.5, float64(i%7)
	}
	type job struct {
		name    string
		compile func() (*Plan, error)
		key     func() string
		data    PlanData
	}
	jobs := []job{
		{"ordinary chain", func() (*Plan, error) { return Compile(chain, CompileOptions{}) },
			func() string { return PlanFingerprint(FamilyOrdinary, chain.N, chain.M, chain.G, chain.F, nil, 0) }, ints(chain.M)},
		{"ordinary tree", func() (*Plan, error) { return Compile(tree, CompileOptions{}) },
			func() string { return PlanFingerprint(FamilyOrdinary, tree.N, tree.M, tree.G, tree.F, nil, 0) }, ints(tree.M)},
		{"general", func() (*Plan, error) { return Compile(scatter, CompileOptions{MaxExponentBits: 4096}) },
			func() string {
				return PlanFingerprint(FamilyGeneral, scatter.N, scatter.M, scatter.G, scatter.F, scatter.H, 4096)
			}, ints(scatter.M)},
		{"forced general", func() (*Plan, error) { return Compile(short, CompileOptions{Family: FamilyGeneral}) },
			func() string { return PlanFingerprint(FamilyGeneral, short.N, short.M, short.G, short.F, nil, 0) }, ints(short.M)},
		{"moebius", func() (*Plan, error) { return CompileMoebius(len(mg)+1, mg, mf) },
			func() string { return PlanFingerprint(FamilyMoebius, len(mg), len(mg)+1, mg, mf, nil, 0) }, mb},
		{"sparse", func() (*Plan, error) { return CompileSparse(sp, CompileOptions{}) },
			func() string { return SparseFingerprint(FamilyOrdinary, sp, 0) }, ints(sp.NumCells())},
		{"grid2d", func() (*Plan, error) { return CompileGrid2D(grid) },
			func() string {
				fp, err := Grid2DFingerprint(grid)
				if err != nil {
					return err.Error()
				}
				return fp
			}, PlanData{Grid: grid}},
	}
	type outcome struct {
		key, sched string
		size       int64
		sol        *PlanSolution
	}
	run := func(j job) (outcome, error) {
		key := j.key()
		p, err := j.compile()
		if err != nil {
			return outcome{}, err
		}
		sol, err := p.SolveCtx(ctx, j.data)
		if err != nil {
			return outcome{}, err
		}
		return outcome{key, p.Schedule(), p.SizeBytes(), sol}, nil
	}
	want := make([]outcome, len(jobs))
	for k, j := range jobs {
		if want[k], err = run(j); err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, j := range jobs {
				got, err := run(j)
				if err != nil {
					t.Errorf("%s: %v", j.name, err)
					return
				}
				if got.key != want[k].key || got.sched != want[k].sched || got.size != want[k].size {
					t.Errorf("%s: concurrent (%q, %s, %d B), sequential (%q, %s, %d B)", j.name,
						got.key, got.sched, got.size, want[k].key, want[k].sched, want[k].size)
				}
				if !reflect.DeepEqual(got.sol, want[k].sol) {
					t.Errorf("%s: concurrent replay differs from the sequential compile's", j.name)
				}
			}
		}()
	}
	wg.Wait()
}

// TestCompileErrorPrecedence pins the error text CompileCtx returns for
// defective ordinary systems: Validate's range checks (every G before any
// F) outrank a duplicate g, whichever defect comes first in iteration order.
func TestCompileErrorPrecedence(t *testing.T) {
	for _, c := range []struct {
		name string
		s    *System
		want string
	}{
		{"F out of range before G out of range",
			&System{M: 4, N: 3, G: []int{1, 2, 7}, F: []int{9, 0, 1}},
			"core: invalid IR system: G[2] = 7 out of range [0,4)"},
		{"duplicate g before F out of range",
			&System{M: 4, N: 3, G: []int{1, 1, 2}, F: []int{0, 0, -1}},
			"core: invalid IR system: F[2] = -1 out of range [0,4)"},
		{"duplicate g alone",
			&System{M: 4, N: 3, G: []int{1, 2, 1}, F: []int{0, 1, 2}},
			"ordinary: g is not distinct: IR{ordinary, n=3, m=4}"},
	} {
		_, err := CompileCtx(context.Background(), c.s, CompileOptions{Family: FamilyOrdinary})
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: CompileCtx err %v, want %q", c.name, err, c.want)
		}
	}
}

// TestCompileAutoRunPathFamily checks that CompileCtx under FamilyAuto,
// which tries the ordinary run path before ResolveFamily's distinctness
// pass, still picks ResolveFamily's family and returns the same plan or
// error as compiling under that family: for run unions, near-runs that the
// run path declines, duplicate g, an explicit H = G, and an out-of-range g.
func TestCompileAutoRunPathFamily(t *testing.T) {
	ctx := context.Background()
	chain := func(n int) *System {
		return FromFuncs(n, n+1, func(i int) int { return i + 1 }, func(i int) int { return i }, nil)
	}
	runs := FromFuncs(900, 1000, func(i int) int { return i + 1 + 50*(i/300) }, func(i int) int { return i + 50*(i/300) }, nil)
	offByOne := chain(600)
	offByOne.F[300]--
	swapped := chain(600)
	swapped.G[10], swapped.G[20], swapped.F[10], swapped.F[20] = swapped.G[20], swapped.G[10], swapped.F[20], swapped.F[10]
	dup := chain(600)
	dup.G[400], dup.F[400] = dup.G[399], dup.F[399]
	withH := chain(600)
	withH.H = append([]int(nil), withH.G...)
	outOfRange := chain(600)
	outOfRange.G[599] = outOfRange.M
	for _, c := range []struct {
		name string
		s    *System
		want Family
	}{
		{"chain", chain(1000), FamilyOrdinary},
		{"run union", runs, FamilyOrdinary},
		{"short chain", chain(100), FamilyOrdinary},
		{"f off by one", offByOne, FamilyOrdinary},
		{"g out of order", swapped, FamilyOrdinary},
		{"duplicate g", dup, FamilyGeneral},
		{"H = G", withH, FamilyOrdinary},
		{"g out of range", outOfRange, FamilyOrdinary},
	} {
		if got := ResolveFamily(c.s, FamilyAuto); got != c.want {
			t.Fatalf("%s: ResolveFamily = %v, want %v", c.name, got, c.want)
		}
		auto, autoErr := CompileCtx(ctx, c.s, CompileOptions{})
		forced, forcedErr := CompileCtx(ctx, c.s, CompileOptions{Family: c.want})
		if (autoErr == nil) != (forcedErr == nil) || (autoErr != nil && autoErr.Error() != forcedErr.Error()) {
			t.Fatalf("%s: auto error %v, %v error %v", c.name, autoErr, c.want, forcedErr)
		}
		if autoErr != nil {
			continue
		}
		if auto.Family() != c.want || !reflect.DeepEqual(auto, forced) {
			t.Fatalf("%s: auto compiled %v (%s, %d B), %v compiled (%s, %d B)", c.name,
				auto.Family(), auto.Schedule(), auto.SizeBytes(), c.want, forced.Schedule(), forced.SizeBytes())
		}
	}
}

// TestScanAllocBudget bounds the heap one Scan of 2²² int64 values
// allocates: the 32 MiB result plus the run-form plan and the replay
// scratch, within 40 MiB. Tabulating the chain's g and f (64 MiB) or
// keeping a cell table in its plan (16 MiB) breaks it.
func TestScanAllocBudget(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	xs := make([]int64, 1<<22)
	for i := range xs {
		xs[i] = int64(i%1000) - 500
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := Scan[int64](IntAdd{}, xs, 2)
	runtime.ReadMemStats(&after)
	const budget = 40 << 20
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Scan(2^22 int64) allocated %.1f MiB", float64(alloc)/(1<<20))
	if alloc > budget {
		t.Errorf("Scan(2^22 int64) allocated %.1f MiB, budget %d MiB", float64(alloc)/(1<<20), budget>>20)
	}
	var acc int64
	for i, x := range xs {
		if acc += x; out[i] != acc {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], acc)
		}
	}
}
