package grid2d

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"indexedrec/internal/cap"
	"indexedrec/internal/core"
	"indexedrec/internal/parallel"
)

// editDistance builds the Levenshtein DP as a min-plus grid: unit
// insert/delete costs on the up/left terms, 0/1 substitution cost on the
// diagonal, D[0][j]=j / D[i][0]=i boundaries.
func editDistance(a, b string) *System {
	r, c := len(a), len(b)
	s := &System{
		Rows: r, Cols: c, Ring: RingMinPlus,
		A: make([]float64, r*c), B: make([]float64, r*c), D: make([]float64, r*c),
		North: make([]float64, c), West: make([]float64, r),
	}
	for k := range s.A {
		s.A[k], s.B[k] = 1, 1
		if a[k/c] != b[k%c] {
			s.D[k] = 1
		}
	}
	for j := range s.North {
		s.North[j] = float64(j + 1)
	}
	for i := range s.West {
		s.West[i] = float64(i + 1)
	}
	return s
}

// randomSystem builds a random grid with the given shape, ring and term
// mask (at least one term is forced). Affine coefficients stay small so
// 32-step products cannot overflow; tropical ones are small integers,
// with zeros of both signs.
func randomSystem(rng *rand.Rand, rows, cols int, ring Ring, mask uint8) *System {
	if mask&(TermA|TermB|TermD|TermC) == 0 {
		mask = TermA | TermB
	}
	cells := rows * cols
	grid := func() []float64 {
		g := make([]float64, cells)
		for k := range g {
			if ring == RingAffine {
				g[k] = 0.6*rng.Float64() - 0.3
			} else if g[k] = float64(rng.Intn(21) - 10); g[k] == 0 && rng.Intn(2) == 0 {
				g[k] = math.Copysign(0, -1) // -0 must survive every fold bit for bit
			}
		}
		return g
	}
	s := &System{Rows: rows, Cols: cols, Ring: ring,
		North: make([]float64, cols), West: make([]float64, rows),
		NW: float64(rng.Intn(9) - 4)}
	if mask&TermA != 0 {
		s.A = grid()
	}
	if mask&TermB != 0 {
		s.B = grid()
	}
	if mask&TermD != 0 {
		s.D = grid()
	}
	if mask&TermC != 0 {
		s.C = grid()
	}
	for j := range s.North {
		s.North[j] = float64(rng.Intn(9) - 4)
	}
	for i := range s.West {
		s.West[i] = float64(rng.Intn(9) - 4)
	}
	return s
}

func TestSolveSequentialEditDistance(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want float64
	}{
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"a", "a", 0},
		{"a", "b", 1},
		{"abc", "x", 3},
	} {
		res, err := SolveSequential(editDistance(tc.a, tc.b))
		if err != nil {
			t.Fatalf("SolveSequential(%q,%q): %v", tc.a, tc.b, err)
		}
		if got := res.Values[len(res.Values)-1]; got != tc.want {
			t.Errorf("edit(%q,%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if want := 1; res.Rounds != want { // every string fits one tile
			t.Errorf("edit(%q,%q) rounds = %d, want %d", tc.a, tc.b, res.Rounds, want)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	ok := func() *System { return editDistance("ab", "cde") }
	for name, breakIt := range map[string]func(*System){
		"zero rows":     func(s *System) { s.Rows = 0 },
		"negative cols": func(s *System) { s.Cols = -1 },
		"huge dims":     func(s *System) { s.Rows = maxGridDim + 1 },
		"bad ring":      func(s *System) { s.Ring = numRings },
		"no terms":      func(s *System) { s.A, s.B, s.D, s.C = nil, nil, nil, nil },
		"short a grid":  func(s *System) { s.A = s.A[:3] },
		"short north":   func(s *System) { s.North = s.North[:1] },
		"long west":     func(s *System) { s.West = append(s.West, 0) },
		"nan nw":        func(s *System) { s.NW = nan() },
		"inf north":     func(s *System) { s.North[1] = inf() },
		"nan west":      func(s *System) { s.West[0] = nan() },
	} {
		s := ok()
		breakIt(s)
		if err := s.Validate(); !errors.Is(err, core.ErrInvalidSystem) {
			t.Errorf("%s: Validate() = %v, want ErrInvalidSystem", name, err)
		}
		if _, err := Compile(context.Background(), s); !errors.Is(err, core.ErrInvalidSystem) {
			t.Errorf("%s: Compile() = %v, want ErrInvalidSystem", name, err)
		}
	}
	var nilSys *System
	if err := nilSys.Validate(); !errors.Is(err, core.ErrInvalidSystem) {
		t.Errorf("nil system: Validate() = %v, want ErrInvalidSystem", err)
	}
	if err := ok().Validate(); err != nil {
		t.Errorf("valid system: Validate() = %v", err)
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }

func TestRingByName(t *testing.T) {
	for _, r := range []Ring{RingAffine, RingMaxPlus, RingMinPlus} {
		got, err := RingByName(r.String())
		if err != nil || got != r {
			t.Errorf("RingByName(%q) = %v, %v", r.String(), got, err)
		}
	}
	if r, err := RingByName(""); err != nil || r != RingAffine {
		t.Errorf("RingByName(\"\") = %v, %v, want affine default", r, err)
	}
	if _, err := RingByName("bogus"); !errors.Is(err, core.ErrInvalidSystem) {
		t.Errorf("RingByName(bogus) = %v, want ErrInvalidSystem", err)
	}
}

// TestPlanMatchesOracle sweeps shapes (including the 1×1, 1×n, n×1 edge
// cases), rings and term masks, and requires the parallel plan replay and a
// repeated warm arena replay to be bit-identical to the sequential oracle.
func TestPlanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	shapes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {1, 64}, {64, 1}, {2, 2}, {3, 5}, {8, 8}, {17, 31}, {33, 9}}
	for _, sh := range shapes {
		for _, ring := range []Ring{RingAffine, RingMaxPlus, RingMinPlus} {
			for mask := uint8(1); mask < 16; mask++ {
				s := randomSystem(rng, sh[0], sh[1], ring, mask)
				want, err := SolveSequential(s)
				if err != nil {
					t.Fatalf("%dx%d %s mask %#x: oracle: %v", sh[0], sh[1], ring, mask, err)
				}
				p, err := Compile(ctx, s)
				if err != nil {
					t.Fatalf("%dx%d %s mask %#x: Compile: %v", sh[0], sh[1], ring, mask, err)
				}
				got, err := p.SolveCtx(ctx, s, 4)
				if err != nil {
					t.Fatalf("%dx%d %s mask %#x: SolveCtx: %v", sh[0], sh[1], ring, mask, err)
				}
				assertSame(t, fmt.Sprintf("%dx%d %s mask %#x plan", sh[0], sh[1], ring, mask), want, got)
				ar := p.NewArena()
				for rep := 0; rep < 2; rep++ {
					res, err := ar.SolveCtx(ctx, s, 3)
					if err != nil {
						t.Fatalf("arena rep %d: %v", rep, err)
					}
					assertSame(t, fmt.Sprintf("%dx%d %s mask %#x arena rep %d", sh[0], sh[1], ring, mask, rep), want, res)
				}
			}
		}
	}
}

// tileRounds is the tile schedule's depth: ⌈rows/b⌉ + ⌈cols/b⌉ − 1.
func tileRounds(rows, cols, b int) int {
	return (rows+b-1)/b + (cols+b-1)/b - 1
}

func assertSame(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Cells != want.Cells {
		t.Fatalf("%s: rounds/cells = %d/%d, want %d/%d", label, got.Rounds, got.Cells, want.Rounds, want.Cells)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%s: len = %d, want %d", label, len(got.Values), len(want.Values))
	}
	for k := range want.Values {
		if want.Values[k] != got.Values[k] {
			t.Fatalf("%s: cell %d = %v, want %v", label, k, got.Values[k], want.Values[k])
		}
	}
}

// TestKernelToggle proves the monomorphized and generic-dispatch kernel
// paths are bit-identical.
func TestKernelToggle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	s := randomSystem(rng, 19, 23, RingMaxPlus, TermA|TermB|TermD|TermC)
	p, err := Compile(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := p.SolveCtx(ctx, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	prev := SetKernelsEnabled(false)
	defer SetKernelsEnabled(prev)
	if prev != true {
		t.Fatalf("kernels were disabled at test start")
	}
	slow, err := p.SolveCtx(ctx, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, "generic dispatch", fast, slow)
}

// TestNonFinite drives an affine grid into overflow and requires the oracle
// and the parallel engine to fail identically: same error class, same
// first bad cell in row-major order.
func TestNonFinite(t *testing.T) {
	r, c := 6, 5
	s := &System{Rows: r, Cols: c, Ring: RingAffine,
		A: make([]float64, r*c), B: make([]float64, r*c),
		North: make([]float64, c), West: make([]float64, r)}
	for k := range s.A {
		s.A[k], s.B[k] = 1e300, 1e300
	}
	for j := range s.North {
		s.North[j] = 1e300
	}
	for i := range s.West {
		s.West[i] = 1e300
	}
	_, oerr := SolveSequential(s)
	if !errors.Is(oerr, ErrNonFinite) {
		t.Fatalf("oracle error = %v, want ErrNonFinite", oerr)
	}
	p, err := Compile(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	_, perr := p.SolveCtx(context.Background(), s, 4)
	if !errors.Is(perr, ErrNonFinite) {
		t.Fatalf("parallel error = %v, want ErrNonFinite", perr)
	}
	if oerr.Error() != perr.Error() {
		t.Fatalf("error text diverged:\n  oracle:   %v\n  parallel: %v", oerr, perr)
	}
}

// TestArenaShapeMismatch rejects replaying a plan with a system of a
// different structure.
func TestArenaShapeMismatch(t *testing.T) {
	ctx := context.Background()
	s := editDistance("abc", "abcd")
	p, err := Compile(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	other := editDistance("abcd", "abc") // transposed shape
	if _, err := p.SolveCtx(ctx, other, 2); !errors.Is(err, core.ErrInvalidSystem) {
		t.Fatalf("shape mismatch error = %v, want ErrInvalidSystem", err)
	}
	sameShape := editDistance("abc", "abcd")
	sameShape.Ring = RingMaxPlus // structural change, same dims
	if _, err := p.SolveCtx(ctx, sameShape, 2); !errors.Is(err, core.ErrInvalidSystem) {
		t.Fatalf("ring mismatch error = %v, want ErrInvalidSystem", err)
	}
}

// TestTileScheduleRespectsDependencies replays the tile schedule's order —
// round by round, tiles in dispatch order, cells row-major inside each tile —
// for several tile sides, and requires each cell's up, left and diagonal
// dependencies to sit in an earlier round or earlier in the same tile, so
// any partition of a round across workers races nothing. It also embeds the
// grids as dependence DAGs and cross-checks cap's general wavefront
// labeling: level(i,j) must be the anti-diagonal i+j.
func TestTileScheduleRespectsDependencies(t *testing.T) {
	for _, sh := range [][2]int{{1, 1}, {1, 6}, {6, 1}, {3, 4}, {5, 5}, {11, 8}} {
		r, c := sh[0], sh[1]
		s := randomSystem(rand.New(rand.NewSource(1)), r, c, RingAffine, TermA|TermB|TermD)
		for _, b := range []int{1, 2, 3, 7, TileSide(r, c)} {
			p := newPlan(s, b)
			if want := tileRounds(r, c, b); p.Rounds() != want {
				t.Fatalf("%dx%d b=%d: %d rounds, want %d", r, c, b, p.Rounds(), want)
			}
			// Where each cell was solved: its round, its tile, and its
			// position in that tile's row-major fold.
			type stamp struct{ round, tile, seq int }
			at := make([]stamp, r*c)
			seen, tile := 0, 0
			for k := 0; k < p.Rounds(); k++ {
				ti0, n := p.roundTiles(k)
				for u := 0; u < n; u++ {
					ti, tj := ti0+u, k-ti0-u
					if ti < 0 || ti >= p.tileRows || tj < 0 || tj >= p.tileCols {
						t.Fatalf("%dx%d b=%d: round %d tile (%d,%d) outside the tile grid", r, c, b, k, ti, tj)
					}
					seq := 0
					for i := ti * b; i < min((ti+1)*b, r); i++ {
						for j := tj * b; j < min((tj+1)*b, c); j++ {
							at[i*c+j] = stamp{k, tile, seq}
							seq++
							seen++
						}
					}
					tile++
				}
			}
			if seen != r*c {
				t.Fatalf("%dx%d b=%d: schedule solved %d cells, want %d", r, c, b, seen, r*c)
			}
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					v := at[i*c+j]
					for _, dep := range [][2]int{{i - 1, j}, {i, j - 1}, {i - 1, j - 1}} {
						if dep[0] < 0 || dep[1] < 0 {
							continue // boundary
						}
						d := at[dep[0]*c+dep[1]]
						if d.round >= v.round && (d.tile != v.tile || d.seq >= v.seq) {
							t.Fatalf("%dx%d b=%d: cell (%d,%d) at %+v reads (%d,%d) at %+v",
								r, c, b, i, j, v, dep[0], dep[1], d)
						}
					}
				}
			}
		}

		edges := make(map[int][]cap.Edge)
		one := big.NewInt(1)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				v := i*c + j
				if i > 0 {
					edges[v] = append(edges[v], cap.Edge{To: (i-1)*c + j, Label: one})
				}
				if j > 0 {
					edges[v] = append(edges[v], cap.Edge{To: v - 1, Label: one})
				}
				if i > 0 && j > 0 {
					edges[v] = append(edges[v], cap.Edge{To: (i-1)*c + j - 1, Label: one})
				}
			}
		}
		levels, err := cap.WavefrontLevels(cap.NewGraph(r*c, edges))
		if err != nil {
			t.Fatalf("%dx%d: WavefrontLevels: %v", r, c, err)
		}
		for v, l := range levels {
			if want := v/c + v%c; l != want {
				t.Fatalf("%dx%d: level(%d,%d) = %d, want %d", r, c, v/c, v%c, l, want)
			}
		}
	}
}

// TestTiledMatchesOracle compiles with small tile sides so small grids
// cross many tile edges — ragged edge tiles, 1×n, n×1 and 1×1 included —
// and requires plan and arena replays to be bit-identical to the oracle
// over every ring and term mask, with the gang on and off.
func TestTiledMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	ctx := context.Background()
	shapes := [][2]int{{1, 1}, {1, 9}, {9, 1}, {4, 4}, {10, 17}, {23, 6}}
	for _, gang := range []bool{true, false} {
		t.Run(fmt.Sprintf("gang=%v", gang), func(t *testing.T) {
			defer parallel.SetGangEnabled(parallel.SetGangEnabled(gang))
			for _, sh := range shapes {
				for _, b := range []int{1, 3, 7, TileSide(sh[0], sh[1])} {
					for _, ring := range []Ring{RingAffine, RingMaxPlus, RingMinPlus} {
						for mask := uint8(1); mask < 16; mask++ {
							label := fmt.Sprintf("%dx%d b=%d %s mask %#x", sh[0], sh[1], b, ring, mask)
							s := randomSystem(rng, sh[0], sh[1], ring, mask)
							want, err := SolveSequential(s)
							if err != nil {
								t.Fatalf("%s: oracle: %v", label, err)
							}
							p := newPlan(s, b)
							got, err := p.SolveCtx(ctx, s, 3)
							if err != nil {
								t.Fatalf("%s: plan: %v", label, err)
							}
							assertValues(t, label+" plan", p, want, got)
							ar := p.NewArena()
							for rep := 0; rep < 2; rep++ {
								res, err := ar.SolveCtx(ctx, s, 2)
								if err != nil {
									t.Fatalf("%s: arena rep %d: %v", label, rep, err)
								}
								assertValues(t, fmt.Sprintf("%s arena rep %d", label, rep), p, want, res)
							}
						}
					}
				}
			}
		})
	}
}

// assertValues checks a replay of p against the oracle's values and cell
// count, and its round count against p's tile formula.
func assertValues(t *testing.T, label string, p *Plan, want, got *Result) {
	t.Helper()
	if r := tileRounds(p.rows, p.cols, p.tile); got.Rounds != r || got.Cells != want.Cells {
		t.Fatalf("%s: rounds/cells = %d/%d, want %d/%d", label, got.Rounds, got.Cells, r, want.Cells)
	}
	for k := range want.Values {
		if math.Float64bits(want.Values[k]) != math.Float64bits(got.Values[k]) {
			t.Fatalf("%s: cell %d = %v, want %v", label, k, got.Values[k], want.Values[k])
		}
	}
}

// TestTiledNonFinite plants one non-finite coefficient per trial on grids
// cut into many small tiles, so the first bad cell in row-major order often
// sits in a later tile round than other bad cells. Every replay must fail
// with exactly the oracle's error text.
func TestTiledNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	ctx := context.Background()
	for trial := 0; trial < 60; trial++ {
		ring := Ring(trial % int(numRings))
		r, c := 1+rng.Intn(13), 1+rng.Intn(13)
		s := randomSystem(rng, r, c, ring, TermA|TermB|TermD|TermC)
		bad := []float64{nan(), inf(), -inf()}[trial%3]
		for n := 1 + rng.Intn(3); n > 0; n-- {
			grid := [][]float64{s.A, s.B, s.D, s.C}[rng.Intn(4)]
			grid[rng.Intn(r*c)] = bad
		}
		_, oerr := SolveSequential(s)
		for _, b := range []int{1, 2, 5, TileSide(r, c)} {
			p := newPlan(s, b)
			_, perr := p.SolveCtx(ctx, s, 3)
			_, aerr := p.NewArena().SolveCtx(ctx, s, 2)
			for _, err := range []error{perr, aerr} {
				if (oerr == nil) != (err == nil) || (oerr != nil && oerr.Error() != err.Error()) {
					t.Fatalf("trial %d %dx%d %s b=%d: oracle %v, replay %v", trial, r, c, ring, b, oerr, err)
				}
			}
		}
	}
}

// TestPlanSizeBytes pins the plan's cache accounting: a plan is O(1) — the
// same bytes at 1×1 and 4096×4096 — and SizeBytes matches what Compile
// allocates, up to the heap's size-class rounding. Each shape takes the
// quietest of a few trials, since the heap counters also see other
// goroutines.
func TestPlanSizeBytes(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ctx := context.Background()
	var sizes []int64
	for _, n := range []int{1, 1024, 4096} {
		s := &System{Rows: n, Cols: n, Ring: RingMinPlus, C: make([]float64, n*n),
			North: make([]float64, n), West: make([]float64, n)}
		p, err := Compile(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		perPlan := int64(-1)
		for trial := 0; trial < 5; trial++ {
			const runs = 50
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			for i := 0; i < runs; i++ {
				Compile(ctx, s)
			}
			runtime.ReadMemStats(&ms1)
			if b := int64(ms1.TotalAlloc-ms0.TotalAlloc) / runs; perPlan < 0 || b < perPlan {
				perPlan = b
			}
		}
		t.Logf("%dx%d: SizeBytes %d, Compile allocates %d", n, n, p.SizeBytes(), perPlan)
		if perPlan < p.SizeBytes() || perPlan > p.SizeBytes()+16 {
			t.Errorf("%dx%d: SizeBytes %d, but Compile allocates %d bytes", n, n, p.SizeBytes(), perPlan)
		}
		sizes = append(sizes, p.SizeBytes())
	}
	if sizes[0] != sizes[1] || sizes[1] != sizes[2] {
		t.Errorf("SizeBytes grows with the grid: %v", sizes)
	}
}

// TestConcurrentWarmReplays hammers one plan from many goroutines — plan
// solves and private arenas interleaved — and requires every result to be
// bit-identical to the oracle. Run under -race this is the arena-aliasing
// and tile-round safety proof.
func TestConcurrentWarmReplays(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ctx := context.Background()
	s := randomSystem(rng, 40, 33, RingMinPlus, TermA|TermB|TermC)
	want, err := SolveSequential(s)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(s, 5) // 8×7 tiles, so every solve fans its rounds out too
	const workers, reps = 8, 20
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ar := p.NewArena()
			for rep := 0; rep < reps; rep++ {
				var res *Result
				var err error
				if (w+rep)%2 == 0 {
					res, err = ar.SolveCtx(ctx, s, 2)
				} else {
					res, err = p.SolveCtx(ctx, s, 2)
				}
				if err != nil {
					errc <- err
					return
				}
				for k := range want.Values {
					if res.Values[k] != want.Values[k] {
						errc <- fmt.Errorf("worker %d rep %d: cell %d = %v, want %v",
							w, rep, k, res.Values[k], want.Values[k])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestWarmReplayZeroAlloc is the acceptance gate: a warm arena replay with
// a persistent gang installed must not allocate at all.
func TestWarmReplayZeroAlloc(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	const procs = 4
	rng := rand.New(rand.NewSource(5))
	s := randomSystem(rng, 1200, 1100, RingMaxPlus, TermA|TermB|TermD|TermC)
	p, err := Compile(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	g := parallel.NewGang(procs)
	defer g.Close()
	ctx := parallel.WithGang(context.Background(), g)
	ar := p.NewArena()
	if _, err := ar.SolveCtx(ctx, s, procs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ar.SolveCtx(ctx, s, procs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm arena replay allocated %.1f times per run, want 0", allocs)
	}
}

// TestCancellation stops a solve mid-flight.
func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSystem(rng, 300, 300, RingAffine, TermA|TermB|TermC)
	p, err := Compile(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.SolveCtx(ctx, s, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve error = %v, want context.Canceled", err)
	}
}
