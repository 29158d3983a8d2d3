package ordinary

import (
	"context"
	"reflect"
	"testing"

	"indexedrec/internal/core"
)

// runSystem builds a union of contiguous chains from fuzz bytes: each pair
// (length, gap) of shape adds a run of 1 + 3·length consecutive cells,
// gap%3 cells past the previous run's end (gap 0 merges the two runs), each
// cell reading the one below it. perturb%8 then applies at most one defect
// at iteration at%n: 1 swaps two g, 2 puts one f off by one, 3 sets g[0] =
// 0, 4 sets g[n−1] = m, 5 adds an explicit H = G, 6 an H ≠ G, and 7 repeats
// the previous iteration (a duplicate write).
func runSystem(shape []byte, perturb uint8, at uint16) *core.System {
	s := &core.System{}
	next := 1
	for k := 0; k+1 < len(shape) && k < 32; k += 2 {
		start := next + int(shape[k+1]%3)
		for x := start; x < start+1+3*int(shape[k]); x++ {
			s.G = append(s.G, x)
			s.F = append(s.F, x-1)
		}
		next = start + 1 + 3*int(shape[k])
	}
	s.N, s.M = len(s.G), next+int(at%3)
	if s.N == 0 {
		return s
	}
	i := int(at) % s.N
	switch perturb % 8 {
	case 1:
		j := (i + 1 + int(at)%7) % s.N
		s.G[i], s.G[j] = s.G[j], s.G[i]
	case 2:
		s.F[i] += 1 - 2*int(at&1)
	case 3:
		s.G[0] = 0
	case 4:
		s.G[s.N-1] = s.M
	case 5:
		s.H = append([]int(nil), s.G...)
	case 6:
		s.H = append([]int(nil), s.G...)
		s.H[i] = s.F[i]
	case 7:
		if i > 0 {
			s.G[i], s.F[i] = s.G[i-1], s.F[i-1]
		}
	}
	return s
}

// hideKernel wraps an op so that kernelFor finds no core.Kernel: replays
// through it take the generic Combine loops, with no global switch flipped.
type hideKernel struct{ core.Semigroup[int64] }

// checkRunReplays replays p against the sequential loop on s: pooled and
// arena replays, through IntAdd's kernels and through the generic loops,
// with a non-commutative exact op (affineCompose) so any operand-order or
// cell-mapping slip shows, a second replay on the same dirty arena (the
// run form copies only the gaps between runs), a primed replay, and every
// chain's member replay.
func checkRunReplays(t *testing.T, s *core.System, p *Plan) {
	t.Helper()
	ctx := context.Background()
	opt := Options{Procs: 2}
	ints := make([]int64, s.M)
	for x := range ints {
		ints[x] = int64(x*x + 1)
	}
	want := core.RunSequential[int64](s, core.IntAdd{}, ints)
	same := func(what string, got []int64) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v (%s): %s replay differs from the sequential loop", s, p.Schedule(), what)
		}
	}
	for _, op := range []core.Semigroup[int64]{core.IntAdd{}, hideKernel{core.IntAdd{}}} {
		name := "kernel"
		if _, ok := op.(hideKernel); ok {
			name = "generic"
		}
		r, err := SolvePlanPooledCtx[int64](ctx, p, op, ints, opt)
		if err != nil {
			t.Fatal(err)
		}
		same(name+" pooled", r.Values)
		a := NewArena[int64](p)
		for x := range a.Buf() {
			a.Buf()[x] = -1 // stale values the gap copy must overwrite
		}
		r, err = a.SolveCtx(ctx, op, ints, opt)
		if err != nil {
			t.Fatal(err)
		}
		same(name+" arena", r.Values)
		if p.Primeable() {
			copy(a.Buf(), ints)
			if r, err = a.SolvePrimedCtx(ctx, op, opt); err != nil {
				t.Fatal(err)
			}
			same(name+" primed", r.Values)
		}
	}

	aff := affineInit(s.M)
	affWant := core.RunSequential[affine](s, affineCompose{}, aff)
	ar, err := SolvePlanCtx[affine](ctx, p, affineCompose{}, aff, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ar.Values, affWant) {
		t.Fatalf("%v (%s): affine replay differs from the sequential loop", s, p.Schedule())
	}
	for c := 0; c < p.NumChains(); c++ {
		sr, err := SolvePlanChainsCtx[int64](ctx, p, core.IntAdd{}, ints, c, c+1, opt)
		if err != nil {
			t.Fatal(err)
		}
		for k, x := range sr.Cells {
			if sr.Values[k] != want[x] {
				t.Fatalf("%v: chain %d member replay cell %d = %d, want %d", s, c, x, sr.Values[k], want[x])
			}
		}
	}
}

// FuzzRunPlanMatchesForest is the run path's oracle: on unions of
// contiguous chains, perturbed or not, compileRuns must either decline or
// return exactly compileForest's plan, and CompilePlanOpts must return
// compileForest's plan or error. Both paths emit the run form for such
// unions, so their agreement says nothing about the contiguous fold: every
// replay is also held to the sequential loop (checkRunReplays).
func FuzzRunPlanMatchesForest(f *testing.F) {
	f.Add([]byte{100, 0}, uint8(0), uint8(0), uint16(0))
	f.Add([]byte{100, 0}, uint8(1), uint8(0), uint16(0))
	f.Add([]byte{90, 1, 0, 2, 120, 0, 5, 1}, uint8(0), uint8(0), uint16(4))
	f.Add([]byte{3, 1, 4, 2, 1, 1}, uint8(1), uint8(0), uint16(2))
	f.Add([]byte{90, 1, 3, 2, 100, 1}, uint8(2), uint8(0), uint16(5))
	for p := uint8(1); p < 8; p++ {
		f.Add([]byte{90, 1, 100, 2}, uint8(0), p, uint16(17*p))
	}
	f.Fuzz(func(t *testing.T, shape []byte, sched, perturb uint8, at uint16) {
		s := runSystem(shape, perturb, at)
		popt := PlanOptions{Schedule: Schedule(sched % 3)}
		ctx := context.Background()
		want, wantErr := compileForest(ctx, s, popt)

		// CompilePlanOpts never tries the run path under ScheduleJumping.
		if popt.Schedule != ScheduleJumping {
			rp := compileRuns(s, popt.Schedule == ScheduleBlocked)
			switch {
			case rp != nil && wantErr != nil:
				t.Fatalf("run path accepted %v, forest path failed: %v", s, wantErr)
			case rp != nil && !reflect.DeepEqual(rp, want):
				t.Fatalf("%v: run plan (%s, %d B) != forest plan (%s, %d B)",
					s, rp.Schedule(), rp.SizeBytes(), want.Schedule(), want.SizeBytes())
			case rp == nil && perturb%8 == 0 && s.N > 0 && wantErr == nil && want.BlockedScan():
				t.Fatalf("run path declined an unperturbed union of runs %v", s)
			case rp != nil && !rp.blocked.runForm():
				t.Fatalf("run path compiled %v to the gather form", s)
			}
		}

		got, gotErr := CompilePlanOpts(ctx, s, popt)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("CompilePlanOpts error %v, forest path %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		// Compared before any replay, while both arena pools are empty.
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: CompilePlanOpts plan (%s, %d B) != forest plan (%s, %d B)",
				s, got.Schedule(), got.SizeBytes(), want.Schedule(), want.SizeBytes())
		}
		checkRunReplays(t, s, got)
	})
}
