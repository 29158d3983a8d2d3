package ordinary

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"indexedrec/internal/core"
	"indexedrec/internal/paperfig"
)

// multiChain builds k independent write chains of L written cells each,
// iterations interleaved round-robin across chains so no chain's writes are
// contiguous in iteration order. Chain c occupies cells
// [c·(L+1), (c+1)·(L+1)): its head reads the unwritten cell c·(L+1), so the
// plan is primeable.
func multiChain(k, L int) *core.System {
	s := &core.System{M: k * (L + 1)}
	for j := 0; j < L; j++ {
		for c := 0; c < k; c++ {
			base := c * (L + 1)
			s.G = append(s.G, base+j+1)
			s.F = append(s.F, base+j)
		}
	}
	s.N = len(s.G)
	return s
}

// bothForms returns s and a copy with its cell ids permuted by a fixed
// permutation. multiChain's chains are ascending runs, so s compiles to a
// run-form blocked plan; the permuted copy has the same forest shape but
// scattered cells, so it keeps the gather form's cell table.
func bothForms(s *core.System) []*core.System {
	perm := rand.New(rand.NewSource(int64(s.M))).Perm(s.M)
	q := &core.System{M: s.M, N: s.N, G: make([]int, s.N), F: make([]int, s.N)}
	for i := range s.G {
		q.G[i], q.F[i] = perm[s.G[i]], perm[s.F[i]]
	}
	return []*core.System{s, q}
}

// affine is x ↦ a·x + b over wrapping int64 arithmetic: exactly associative
// under composition (mod 2⁶⁴) but non-commutative, so any operand-order or
// association bug in the blocked schedule changes the bits.
type affine struct{ a, b int64 }

type affineCompose struct{}

func (affineCompose) Name() string { return "affine-compose" }

// Combine composes v after u (apply u first): (v ∘ u)(x) = v.a·(u.a·x+u.b)+v.b.
func (affineCompose) Combine(u, v affine) affine {
	return affine{a: v.a * u.a, b: v.a*u.b + v.b}
}

func affineInit(m int) []affine {
	init := make([]affine, m)
	for x := range init {
		init[x] = affine{a: int64(2*x + 1), b: int64(x) - 7}
	}
	return init
}

func TestBlockedAutoSelection(t *testing.T) {
	cases := []struct {
		name string
		s    *core.System
		want string
	}{
		{"long chain", paperfig.Fig2System(1000), "blocked-scan"},
		{"chain at threshold", multiChain(1, blockedMinChain), "blocked-scan"},
		{"chain below threshold", multiChain(1, blockedMinChain-1), "pointer-jumping"},
		{"short chains", multiChain(8, 10), "pointer-jumping"},
		{"long chains", multiChain(4, 400), "blocked-scan"},
		{"empty", &core.System{M: 5}, "pointer-jumping"},
	}
	for _, tc := range cases {
		p, err := CompilePlan(context.Background(), tc.s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := p.Schedule(); got != tc.want {
			t.Errorf("%s: schedule = %q, want %q", tc.name, got, tc.want)
		}
		if p.BlockedScan() != (tc.want == "blocked-scan") {
			t.Errorf("%s: BlockedScan() = %v inconsistent with schedule", tc.name, p.BlockedScan())
		}
	}
	// Branching forests (a cell consumed by two chains) are never blocked.
	tree := &core.System{M: 4, N: 3, G: []int{1, 2, 3}, F: []int{0, 1, 1}}
	p, err := CompilePlan(context.Background(), tree)
	if err != nil {
		t.Fatal(err)
	}
	if p.Schedule() != "pointer-jumping" {
		t.Errorf("tree forest: schedule = %q, want pointer-jumping", p.Schedule())
	}
}

// TestBlockedPlanForms checks which blocked plans drop their cell table:
// ascending runs compile to the run form on both paths (the run path for a
// strictly increasing g, the forest walk for interleaved iterations), and
// scattered chains keep the gather form's 4 B/cell cellSeq.
func TestBlockedPlanForms(t *testing.T) {
	ctx := context.Background()
	forms := bothForms(multiChain(4, 400))
	for _, c := range []struct {
		name    string
		s       *core.System
		runForm bool
	}{
		{"increasing runs", multiChain(1, 1000), true},
		{"interleaved runs", forms[0], true},
		{"scattered chains", forms[1], false},
	} {
		p, err := CompilePlan(ctx, c.s)
		if err != nil {
			t.Fatal(err)
		}
		if !p.BlockedScan() || p.blocked.runForm() != c.runForm {
			t.Fatalf("%s: %s, run form %v, want blocked-scan, run form %v",
				c.name, p.Schedule(), p.BlockedScan() && p.blocked.runForm(), c.runForm)
		}
		if cells := int64(4 * c.s.N); c.runForm == (p.SizeBytes() >= cells) {
			t.Errorf("%s: SizeBytes %d against %d B of cell table", c.name, p.SizeBytes(), cells)
		}
	}
}

func TestBlockedForcedOnTreeErrors(t *testing.T) {
	tree := &core.System{M: 4, N: 3, G: []int{1, 2, 3}, F: []int{0, 1, 1}}
	_, err := CompilePlanOpts(context.Background(), tree, PlanOptions{Schedule: ScheduleBlocked})
	if err == nil {
		t.Fatal("ScheduleBlocked on a branching forest: want error, got nil")
	}
	if !strings.Contains(err.Error(), "two chains") {
		t.Errorf("unexpected error: %v", err)
	}
}

// compareSchedules solves s under both compiled schedules plus the direct
// solver and requires all string results identical (Concat is exact and
// non-commutative, so this checks operand order and association).
func compareSchedules(t *testing.T, s *core.System, forced bool) {
	t.Helper()
	for _, s := range bothForms(s) {
		compareSchedulesOnce(t, s, forced)
	}
}

func compareSchedulesOnce(t *testing.T, s *core.System, forced bool) {
	t.Helper()
	ctx := context.Background()
	init := stringInit(s.M)
	popt := PlanOptions{Schedule: ScheduleAuto}
	if forced {
		popt.Schedule = ScheduleBlocked
	}
	bp, err := CompilePlanOpts(ctx, s, popt)
	if err != nil {
		t.Fatal(err)
	}
	jp, err := CompilePlanOpts(ctx, s, PlanOptions{Schedule: ScheduleJumping})
	if err != nil {
		t.Fatal(err)
	}
	want := core.RunSequential[string](s, core.Concat{}, init)
	for _, procs := range []int{1, 3, 8} {
		br, err := SolvePlanCtx[string](ctx, bp, core.Concat{}, init, Options{Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		jr, err := SolvePlanCtx[string](ctx, jp, core.Concat{}, init, Options{Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		for x := range want {
			if br.Values[x] != want[x] || jr.Values[x] != want[x] {
				t.Fatalf("procs %d cell %d: blocked %q jumping %q want %q",
					procs, x, br.Values[x], jr.Values[x], want[x])
			}
		}
	}
	// Roots must be identical arrays across schedules.
	for x, r := range jp.Roots() {
		if bp.Roots()[x] != r {
			t.Fatalf("cell %d: blocked root %d, jumping root %d", x, bp.Roots()[x], r)
		}
	}
}

func TestBlockedMatchesJumpingLongChains(t *testing.T) {
	compareSchedules(t, paperfig.Fig2System(1000), false)
	compareSchedules(t, multiChain(3, 700), false)
	// Uneven tail: chain length not a segment multiple.
	compareSchedules(t, multiChain(2, blockedSegLen*2+17), false)
}

func TestBlockedForcedDegenerateSchedules(t *testing.T) {
	cases := []*core.System{
		multiChain(1, 1),                 // single-cell chain
		multiChain(5, 1),                 // many single-cell chains
		multiChain(1, 5),                 // chain shorter than one segment
		multiChain(1, blockedSegLen),     // exactly one segment
		multiChain(1, blockedSegLen+1),   // one cell into the second segment
		multiChain(7, 33),                // many partial chains
		multiChain(2, blockedSegLen*4-1), // power-of-two-ish segment counts
		{M: 6},                           // no writes at all
	}
	for i, s := range cases {
		compareSchedules(t, s, true)
		if testing.Verbose() {
			t.Logf("case %d ok", i)
		}
	}
}

func TestBlockedAffineOrderedCombines(t *testing.T) {
	for _, s := range bothForms(multiChain(2, 1500)) {
		ctx := context.Background()
		init := affineInit(s.M)
		bp, err := CompilePlan(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if !bp.BlockedScan() {
			t.Fatal("expected blocked schedule")
		}
		jp, err := CompilePlanOpts(ctx, s, PlanOptions{Schedule: ScheduleJumping})
		if err != nil {
			t.Fatal(err)
		}
		want := core.RunSequential[affine](s, affineCompose{}, init)
		br, err := SolvePlanCtx[affine](ctx, bp, affineCompose{}, init, Options{Procs: 8})
		if err != nil {
			t.Fatal(err)
		}
		jr, err := SolvePlanCtx[affine](ctx, jp, affineCompose{}, init, Options{Procs: 8})
		if err != nil {
			t.Fatal(err)
		}
		for x := range want {
			if br.Values[x] != want[x] || jr.Values[x] != want[x] {
				t.Fatalf("cell %d: blocked %+v jumping %+v want %+v", x, br.Values[x], jr.Values[x], want[x])
			}
		}
	}
}

// countingOp wraps Concat to count Combine invocations, proving
// Result.Combines reports the blocked schedule's exact op-application count.
type countingOp struct{ n *atomic.Int64 }

func (countingOp) Name() string { return "counting-concat" }
func (c countingOp) Combine(a, b string) string {
	c.n.Add(1)
	return a + b
}

func TestBlockedCombinesCountExact(t *testing.T) {
	ctx := context.Background()
	for _, s := range []*core.System{
		paperfig.Fig2System(1000),
		multiChain(3, blockedSegLen*2+17),
	} {
		p, err := CompilePlan(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if !p.BlockedScan() {
			t.Fatal("expected blocked schedule")
		}
		var n atomic.Int64
		res, err := SolvePlanCtx[string](ctx, p, countingOp{&n}, stringInit(s.M), Options{Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Combines != p.Combines() {
			t.Errorf("Result.Combines = %d, Plan.Combines() = %d", res.Combines, p.Combines())
		}
		if got := n.Load(); got != res.Combines {
			t.Errorf("counted %d Combine calls, Result.Combines = %d", got, res.Combines)
		}
		if res.Rounds != p.Rounds() {
			t.Errorf("Result.Rounds = %d, Plan.Rounds() = %d", res.Rounds, p.Rounds())
		}
		// Work optimality: the blocked count stays within 2n + segment-tree
		// slack, far below the jumping schedule's n·log n.
		n64 := int64(s.N)
		if res.Combines > 2*n64+n64/blockedSegLen*16 {
			t.Errorf("blocked combines %d not O(n) for n = %d", res.Combines, n64)
		}
	}
}

// TestBlockedAndJumpingPlansAgree compiles one system under both schedules
// and requires identical full replays, each reporting its own plan's cost
// profile.
func TestBlockedAndJumpingPlansAgree(t *testing.T) {
	ctx := context.Background()
	s := multiChain(2, 600)
	init := stringInit(s.M)
	bp, err := CompilePlanOpts(ctx, s, PlanOptions{Schedule: ScheduleBlocked})
	if err != nil {
		t.Fatal(err)
	}
	jp, err := CompilePlanOpts(ctx, s, PlanOptions{Schedule: ScheduleJumping})
	if err != nil {
		t.Fatal(err)
	}
	want := core.RunSequential[string](s, core.Concat{}, init)
	br, err := SolvePlanCtx[string](ctx, bp, core.Concat{}, init, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	jr, err := SolvePlanCtx[string](ctx, jp, core.Concat{}, init, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for x := range want {
		if jr.Values[x] != want[x] || br.Values[x] != want[x] {
			t.Fatalf("cell %d: jumping %q blocked %q want %q", x, jr.Values[x], br.Values[x], want[x])
		}
	}
	if jr.Rounds == br.Rounds {
		t.Errorf("jumping and blocked replays report the same round count %d", br.Rounds)
	}
	for _, c := range []struct {
		p   *Plan
		res *Result[string]
	}{{bp, br}, {jp, jr}} {
		if c.res.Rounds != c.p.Rounds() || c.res.Combines != c.p.Combines() {
			t.Errorf("%s replay: rounds %d combines %d, plan reports %d/%d",
				c.p.Schedule(), c.res.Rounds, c.res.Combines, c.p.Rounds(), c.p.Combines())
		}
	}
}

func TestBlockedPrimedReplay(t *testing.T) {
	for _, s := range bothForms(multiChain(2, 500)) {
		ctx := context.Background()
		init := stringInit(s.M)
		p, err := CompilePlan(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if !p.BlockedScan() || !p.Primeable() {
			t.Fatalf("want blocked primeable plan, got %s primeable=%v", p.Schedule(), p.Primeable())
		}
		ref, err := SolvePlanCtx[string](ctx, p, core.Concat{}, init, Options{Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		a := NewArena[string](p)
		copy(a.Buf(), init)
		res, err := a.SolvePrimedCtx(ctx, core.Concat{}, Options{Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		for x := range ref.Values {
			if res.Values[x] != ref.Values[x] {
				t.Fatalf("cell %d: primed %q, want %q", x, res.Values[x], ref.Values[x])
			}
		}
	}
}

func TestBlockedMemberChains(t *testing.T) {
	for _, s := range bothForms(multiChain(4, 300)) {
		ctx := context.Background()
		init := stringInit(s.M)
		p, err := CompilePlan(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if !p.BlockedScan() {
			t.Fatal("expected blocked schedule")
		}
		full, err := SolvePlanCtx[string](ctx, p, core.Concat{}, init, Options{Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		// Every contiguous chain range must reproduce the full solve on its
		// cells and leave the rest at init.
		for lo := 0; lo <= p.NumChains(); lo++ {
			for hi := lo; hi <= p.NumChains(); hi++ {
				member, err := p.MemberForChains(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				v, err := SolvePlanMemberCtx[string](ctx, p, core.Concat{}, init, member, Options{Procs: 4})
				if err != nil {
					t.Fatal(err)
				}
				for x := range v {
					want := init[x]
					if member[x] {
						want = full.Values[x]
					}
					if v[x] != want {
						t.Fatalf("chains [%d,%d) cell %d: got %q, want %q", lo, hi, x, v[x], want)
					}
				}
			}
		}
		// The shard entry point agrees too.
		sr, err := SolvePlanChainsCtx[string](ctx, p, core.Concat{}, init, 1, 3, Options{Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		for k, x := range sr.Cells {
			if sr.Values[k] != full.Values[x] {
				t.Fatalf("shard cell %d: got %q, want %q", x, sr.Values[k], full.Values[x])
			}
		}
	}
}

// TestBlockedAndJumpingMemberReplaysAgree runs every chain range's member
// replay on a blocked and a jumping plan of the same system: the chain
// numbering and the member cells' values must coincide.
func TestBlockedAndJumpingMemberReplaysAgree(t *testing.T) {
	for _, s := range bothForms(multiChain(3, 400)) {
		ctx := context.Background()
		init := stringInit(s.M)
		bp, err := CompilePlanOpts(ctx, s, PlanOptions{Schedule: ScheduleBlocked})
		if err != nil {
			t.Fatal(err)
		}
		jp, err := CompilePlanOpts(ctx, s, PlanOptions{Schedule: ScheduleJumping})
		if err != nil {
			t.Fatal(err)
		}
		if bp.NumChains() != jp.NumChains() {
			t.Fatalf("chain count: blocked %d, jumping %d", bp.NumChains(), jp.NumChains())
		}
		for lo := 0; lo <= bp.NumChains(); lo++ {
			for hi := lo; hi <= bp.NumChains(); hi++ {
				bm, err := bp.MemberForChains(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				jm, err := jp.MemberForChains(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				bv, err := SolvePlanMemberCtx[string](ctx, bp, core.Concat{}, init, bm, Options{Procs: 4})
				if err != nil {
					t.Fatal(err)
				}
				jv, err := SolvePlanMemberCtx[string](ctx, jp, core.Concat{}, init, jm, Options{Procs: 4})
				if err != nil {
					t.Fatal(err)
				}
				for x := range bv {
					if bm[x] != jm[x] || bv[x] != jv[x] {
						t.Fatalf("chains [%d,%d) cell %d: blocked (%v, %q), jumping (%v, %q)",
							lo, hi, x, bm[x], bv[x], jm[x], jv[x])
					}
				}
			}
		}
	}
}

func TestBlockedCancellation(t *testing.T) {
	s := multiChain(1, 2000)
	p, err := CompilePlan(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = SolvePlanCtx[string](ctx, p, core.Concat{}, stringInit(s.M), Options{Procs: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled blocked solve: got %v, want context.Canceled", err)
	}
}
