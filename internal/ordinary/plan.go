package ordinary

import (
	"context"
	"fmt"
	"math"
	"sync"

	"indexedrec/internal/core"
)

// This file implements compiled solve plans for the ordinary solver: the
// structure-only half of SolveCtx — the entire combine schedule (which cell
// combines which, in which round), derived from the write-chain forest — is
// computed once by CompilePlan and replayed against fresh data by
// SolvePlanCtx. The pointer array nx evolves independently of the values, so
// the schedule depends only on (g, f, n, m); replays skip all pointer
// bookkeeping and perform exactly the value combines SolveCtx would, in the
// same order, making results bit-identical.
//
// Two schedules exist: the paper's pointer jumping (O(n log n) work,
// recorded below) and the work-optimal blocked scan (O(n) work, blocked.go),
// chosen at compile time by a structure-only heuristic — see Schedule and
// DESIGN §14.

// roundSched is the combine schedule of one pointer-jumping round, split at
// compile time by data dependence. Every scheduled combine is
// v[dst] = op(v[src], v[dst]) with all src reads observing pre-round values
// (PRAM semantics). Gather pairs are those whose src cell is itself a dst
// of the same round: replays snapshot their source values before applying.
// Direct pairs read a src no combine of the round writes, so they read v in
// place — no snapshot, no extra memory pass. The split is structural, so it
// costs nothing per replay, and the operands are identical either way:
// results stay bit-identical to the unsplit schedule.
type roundSched struct {
	gatherDst, gatherSrc []int32
	directDst, directSrc []int32
}

// pairs returns the round's total combine count.
func (r *roundSched) pairs() int { return len(r.gatherDst) + len(r.directDst) }

// Plan is the compiled, data-independent part of an ordinary-IR solve.
// A Plan is immutable after CompilePlan returns and safe for concurrent
// replays.
//
// A plan holds int32 schedule data only. The write-chain forest it was
// compiled from is a compile-time temporary: everything a replay or a shard
// slice needs is in the tables below, and Roots, ChainOf and ChainSizes are
// derived from them on demand.
type Plan struct {
	// M and N mirror the compiled system's dimensions.
	M, N int
	// initDst/initSrc hold the initialization-phase combines of terminal
	// written cells: v[initDst[k]] = op(init[initSrc[k]], init[initDst[k]]).
	// Both operands read initial values, so no ordering constraints apply.
	// initDst lists every chain terminal in ascending cell order, which is
	// the chain numbering: chain c ends at initDst[c], and initSrc[c] is
	// its root, the cell whose initial value starts every trace of chain c.
	initDst, initSrc []int32
	// rounds[r] is the combine schedule of pointer-jumping round r+1.
	// Within a round all dst cells are distinct. Empty for blocked plans.
	rounds []roundSched
	// maxGather is the largest per-round gather-pair count — the snapshot
	// buffer size an Arena needs.
	maxGather int
	// chainOf maps each cell of a pointer-jumping plan to its chain id (-1
	// for unwritten cells). Blocked plans leave it nil: their chain-major
	// order (cellSeq, or the runs of a run-form plan) already lists every
	// chain's cells.
	chainOf []int32
	// combines is the total op-application count of a pointer-jumping
	// replay (Result.Combines).
	combines int64
	// primeable reports that every initialization-phase source cell is
	// unwritten, so a replay may read initial values straight from the
	// working array (see Arena.SolvePrimedCtx).
	primeable bool

	// blocked is the work-optimal blocked-scan schedule, non-nil when the
	// compile-time heuristic (or PlanOptions) picked it; replays then skip
	// the rounds machinery entirely, and no pointer-jumping rounds are
	// recorded — storing O(n log n) pairs would negate the blocked path's
	// O(n) compile and memory wins.
	blocked *blockedSched

	// arenas pools replay scratch (see Arena) per plan — together with the
	// plan cache's fingerprint keying this is the "arena pool keyed by plan
	// fingerprint": warm replays through SolvePlanPooledCtx check scratch
	// out and back in instead of allocating. Entries are *Arena[T] boxed as
	// any; a type mismatch (same plan replayed under two element types)
	// just drops the entry.
	arenas sync.Pool
}

// Schedule selects the combine schedule CompilePlanOpts records.
type Schedule int

const (
	// ScheduleAuto (the default) picks per structure: blocked scan when the
	// forest is path-only with a chain of at least blockedMinChain cells,
	// pointer jumping otherwise. The choice is a pure function of the
	// system's structure — never of GOMAXPROCS or other machine state — so
	// every node of a cluster compiles the same fingerprinted plan to the
	// same schedule.
	ScheduleAuto Schedule = iota
	// ScheduleJumping forces the paper's pointer-jumping schedule. Callers
	// that require bit-identical float results against the direct solver
	// (the Möbius layer) pin this.
	ScheduleJumping
	// ScheduleBlocked forces the blocked scan regardless of chain length,
	// and errors when the forest is not path-only.
	ScheduleBlocked
)

// PlanOptions are compile-time knobs of CompilePlanOpts.
type PlanOptions struct {
	// Schedule picks the combine schedule; zero value is ScheduleAuto.
	Schedule Schedule
}

// CompilePlan runs the structure-only half of SolveCtx with the default
// (auto) schedule selection: it validates the system, builds the write-chain
// forest, and records the combine schedule. Cancelling ctx stops compilation
// between rounds.
func CompilePlan(ctx context.Context, s *core.System) (*Plan, error) {
	return CompilePlanOpts(ctx, s, PlanOptions{})
}

// CompilePlanOpts is CompilePlan with explicit schedule selection. Under
// ScheduleAuto and ScheduleBlocked it first tries the run path
// (compileRuns), which compiles a union of contiguous chains straight from
// (g, f); every other system, and every defective one, goes through the
// write-chain forest (compileForest). Both paths give equal plans.
func CompilePlanOpts(ctx context.Context, s *core.System, popt PlanOptions) (*Plan, error) {
	if popt.Schedule != ScheduleJumping {
		if p := compileRuns(s, popt.Schedule == ScheduleBlocked); p != nil {
			return p, nil
		}
	}
	return compileForest(ctx, s, popt)
}

// CompileRuns is CompilePlan's run path alone: the run-form plan of s when s
// is a union of contiguous chains with a chain of at least blockedMinChain
// cells (see compileRuns), else nil. It reads g once and never errors, so
// callers may try it before any other pass over the system; on nil,
// CompilePlan compiles s, or reports its defect, exactly as before.
func CompileRuns(s *core.System) *Plan { return compileRuns(s, false) }

// compileRuns is the run path of CompilePlanOpts: the paper's contiguous
// loop X[i] := op(X[i−1], X[i]), and any union of such loops. It accepts s
// only when H is nil, the lengths match, 0 < m ≤ MaxInt32, g is strictly
// increasing with g[0] ≥ 1 and g[n−1] < m, and f[i] = g[i]−1 for every i.
// Each maximal run of consecutive g is then one chain, rooted at its
// start−1, which no iteration writes. So the forest, its reverse links and
// the chain walk would only rebuild g: one pass checks the shape and
// records where each run starts, and newRunPlan builds the run-form plan
// from those starts alone. It returns nil — and the forest path then
// compiles s, or reports its defect — on any mismatch, and, unless force is
// set, when the longest run is shorter than blockedMinChain (the forest
// path then picks pointer jumping). The plans it returns equal
// compileForest's.
func compileRuns(s *core.System, force bool) *Plan {
	n := len(s.G)
	if s.H != nil || n == 0 || n != s.N || len(s.F) != n || s.M <= 0 || s.M > math.MaxInt32 {
		return nil
	}
	g, f, m := s.G, s.F[:n], uint(s.M)
	// starts[c] is the iteration that starts run c. Every g lies in [1, m),
	// so nothing below overflows an int32.
	starts := make([]int32, 1, 8)
	maxLen, prev := 0, g[0]-1
	for i, x := range g {
		if uint(x-1) >= m-1 || f[i] != x-1 {
			return nil
		}
		if x != prev+1 {
			if x <= prev {
				return nil
			}
			maxLen = max(maxLen, i-int(starts[len(starts)-1]))
			starts = append(starts, int32(i))
		}
		prev = x
	}
	maxLen = max(maxLen, n-int(starts[len(starts)-1]))
	if !force && maxLen < blockedMinChain {
		return nil
	}
	// Exact-capacity tables, so the resident plan carries no append slack.
	initDst, chainOff := make([]int32, len(starts)), make([]int32, len(starts)+1)
	for c, i := range starts {
		initDst[c], chainOff[c] = int32(g[i]), i
	}
	chainOff[len(starts)] = int32(n)
	return newRunPlan(s.M, n, initDst, chainOff)
}

// newRunPlan builds the run-form plan over m cells of a union of runs of
// consecutive cells written in ascending order, n cells in all: run c
// starts at cell initDst[c], is rooted at initDst[c]−1 (which no run
// writes) and spans chain-major positions chainOff[c] : chainOff[c+1].
// compileRuns and ChainPlan end here.
func newRunPlan(m, n int, initDst, chainOff []int32) *Plan {
	initSrc := make([]int32, len(initDst))
	for c, x := range initDst {
		initSrc[c] = x - 1
	}
	return &Plan{M: m, N: n, combines: int64(len(initDst)), primeable: true,
		initDst: initDst, initSrc: initSrc, blocked: newBlockedSched(nil, chainOff)}
}

// ChainPlan returns CompilePlan's plan for the chain g(i) = i+1, f(i) = i
// over m cells — the inclusive prefix scan — without tabulating g and f
// when the chain is long enough for the blocked scan: it is then one run,
// built by newRunPlan. Shorter chains compile to pointer jumping from their
// tabulated (and then small) tables.
func ChainPlan(ctx context.Context, m int) (*Plan, error) {
	n := m - 1
	if n < blockedMinChain {
		g, f := make([]int, max(n, 0)), make([]int, max(n, 0))
		for i := range g {
			g[i], f[i] = i+1, i
		}
		return CompilePlan(ctx, &core.System{M: m, N: n, G: g, F: f})
	}
	if m > math.MaxInt32 {
		return nil, fmt.Errorf("ordinary: m = %d exceeds the forest cell limit %d", m, math.MaxInt32)
	}
	return newRunPlan(m, n, []int32{1}, []int32{0, int32(n)}), nil
}

// compileForest is the forest path of CompilePlanOpts: it validates s,
// builds the write-chain forest and records the schedule popt selects.
func compileForest(ctx context.Context, s *core.System, popt PlanOptions) (*Plan, error) {
	fr, err := BuildForest(s)
	if err != nil {
		return nil, err
	}
	p := &Plan{M: s.M, N: s.N}

	// Initialization phase, mirroring SolveCtx: unwritten and non-terminal
	// cells start at init[x]; terminal written cells — exactly those with
	// an InitF — fold in init[InitF[x]]. Recorded for both schedules (the
	// blocked reduce seeds subsume it, the member replays and primeable
	// check read it, and its terminal order is the chain numbering).
	terminals := 0
	for _, src := range fr.InitF {
		if src >= 0 {
			terminals++
		}
	}
	p.initDst = make([]int32, 0, terminals)
	p.initSrc = make([]int32, 0, terminals)
	for x, src := range fr.InitF {
		if src >= 0 {
			p.initDst = append(p.initDst, int32(x))
			p.initSrc = append(p.initSrc, src)
		}
	}
	p.combines = int64(terminals)
	p.primeable = true
	for _, src := range p.initSrc {
		if fr.Written(int(src)) {
			p.primeable = false
			break
		}
	}

	if popt.Schedule != ScheduleJumping {
		blk, err := buildBlocked(fr, s.G, p.initDst, popt.Schedule == ScheduleBlocked)
		if err != nil {
			return nil, err
		}
		if blk != nil {
			p.blocked = blk
			return p, nil
		}
	}
	p.chainOf = chainTable(fr, s.G, p.initDst)
	if err := p.recordJumping(ctx, fr, s.G); err != nil {
		return nil, err
	}
	return p, nil
}

// chainTable numbers the chain of every written cell: chain c is the
// forest component ending at terminal initDst[c]. One pass over the written
// cells in iteration order (the system's G) suffices, because a cell's Next
// target was written by an earlier iteration, so its id is already known.
func chainTable(fr *Forest, cells []int, initDst []int32) []int32 {
	chainOf := make([]int32, len(fr.Next))
	for x := range chainOf {
		chainOf[x] = -1
	}
	for c, t := range initDst {
		chainOf[t] = int32(c)
	}
	for _, x := range cells {
		if n := fr.Next[x]; n >= 0 {
			chainOf[x] = chainOf[n]
		}
	}
	return chainOf
}

// recordJumping records the pointer-jumping round schedule of forest fr,
// whose written cells are cells, into p.rounds/maxGather and adds its
// combines to p.combines.
func (p *Plan) recordJumping(ctx context.Context, fr *Forest, cells []int) error {
	nx := make([]int32, p.M)
	copy(nx, fr.Next)

	// Lock-step rounds: record each round's (dst, src) combine list while
	// advancing the pointers exactly as SolveCtx does (double-buffered
	// reads), then split it by dependence: a pair whose src is also written
	// this round (dstRound stamp) must gather a pre-round snapshot; the
	// rest read in place.
	nx2 := make([]int32, p.M)
	tmpDst := make([]int32, 0, len(cells))
	tmpSrc := make([]int32, 0, len(cells))
	dstRound := make([]int32, p.M)
	for x := range dstRound {
		dstRound[x] = -1
	}
	for r := int32(0); ; r++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		tmpDst, tmpSrc = tmpDst[:0], tmpSrc[:0]
		for _, x := range cells {
			n := nx[x]
			if n < 0 {
				nx2[x] = -1
				continue
			}
			tmpDst = append(tmpDst, int32(x))
			tmpSrc = append(tmpSrc, n)
			dstRound[x] = r
			nx2[x] = nx[n]
		}
		if len(tmpDst) == 0 {
			break
		}
		// Size the split exactly (the gather count first) rather than
		// growing four slices by doubling across O(log n) rounds.
		gathers := 0
		for _, src := range tmpSrc {
			if dstRound[src] == r {
				gathers++
			}
		}
		var rs roundSched
		if gathers > 0 {
			rs.gatherDst = make([]int32, 0, gathers)
			rs.gatherSrc = make([]int32, 0, gathers)
		}
		if direct := len(tmpDst) - gathers; direct > 0 {
			rs.directDst = make([]int32, 0, direct)
			rs.directSrc = make([]int32, 0, direct)
		}
		for k := range tmpDst {
			if dstRound[tmpSrc[k]] == r {
				rs.gatherDst = append(rs.gatherDst, tmpDst[k])
				rs.gatherSrc = append(rs.gatherSrc, tmpSrc[k])
			} else {
				rs.directDst = append(rs.directDst, tmpDst[k])
				rs.directSrc = append(rs.directSrc, tmpSrc[k])
			}
		}
		if len(rs.gatherDst) > p.maxGather {
			p.maxGather = len(rs.gatherDst)
		}
		p.rounds = append(p.rounds, rs)
		p.combines += int64(len(tmpDst))
		nx, nx2 = nx2, nx
	}
	return nil
}

// Rounds returns the number of parallel rounds a replay executes: the
// pointer-jumping round count, or for blocked plans the combine-tree depth
// plus the reduce and apply phases.
func (p *Plan) Rounds() int {
	if b := p.blocked; b != nil {
		return b.rounds + 2
	}
	return len(p.rounds)
}

// BlockedScan reports whether the plan compiled to the work-optimal
// blocked-scan schedule.
func (p *Plan) BlockedScan() bool { return p.blocked != nil }

// Schedule names the compiled combine schedule: "blocked-scan" or
// "pointer-jumping". Both schedules fold each chain's operand sequence in
// the same order; they differ only in association, so results are
// bit-identical for exactly associative ops and equal up to rounding for
// floats (callers that need float bit-identity to the direct solver compile
// with ScheduleJumping).
func (p *Plan) Schedule() string {
	if p.blocked != nil {
		return "blocked-scan"
	}
	return "pointer-jumping"
}

// Primeable reports whether the plan supports prime-in-place replays
// (Arena.SolvePrimedCtx): true when every initialization-phase source cell
// is unwritten, so the fold can read initial values from the working array
// itself. Systems whose chain terminals read initial values of later-written
// cells (possible in raw ordinary systems, never in the Möbius layer's
// shadow systems) are not primeable.
func (p *Plan) Primeable() bool { return p.primeable }

// Combines returns the op-application count of a replay on the compiled
// schedule: identical to the direct solve's Result.Combines for
// pointer-jumping plans, and the (lower, O(n)) blocked count for blocked
// plans.
func (p *Plan) Combines() int64 {
	if b := p.blocked; b != nil {
		return b.combines
	}
	return p.combines
}

// Roots returns, for every cell x, the cell whose initial value the trace
// of x begins with: x itself for unwritten cells, the chain root for
// written ones. It is the direct solve's Result.Roots, derived from the
// chain tables into a fresh slice on each call (replay results do not
// carry roots).
func (p *Plan) Roots() []int {
	roots := make([]int, p.M)
	for x := range roots {
		roots[x] = x
	}
	p.eachWritten(func(x, c int) { roots[x] = int(p.initSrc[c]) })
	return roots
}

// SizeBytes is the plan's resident size, for cache accounting: the int32
// schedule tables, counted at capacity.
func (p *Plan) SizeBytes() int64 {
	words := cap(p.initDst) + cap(p.initSrc) + cap(p.chainOf)
	for i := range p.rounds {
		r := &p.rounds[i]
		words += cap(r.gatherDst) + cap(r.gatherSrc) + cap(r.directDst) + cap(r.directSrc)
	}
	if b := p.blocked; b != nil {
		words += cap(b.cellSeq) + cap(b.chainOff) + cap(b.segOff) + cap(b.segChain) + cap(b.segFirst)
	}
	return int64(words) * 4
}

// SolvePlanCtx replays a compiled plan against fresh data. The value combines
// are the ones SolveCtx would perform, on the same operands in the same
// round order, so for any op the result is bit-identical to the direct
// solve's. Error and cancellation behavior follows the SolveCtx contract:
// panics in op.Combine return as errors with all workers joined, and
// cancellation stops the replay between rounds and chunks. The returned
// result owns fresh value storage and leaves Roots nil (see Plan.Roots);
// hot loops that can recycle scratch should use an Arena (or
// SolvePlanPooledCtx) instead.
func SolvePlanCtx[T any](ctx context.Context, p *Plan, op core.Semigroup[T], init []T, opt Options) (*Result[T], error) {
	return NewArena[T](p).SolveCtx(ctx, op, init, opt)
}

// SolvePlanPooledCtx replays a compiled plan straight into a freshly
// allocated result, drawing the rest of its scratch (gather snapshots,
// segment summaries) from the plan's arena pool. The pooled arenas hold no
// value array: a warm replay allocates the result's Values and the result
// itself, and nothing else. Results are bit-identical to SolvePlanCtx and
// never share storage with each other or with the pool.
func SolvePlanPooledCtx[T any](ctx context.Context, p *Plan, op core.Semigroup[T], init []T, opt Options) (*Result[T], error) {
	if len(init) != p.M {
		return nil, fmt.Errorf("%w: len(init) = %d, want M = %d", ErrInitLen, len(init), p.M)
	}
	a, _ := p.arenas.Get().(*Arena[T])
	if a == nil {
		a = newArena[T](p, nil)
	}
	out := &Result[T]{Values: make([]T, p.M), Rounds: p.Rounds(), Combines: p.Combines()}
	a.v = out.Values
	err := a.solve(ctx, op, init, opt)
	a.v = nil
	p.arenas.Put(a)
	if err != nil {
		return nil, err
	}
	return out, nil
}
