package ordinary

import (
	"context"
	"fmt"
	"math"
	"sync"

	"indexedrec/internal/core"
)

// This file implements compiled solve plans for the ordinary solver: the
// structure-only half of SolveCtx — forest construction plus the entire
// combine schedule (which cell combines which, in which round) — is computed
// once by CompilePlan and replayed against fresh data by SolvePlanCtx. The
// pointer arrays nx/rt evolve independently of the values, so the schedule
// depends only on (g, f, n, m); replays skip all pointer bookkeeping and
// perform exactly the value combines SolveCtx would, in the same order,
// making results bit-identical.
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
// replays; the slices returned inside replay results (Roots) alias the plan
// and must be treated as read-only.
type Plan struct {
	// M and N mirror the compiled system's dimensions.
	M, N int
	// Forest is the write-chain forest the schedule was compiled from
	// (retained for diagnostics and MaxChainLen).
	Forest *Forest
	// initDst/initSrc hold the initialization-phase combines of terminal
	// written cells: v[initDst[k]] = op(init[initSrc[k]], init[initDst[k]]).
	// Both operands read initial values, so no ordering constraints apply.
	initDst, initSrc []int32
	// rounds[r] is the combine schedule of pointer-jumping round r+1.
	// Within a round all dst cells are distinct.
	rounds []roundSched
	// maxGather is the largest per-round gather-pair count — the snapshot
	// buffer size an Arena needs.
	maxGather int
	// roots[x] is the cell whose initial value the trace of x begins with
	// (Result.Roots of every replay).
	roots []int
	// combines is the total op-application count of any replay
	// (Result.Combines).
	combines int64
	// primeable reports that every initialization-phase source cell is
	// unwritten, so a replay may read initial values straight from the
	// working array (see Arena.SolvePrimedCtx).
	primeable bool

	// blocked is the work-optimal blocked-scan schedule, non-nil when the
	// compile-time heuristic (or PlanOptions) picked it; replays then skip
	// the rounds machinery entirely. Plans compiled blocked do not record
	// pointer-jumping rounds up front — compiling and storing O(n log n)
	// pairs would negate the blocked path's O(n) compile and memory wins —
	// so rounds/maxGather stay empty until jumpOnce records them on first
	// need (the SetBlockedEnabled kill-switch fallback).
	blocked  *blockedSched
	jumpOnce sync.Once

	// arenas pools replay scratch (see Arena) per plan — together with the
	// plan cache's fingerprint keying this is the "arena pool keyed by plan
	// fingerprint": warm replays through SolvePlanPooledCtx check scratch
	// out and back in instead of allocating. Entries are *Arena[T] boxed as
	// any; a type mismatch (same plan replayed under two element types)
	// just drops the entry.
	arenas sync.Pool

	// Chain decomposition (shard.go), computed lazily on first use: chainOf
	// maps each written cell to its chain id (-1 for unwritten cells), and
	// chainSizes[c] counts the cells of chain c. Chains are the connected
	// components of the write-chain forest — the natural distribution unit.
	chainsOnce sync.Once
	chainOf    []int32
	chainSizes []int
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

// CompilePlanOpts is CompilePlan with explicit schedule selection.
func CompilePlanOpts(ctx context.Context, s *core.System, popt PlanOptions) (*Plan, error) {
	fr, err := BuildForest(s)
	if err != nil {
		return nil, err
	}
	if s.M > math.MaxInt32 {
		return nil, fmt.Errorf("ordinary: CompilePlan: m = %d exceeds the plan cell limit %d", s.M, math.MaxInt32)
	}
	p := &Plan{M: s.M, N: s.N, Forest: fr, roots: make([]int, s.M)}

	// Initialization phase, mirroring SolveCtx: unwritten and non-terminal
	// cells start at init[x]; terminal written cells fold in init[InitF[x]].
	// Recorded for both schedules (the blocked reduce seeds subsume it, the
	// member replays and primeable check read it).
	for x := 0; x < s.M; x++ {
		if fr.Written[x] && fr.Next[x] < 0 {
			p.initDst = append(p.initDst, int32(x))
			p.initSrc = append(p.initSrc, int32(fr.InitF[x]))
		}
	}
	p.combines = int64(len(p.initDst))
	p.primeable = true
	for _, s := range p.initSrc {
		if fr.Written[s] {
			p.primeable = false
			break
		}
	}

	if popt.Schedule != ScheduleJumping {
		blk, err := buildBlocked(fr, s.M, popt.Schedule == ScheduleBlocked)
		if err != nil {
			return nil, err
		}
		if blk != nil {
			p.blocked = blk
			// Roots straight from the chain decomposition (identical to
			// what the jumping recorder's rt propagation converges to):
			// written cells root at their chain's init source, unwritten
			// cells at themselves.
			for x := range p.roots {
				p.roots[x] = x
			}
			for c := 0; c+1 < len(blk.chainOff); c++ {
				r := int(blk.rootOf[c])
				for k := blk.chainOff[c]; k < blk.chainOff[c+1]; k++ {
					p.roots[blk.cellSeq[k]] = r
				}
			}
			return p, nil
		}
	}
	if err := p.recordJumping(ctx); err != nil {
		return nil, err
	}
	p.jumpOnce.Do(func() {})
	return p, nil
}

// ensureJumping lazily records the pointer-jumping schedule of a
// blocked-compiled plan, for the SetBlockedEnabled fallback path. Eagerly
// compiled plans burned the Once at compile time; concurrent callers
// synchronize on it.
func (p *Plan) ensureJumping() {
	p.jumpOnce.Do(func() {
		// Background: recording is pure CPU over retained structure; the
		// caller's ctx still guards the replay that follows.
		_ = p.recordJumping(context.Background())
	})
}

// recordJumping records the pointer-jumping round schedule from the retained
// forest into p.rounds/maxGather and adds its combines to p.combines.
func (p *Plan) recordJumping(ctx context.Context) error {
	fr := p.Forest
	nx := make([]int, p.M)
	rt := make([]int, p.M)
	for x := 0; x < p.M; x++ {
		switch {
		case !fr.Written[x]:
			nx[x], rt[x] = -1, x
		case fr.Next[x] >= 0:
			nx[x], rt[x] = fr.Next[x], x
		default:
			nx[x], rt[x] = -1, fr.InitF[x]
		}
	}

	// Lock-step rounds: record each round's (dst, src) combine list while
	// advancing the pointers exactly as SolveCtx does (double-buffered
	// reads), then split it by dependence: a pair whose src is also written
	// this round (dstRound stamp) must gather a pre-round snapshot; the
	// rest read in place.
	cells := fr.Cells
	nx2 := make([]int, p.M)
	rt2 := make([]int, p.M)
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
				nx2[x], rt2[x] = -1, rt[x]
				continue
			}
			tmpDst = append(tmpDst, int32(x))
			tmpSrc = append(tmpSrc, int32(n))
			dstRound[x] = r
			nx2[x] = nx[n]
			rt2[x] = rt[n]
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
		rt, rt2 = rt2, rt
	}
	if p.blocked == nil {
		// Blocked plans already hold identical roots; skipping the copy
		// keeps lazy recording race-free against concurrent root readers.
		copy(p.roots, rt)
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
// blocked-scan schedule (replays may still fall back to pointer jumping
// while SetBlockedEnabled(false) holds).
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

// Roots returns the chain-root array shared with every replay result.
// The slice is owned by the plan; callers must not modify it.
func (p *Plan) Roots() []int { return p.roots }

// SizeBytes estimates the plan's resident size, for cache accounting.
func (p *Plan) SizeBytes() int64 {
	size := int64(len(p.initDst)+len(p.initSrc)) * 4
	for i := range p.rounds {
		r := &p.rounds[i]
		size += int64(len(r.gatherDst)+len(r.gatherSrc)+len(r.directDst)+len(r.directSrc)) * 4
	}
	size += int64(p.M) * 8 // roots
	if b := p.blocked; b != nil {
		size += int64(len(b.cellSeq)+len(b.chainOff)+len(b.rootOf)+
			len(b.segOff)+len(b.segChain)+len(b.segFirst)) * 4
	}
	if p.Forest != nil {
		size += int64(len(p.Forest.Next)+len(p.Forest.InitF)+len(p.Forest.Cells))*8 +
			int64(len(p.Forest.Written))
	}
	return size
}

// SolvePlanCtx replays a compiled plan against fresh data. The value combines
// are the ones SolveCtx would perform, on the same operands in the same
// round order, so for any op the result is bit-identical to the direct
// solve's. Error and cancellation behavior follows the SolveCtx contract:
// panics in op.Combine return as errors with all workers joined, and
// cancellation stops the replay between rounds and chunks. The returned
// result owns fresh value storage; hot loops that can recycle scratch
// should use an Arena (or SolvePlanPooledCtx) instead.
func SolvePlanCtx[T any](ctx context.Context, p *Plan, op core.Semigroup[T], init []T, opt Options) (*Result[T], error) {
	return NewArena[T](p).SolveCtx(ctx, op, init, opt)
}

// SolvePlanPooledCtx replays a compiled plan through the plan's arena pool:
// scratch buffers (value array, gather snapshots) are checked out, reused,
// and returned, so a warm replay's only allocation is the caller-owned copy
// of the final values. Results are bit-identical to SolvePlanCtx.
func SolvePlanPooledCtx[T any](ctx context.Context, p *Plan, op core.Semigroup[T], init []T, opt Options) (*Result[T], error) {
	a, _ := p.arenas.Get().(*Arena[T])
	if a == nil {
		a = NewArena[T](p)
	}
	res, err := a.SolveCtx(ctx, op, init, opt)
	if err != nil {
		p.arenas.Put(a)
		return nil, err
	}
	values := make([]T, p.M)
	copy(values, res.Values)
	out := &Result[T]{Values: values, Roots: res.Roots, Rounds: res.Rounds, Combines: res.Combines}
	p.arenas.Put(a)
	return out, nil
}
