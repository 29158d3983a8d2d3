package ordinary

import (
	"context"
	"fmt"

	"indexedrec/internal/core"
	"indexedrec/internal/parallel"
)

// This file implements the work-optimal blocked-scan schedule for ordinary
// plans — the alternative to pointer jumping picked by CompilePlan when the
// write-chain forest is a disjoint union of paths with long chains (see
// buildBlocked and DESIGN §14). Per chain the replay runs three phases:
//
//  1. reduce — the chain is cut into fixed-length contiguous segments and
//     each segment is folded sequentially (left to right, terminal → head)
//     into one summary value;
//  2. combine tree — a Kogge–Stone inclusive scan over the per-chain
//     segment summaries turns summary s into the fold of the chain's first
//     s+1 segments, in ⌈log₂ S⌉ double-buffered rounds (S = segments of the
//     longest chain);
//  3. apply — each segment re-folds its cells sequentially, seeded with its
//     predecessor's tree prefix, writing every cell's final value.
//
// Total work is ~2n combines plus n/segLen tree combines — O(n), against
// pointer jumping's O(n log n) — and the span is n·P⁻¹ + log(n/segLen)
// after segment-level parallelization, matching the roadmap's
// T = n/P + log P target. Every phase folds the same ordered operand
// sequence the sequential loop consumes, merely re-associated, so results
// are identical to pointer jumping for exactly associative ops (and equal
// up to float re-association otherwise — see Plan.Schedule's contract).

const (
	// blockedMinChain is the auto-selection threshold: chains shorter than
	// this fit in O(log chain) cheap jumping rounds and gain nothing from
	// segment bookkeeping, so CompilePlan keeps pointer jumping below it.
	// Structural constant — never derived from GOMAXPROCS, so a plan's
	// schedule (and thus its fingerprint-keyed replay behavior across a
	// cluster) is a pure function of the system's structure.
	blockedMinChain = 256
	// blockedSegLen is the segment length of the reduce and apply phases:
	// long enough to amortize a parallel handoff per segment, short enough
	// that n/segLen segments expose ample parallel slack on any realistic
	// worker count.
	blockedSegLen = 256
)

// blockedSched is the compiled blocked-scan schedule: the chain-major cell
// order plus the segment table. All arrays are immutable after buildBlocked.
//
// A schedule whose every chain is an ascending run of consecutive cells is
// in run form: it keeps no cellSeq, because position k of chain c is cell
// initDst[c] + (k − chainOff[c]) (Plan.cellAt), and its replays fold
// init[lo:hi] into v[lo:hi] with no index table. The paper's loop
// X[i] := op(X[i−1], X[i]) and every union of such loops compile to it.
type blockedSched struct {
	// cellSeq lists every written cell in chain-major order, each chain
	// terminal → head — i.e. the order the sequential loop's fold consumes
	// the chain's values. Chains are ordered by ascending terminal cell,
	// matching the plan's chain numbering. nil in run form.
	cellSeq []int32
	// chainOff[c] : chainOff[c+1] bound chain c within cellSeq. The cell
	// whose initial value seeds chain c's fold is the plan's initSrc[c].
	chainOff []int32
	// segOff[s] : segOff[s+1] bound segment s within cellSeq. Segments are
	// blockedSegLen cells except the last of each chain, and never straddle
	// a chain boundary.
	segOff []int32
	// segChain[s] is the chain id of segment s.
	segChain []int32
	// segFirst[s] is the index of the first segment of segment s's chain:
	// the tree phase combines sum[s-stride] into sum[s] iff
	// s-stride >= segFirst[s].
	segFirst []int32
	// maxSegs is the largest per-chain segment count — the tree depth is
	// ⌈log₂ maxSegs⌉.
	maxSegs int
	// rounds is the tree-phase round count (Result.Rounds adds the reduce
	// and apply phases on top).
	rounds int
	// combines is the exact op-application count of a blocked replay.
	combines int64
}

// numSegs returns the total segment count across all chains.
func (b *blockedSched) numSegs() int { return len(b.segOff) - 1 }

// runForm reports whether the schedule keeps no cell table: every chain is
// an ascending run of consecutive cells.
func (b *blockedSched) runForm() bool { return b.cellSeq == nil }

// runOff returns the offset from chain c's chain-major positions to its
// cells in a run-form plan: position k is cell k + runOff(c).
func (p *Plan) runOff(c int) int { return int(p.initDst[c]) - int(p.blocked.chainOff[c]) }

// cellAt returns the cell at chain-major position k of chain c of a blocked
// plan, in either form.
func (p *Plan) cellAt(c, k int) int {
	if b := p.blocked; !b.runForm() {
		return int(b.cellSeq[k])
	}
	return k + p.runOff(c)
}

// buildBlocked compiles the blocked-scan schedule for fr, given its written
// cells in iteration order and its chain terminals in ascending cell order,
// or returns (nil, nil) when the forest does not qualify under the auto
// heuristic: the forest must be path-only (no cell is the Next target of
// two chains — a tree join has no contiguous-segment decomposition) and its
// longest chain must reach blockedMinChain. force (PlanOptions
// ScheduleBlocked) skips the length gate and turns the path-only failure
// into an error.
func buildBlocked(fr *Forest, cells []int, terminals []int32, force bool) (*blockedSched, error) {
	// Path-only check + reverse links in one pass: prev[y] is y's unique
	// chain predecessor, or -1.
	prev := make([]int32, len(fr.Next))
	for x := range prev {
		prev[x] = -1
	}
	for _, x := range cells {
		n := fr.Next[x]
		if n < 0 {
			continue
		}
		if prev[n] >= 0 {
			if force {
				return nil, fmt.Errorf("ordinary: ScheduleBlocked: cell %d is consumed by two chains (forest is a tree, not a path union)", n)
			}
			return nil, nil
		}
		prev[n] = int32(x)
	}

	cellSeq := make([]int32, 0, len(cells))
	chainOff := make([]int32, 1, len(terminals)+1)
	maxLen := 0
	for _, t := range terminals {
		start := len(cellSeq)
		for x := t; x >= 0; x = prev[x] {
			cellSeq = append(cellSeq, x)
		}
		maxLen = max(maxLen, len(cellSeq)-start)
		chainOff = append(chainOff, int32(len(cellSeq)))
	}
	if !force && maxLen < blockedMinChain {
		return nil, nil
	}
	if contiguousChains(cellSeq, chainOff) {
		cellSeq = nil // run form: the runs themselves list the cells
	}
	return newBlockedSched(cellSeq, chainOff), nil
}

// contiguousChains reports whether every chain of the chain-major order
// cellSeq is an ascending run of consecutive cells.
func contiguousChains(cellSeq, chainOff []int32) bool {
	for c := 0; c+1 < len(chainOff); c++ {
		for k := chainOff[c] + 1; k < chainOff[c+1]; k++ {
			if cellSeq[k] != cellSeq[k-1]+1 {
				return false
			}
		}
	}
	return true
}

// newBlockedSched completes the blocked schedule of the chain-major cell
// order cellSeq (nil in run form), whose chain c spans chainOff[c] :
// chainOff[c+1], with its segment table, tree depth and combine count. Both
// compile paths — the forest walk (buildBlocked) and the run path
// (compileRuns, through newRunPlan) — end here.
func newBlockedSched(cellSeq, chainOff []int32) *blockedSched {
	b := &blockedSched{cellSeq: cellSeq, chainOff: chainOff}

	// Segment table: fixed-length cuts per chain, never crossing chains,
	// sized exactly so the resident tables carry no append slack.
	segs := 0
	for c := 0; c+1 < len(b.chainOff); c++ {
		segs += int(b.chainOff[c+1]-b.chainOff[c]+blockedSegLen-1) / blockedSegLen
	}
	b.segOff = make([]int32, 1, segs+1)
	b.segChain = make([]int32, 0, segs)
	b.segFirst = make([]int32, 0, segs)
	for c := 0; c+1 < len(b.chainOff); c++ {
		first := int32(len(b.segChain))
		lo, hi := b.chainOff[c], b.chainOff[c+1]
		for o := lo; o < hi; o += blockedSegLen {
			b.segOff = append(b.segOff, min(o+blockedSegLen, hi))
			b.segChain = append(b.segChain, int32(c))
			b.segFirst = append(b.segFirst, first)
		}
		if segs := len(b.segChain) - int(first); segs > b.maxSegs {
			b.maxSegs = segs
		}
	}
	for d := 1; d < b.maxSegs; d *= 2 {
		b.rounds++
	}

	// Exact combine count: reduce folds len cells for a chain-first segment
	// (its seed is the chain root's initial value, so the terminal's init
	// fold is one combine too) and len-1 otherwise (seeded by its own first
	// cell); the tree combines once per (round, segment) with an in-chain
	// predecessor; apply folds every cell once.
	for s := 0; s < b.numSegs(); s++ {
		l := int64(b.segOff[s+1] - b.segOff[s])
		b.combines += 2 * l
		if int32(s) != b.segFirst[s] {
			b.combines--
		}
	}
	for d := 1; d < b.maxSegs; d *= 2 {
		for s := 0; s < b.numSegs(); s++ {
			if s-d >= int(b.segFirst[s]) {
				b.combines++
			}
		}
	}
	return b
}

// reduceSeg is the reduce phase of segment s over its chain-major positions
// segOff[s] : hi (hi is segOff[s+1], or a member replay's clamp): it folds
// the segment's initial values into one summary. A chain-first segment
// seeds with the chain root's initial value (subsuming the jumping
// schedule's initialization fold); any other segment seeds with its own
// first cell. It reads init only, so it is safe before any cell is written,
// including primed replays where init aliases the working array. The arena
// and the member replay share it; run and gather form differ only in the
// inner loop.
func reduceSeg[T any](p *Plan, op core.Semigroup[T], kern core.Kernel[T], init []T, s, hi int) T {
	b := p.blocked
	c, lo := int(b.segChain[s]), int(b.segOff[s])
	var acc T
	if int(b.segFirst[s]) == s {
		acc = init[p.initSrc[c]]
	} else {
		acc = init[p.cellAt(c, lo)]
		lo++
	}
	if b.runForm() {
		off := p.runOff(c)
		from := init[lo+off : hi+off]
		if kern != nil {
			return kern.FoldRun(acc, from)
		}
		for _, x := range from {
			acc = op.Combine(acc, x)
		}
		return acc
	}
	if kern != nil {
		return kern.FoldSeg(acc, init, b.cellSeq, lo, hi)
	}
	for _, x := range b.cellSeq[lo:hi] {
		acc = op.Combine(acc, init[x])
	}
	return acc
}

// applySeg is the prefix-apply phase of segment s over the same positions:
// it re-folds the segment's cells seeded with its predecessor's tree prefix
// sum[s-1] (chain-first segments re-seed from the chain root), writing
// every cell's final value into v. In primed replays init aliases v; the
// fold reads each cell just before overwriting it and segments write
// disjoint cells, so the in-place replay observes exactly the values a
// separate init array would.
func applySeg[T any](p *Plan, op core.Semigroup[T], kern core.Kernel[T], v, init, sum []T, s, hi int) {
	b := p.blocked
	c, lo := int(b.segChain[s]), int(b.segOff[s])
	var acc T
	if int(b.segFirst[s]) == s {
		acc = init[p.initSrc[c]]
	} else {
		acc = sum[s-1]
	}
	if b.runForm() {
		off := p.runOff(c)
		dst, from := v[lo+off:hi+off], init[lo+off:hi+off]
		if kern != nil {
			kern.ScanRun(dst, acc, from)
			return
		}
		for k, x := range from {
			acc = op.Combine(acc, x)
			dst[k] = acc
		}
		return
	}
	if kern != nil {
		kern.ScanSeg(v, acc, init, b.cellSeq, lo, hi)
		return
	}
	for _, x := range b.cellSeq[lo:hi] {
		acc = op.Combine(acc, init[x])
		v[x] = acc
	}
}

// copyInit loads init into the working array v before a replay. A run-form
// plan's apply phase writes every run cell, so only the gaps before,
// between and after the runs are copied; any other plan copies all of init.
func copyInit[T any](p *Plan, v, init []T) {
	b := p.blocked
	if b == nil || !b.runForm() {
		copy(v, init)
		return
	}
	lo := 0
	for c, x := range p.initDst {
		copy(v[lo:x], init[lo:x])
		lo = int(x) + int(b.chainOff[c+1]-b.chainOff[c])
	}
	copy(v[lo:], init[lo:])
}

// solveBlockedMember is SolvePlanMemberCtx's blocked-schedule path: the
// member set (closed under Next) intersects every chain in a terminal-side
// prefix of its chain-major order, so the replay runs the three phases over
// the member prefixes only. Every tree prefix a member segment consumes
// comes from a fully-member segment (prefix property), so member cells'
// combines see exactly the operands of the full blocked replay —
// bit-identical — and non-member cells keep their init values.
func solveBlockedMember[T any](ctx context.Context, p *Plan, op core.Semigroup[T], init []T, member []bool, opt Options) ([]T, error) {
	b := p.blocked
	kern := kernelFor(op)
	v := make([]T, p.M)
	copy(v, init)

	numChains := len(b.chainOff) - 1
	memEnd := make([]int32, numChains)
	if err := parallel.ForEachCtx(ctx, numChains, opt.Procs, func(c int) error {
		k, end := int(b.chainOff[c]), int(b.chainOff[c+1])
		for k < end && member[p.cellAt(c, k)] {
			k++
		}
		memEnd[c] = int32(k)
		return nil
	}); err != nil {
		return nil, err
	}

	// Active segments: those whose start lies inside the member prefix. A
	// clamped last segment may be partial; all earlier ones are full.
	active := make([]int32, 0, b.numSegs())
	for s := 0; s < b.numSegs(); s++ {
		if b.segOff[s] < memEnd[b.segChain[s]] {
			active = append(active, int32(s))
		}
	}
	if len(active) == 0 {
		return v, nil
	}
	segEnd := func(s int) int {
		return int(min(b.segOff[s+1], memEnd[b.segChain[s]]))
	}

	sum := make([]T, b.numSegs())
	sum2 := make([]T, b.numSegs())
	if err := parallel.ForCtxWeighted(ctx, len(active), opt.Procs, blockedSegLen, func(lo, hi int) error {
		for _, s := range active[lo:hi] {
			sum[s] = reduceSeg(p, op, kern, init, int(s), segEnd(int(s)))
		}
		return nil
	}); err != nil {
		return nil, err
	}

	for d := 1; d < b.maxSegs; d *= 2 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := parallel.ForCtx(ctx, len(active), opt.Procs, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				s := int(active[i])
				if s-d >= int(b.segFirst[s]) {
					sum2[s] = op.Combine(sum[s-d], sum[s])
				} else {
					sum2[s] = sum[s]
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		sum, sum2 = sum2, sum
	}

	if err := parallel.ForCtxWeighted(ctx, len(active), opt.Procs, blockedSegLen, func(lo, hi int) error {
		for _, s := range active[lo:hi] {
			applySeg(p, op, kern, v, init, sum, int(s), segEnd(int(s)))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return v, nil
}
