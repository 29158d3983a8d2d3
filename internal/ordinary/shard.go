package ordinary

import (
	"context"
	"fmt"

	"indexedrec/internal/core"
	"indexedrec/internal/parallel"
)

// Shard-slice replays of compiled ordinary plans. The write-chain forest is
// a disjoint union of chains (paper §3): every pointer-jumping read of a
// cell x targets a cell on x's own Next-path, so the connected components of
// the forest are closed under the entire combine schedule. Replaying the
// schedule restricted to a subset of chains therefore performs exactly the
// combines the full replay performs on those cells — same operands, same
// round order — making per-chain slices bit-identical to the full solve and
// safe to distribute across machines.

// ErrShardRange is returned when a requested chain or cell range does not
// fit the plan.
var ErrShardRange = fmt.Errorf("ordinary: shard range out of bounds")

// Chains are numbered by ascending terminal cell, so the numbering is a
// function of the plan structure alone (coordinator and workers agree on it
// by construction). The plan stores no per-chain cell lists beyond its
// schedule: blocked plans read them off their chain-major order (Plan.cellAt),
// jumping plans off their chainOf table.

// eachWritten calls fn(x, c) for every written cell x with its chain id c.
func (p *Plan) eachWritten(fn func(x, c int)) {
	if b := p.blocked; b != nil {
		for c := 0; c+1 < len(b.chainOff); c++ {
			for k := int(b.chainOff[c]); k < int(b.chainOff[c+1]); k++ {
				fn(p.cellAt(c, k), c)
			}
		}
		return
	}
	for x, c := range p.chainOf {
		if c >= 0 {
			fn(x, int(c))
		}
	}
}

// NumChains returns the number of chains (forest components) in the plan —
// the size of the ordinary family's shard domain. Every chain has exactly
// one terminal, so this is the initialization-phase combine count.
func (p *Plan) NumChains() int { return len(p.initDst) }

// ChainSizes returns the cell count of each chain, indexed by chain id, in
// a fresh slice. Partitioners use it to cut balanced contiguous chain
// ranges.
func (p *Plan) ChainSizes() []int {
	sizes := make([]int, p.NumChains())
	p.eachWritten(func(_, c int) { sizes[c]++ })
	return sizes
}

// ChainOf returns the chain id of every cell (-1 for unwritten cells). The
// slice may be the plan's own table; callers must not modify it.
func (p *Plan) ChainOf() []int32 {
	if p.blocked == nil {
		return p.chainOf
	}
	chainOf := make([]int32, p.M)
	for x := range chainOf {
		chainOf[x] = -1
	}
	p.eachWritten(func(x, c int) { chainOf[x] = int32(c) })
	return chainOf
}

// ShardResult is a sparse slice of a replay: the final values of the cells
// a shard owns, in ascending cell order.
type ShardResult[T any] struct {
	// Cells lists the cells this shard computed, ascending.
	Cells []int
	// Values[k] is the final value of Cells[k], bit-identical to the full
	// replay's Values[Cells[k]].
	Values []T
}

// SolvePlanMemberCtx replays a compiled plan restricted to a member set of
// cells. member must be closed under the forest's Next relation (chain
// unions are; see SolvePlanChainsCtx). The combines performed on member
// cells are exactly those of SolvePlanCtx, on the same operands in the same
// round order, so member cells' values are bit-identical to the full
// replay's; non-member cells keep their init values. Error and cancellation
// behavior follows the SolvePlanCtx contract.
func SolvePlanMemberCtx[T any](ctx context.Context, p *Plan, op core.Semigroup[T], init []T, member []bool, opt Options) (_ []T, err error) {
	defer parallel.RecoverTo(&err)
	if len(init) != p.M {
		return nil, fmt.Errorf("%w: len(init) = %d, want M = %d", ErrInitLen, len(init), p.M)
	}
	if len(member) != p.M {
		return nil, fmt.Errorf("%w: len(member) = %d, want M = %d", ErrShardRange, len(member), p.M)
	}
	ctx, release := parallel.EnsureGang(ctx, opt.Procs, p.M)
	defer release()
	if p.blocked != nil {
		return solveBlockedMember(ctx, p, op, init, member, opt)
	}
	v := make([]T, p.M)
	copy(v, init)

	// Initialization phase: member cells' terminal init folds. Reads target
	// the caller's init array directly, so no closure constraint applies.
	selDst := make([]int32, 0, len(p.initDst))
	selSrc := make([]int32, 0, len(p.initDst))
	for k, dst := range p.initDst {
		if member[dst] {
			selDst = append(selDst, dst)
			selSrc = append(selSrc, p.initSrc[k])
		}
	}
	if err := parallel.ForCtx(ctx, len(selDst), opt.Procs, func(lo, hi int) error {
		for k := lo; k < hi; k++ {
			x := selDst[k]
			v[x] = op.Combine(init[selSrc[k]], init[x])
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Rounds: gather-then-apply over the member subset of each round
	// (snapshotting every selected source is safe for both halves of the
	// compile-time gather/direct split). Every src lies on its dst's
	// Next-path, hence inside the member set.
	var src []T
	for r := range p.rounds {
		rd := &p.rounds[r]
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		selDst, selSrc = selDst[:0], selSrc[:0]
		for k, dst := range rd.gatherDst {
			if member[dst] {
				selDst = append(selDst, dst)
				selSrc = append(selSrc, rd.gatherSrc[k])
			}
		}
		for k, dst := range rd.directDst {
			if member[dst] {
				selDst = append(selDst, dst)
				selSrc = append(selSrc, rd.directSrc[k])
			}
		}
		if cap(src) < len(selDst) {
			src = make([]T, len(selDst))
		}
		src = src[:len(selDst)]
		if err := parallel.ForCtx(ctx, len(selDst), opt.Procs, func(lo, hi int) error {
			for k := lo; k < hi; k++ {
				src[k] = v[selSrc[k]]
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if err := parallel.ForCtx(ctx, len(selDst), opt.Procs, func(lo, hi int) error {
			for k := lo; k < hi; k++ {
				x := selDst[k]
				v[x] = op.Combine(src[k], v[x])
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// MemberForChains returns the cell membership bitmap of the chain range
// [chainLo, chainHi) — the closure SolvePlanMemberCtx requires.
func (p *Plan) MemberForChains(chainLo, chainHi int) ([]bool, error) {
	member, _, err := p.memberForChains(chainLo, chainHi)
	return member, err
}

// memberForChains is MemberForChains plus the member cell count.
func (p *Plan) memberForChains(chainLo, chainHi int) ([]bool, int, error) {
	if chainLo < 0 || chainHi > p.NumChains() || chainLo > chainHi {
		return nil, 0, fmt.Errorf("%w: chains [%d, %d) of %d", ErrShardRange, chainLo, chainHi, p.NumChains())
	}
	member := make([]bool, p.M)
	count := 0
	if b := p.blocked; b != nil {
		for c := chainLo; c < chainHi; c++ {
			for k := int(b.chainOff[c]); k < int(b.chainOff[c+1]); k++ {
				member[p.cellAt(c, k)] = true
			}
		}
		return member, int(b.chainOff[chainHi] - b.chainOff[chainLo]), nil
	}
	for x, c := range p.chainOf {
		if int(c) >= chainLo && int(c) < chainHi {
			member[x] = true
			count++
		}
	}
	return member, count, nil
}

// SolvePlanChainsCtx replays the chain range [chainLo, chainHi) of a
// compiled plan and returns the owned cells' final values, bit-identical to
// the same cells of SolvePlanCtx. It is the worker-side entry point of a
// distributed ordinary solve.
func SolvePlanChainsCtx[T any](ctx context.Context, p *Plan, op core.Semigroup[T], init []T, chainLo, chainHi int, opt Options) (*ShardResult[T], error) {
	member, count, err := p.memberForChains(chainLo, chainHi)
	if err != nil {
		return nil, err
	}
	v, err := SolvePlanMemberCtx(ctx, p, op, init, member, opt)
	if err != nil {
		return nil, err
	}
	res := &ShardResult[T]{
		Cells:  make([]int, 0, count),
		Values: make([]T, 0, count),
	}
	for x := 0; x < p.M; x++ {
		if member[x] {
			res.Cells = append(res.Cells, x)
			res.Values = append(res.Values, v[x])
		}
	}
	return res, nil
}
