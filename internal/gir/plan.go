package gir

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strconv"

	"indexedrec/internal/core"
	"indexedrec/internal/parallel"
)

// Compiled solve plans for the general solver. The path counts depend only
// on the index maps (g, f, h) and the dimensions — never on operator or
// data — and computing them is by far the dominant cost of a general solve.
// CompilePlanCtx computes them once; SolvePlanCtx replays just the
// power-evaluation phase against fresh init data.
//
// Plans do not run a CAP engine. In the versioned dependence graph (see the
// package comment) iteration i only points at an earlier iteration or at a
// leaf, so iteration order is already a topological order, and one pass
// over the iterations computes every node's path counts: iteration i's
// terms are the sorted merge of its two operands' terms, summed where both
// reach the same sink (or doubled, when both operands are the same node —
// the CAP graph's edge label 2). Counts are uint64; only a term that
// overflows becomes a big.Int in a side table. The exponents are exactly
// the CAP engines' (FuzzGeneralPlanCounts cross-checks them), so replays
// are bit-identical to SolveCtx; the engines stay as the paper's algorithm
// behind SolveCtx.

// Plan is the compiled, data-independent part of a general-IR solve: for
// every cell x, the (sink, count) terms of its final node, sorted by sink.
// Only what the iterations touch is stored. A cell no iteration writes
// (its final node is its own leaf) stores no term: an empty span stands for
// its trace (x, 1), and the unwritten cells before the first written cell
// and after the last store no offset either. When every stored count is 1,
// cnt is nil and a term is just its 4-byte sink. Immutable after
// compilation and safe for concurrent replays.
type Plan struct {
	m, rounds int
	// MaxExponentBits records the bit cap the counts were computed under
	// (0 = unlimited); replays inherit it by construction.
	MaxExponentBits int

	// off covers the cells from base, the first written cell, to the last
	// written one: cell x's stored terms are indices off[x-base] ..
	// off[x-base+1]-1 of sink and cnt. An empty span, or a cell outside
	// that window, marks an unwritten cell.
	base int
	off  []int32
	sink []int32
	// cnt[t] is term t's path count; 0 (never a real count) marks a count
	// past uint64, whose exact value is wide[t]. nil when every count is 1.
	cnt  []uint64
	wide map[int32]*big.Int
	// unwritten is the number of cells with an empty span.
	unwritten int
}

// flatPass is the compile-time state of the iteration-order pass. Every
// node's terms live back to back in one pointer-free arena: node v's terms
// are arena indices off[v] .. off[v+1]-1. Leaves 0..m-1 hold their own
// (x, 1) term, so leaf x is the range [x, x+1) and both operand kinds read
// alike.
type flatPass struct {
	// limit is the most terms the arena may hold: the leaves plus budget.
	limit, budget int
	off           []int32
	sink          []int32
	cnt           []uint64
	wide          map[int32]*big.Int // arena index → exact count where cnt == 0
	// widest is the largest bit length of any count so far.
	widest int
}

// planCtxStride is how many iterations the pass runs between ctx checks.
const planCtxStride = 1024

// ErrCompileBudget is returned by CompilePlanCtx when the pass would hold
// more terms than its budget allows.
var ErrCompileBudget = errors.New("gir: compile budget exceeded")

// CompilePlanCtx validates s and computes the path counts of every cell's
// final node in one pass over the iterations — everything a general solve
// does before it first touches init values. maxBits caps the bit length of
// any node's path count (<= 0 means unlimited) and fails with
// ErrExponentLimit on exactly the inputs the squaring engine rejects.
// maxTerms caps the terms the pass builds for its iteration nodes (the m
// leaf terms not counted; <= 0 means unlimited): a node whose terms would
// pass it fails with ErrCompileBudget before its arena grows. The pass
// holds every node's terms, so a cell updated d times costs about d terms
// at each of its d versions, and one short request could otherwise hold
// the host's memory. Cancellation of ctx is observed every planCtxStride
// iterations.
func CompilePlanCtx(ctx context.Context, s *core.System, maxBits, maxTerms int) (_ *Plan, err error) {
	defer parallel.RecoverTo(&err)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m, n := s.M, s.N
	if m+n+1 > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d cells + %d iterations exceed int32 node ids", core.ErrInvalidSystem, m, n)
	}
	fp := &flatPass{
		limit:  math.MaxInt,
		off:    make([]int32, m+n+1),
		sink:   make([]int32, m, m+2*n),
		cnt:    make([]uint64, m, m+2*n),
		widest: 1,
	}
	if maxTerms > 0 {
		fp.limit, fp.budget = m+maxTerms, maxTerms
	}
	for x := 0; x < m; x++ {
		fp.off[x+1] = int32(x + 1)
		fp.sink[x] = int32(x)
		fp.cnt[x] = 1
	}
	// last[c] is the node holding cell c's current value; depth[v] is the
	// length of the longest path from node v to a leaf.
	last := make([]int32, m)
	for x := range last {
		last[x] = int32(x)
	}
	depth := make([]int32, m+n)
	var deepest int32
	for i := 0; i < n; i++ {
		if i%planCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		a, b := last[s.F[i]], last[s.OperandH(i)]
		if a == b {
			err = fp.double(a)
		} else {
			err = fp.merge(a, b)
		}
		if err != nil {
			return nil, err
		}
		if len(fp.sink) > math.MaxInt32 {
			return nil, fmt.Errorf("gir: path counts exceed %d terms", math.MaxInt32)
		}
		v := int32(m + i)
		depth[v] = 1 + max(depth[a], depth[b])
		deepest = max(deepest, depth[v])
		fp.off[v+1] = int32(len(fp.sink))
		last[s.G[i]] = v
		// The squaring engine checks every label it forms inside its
		// rounds, and no label exceeds the final count of the node it
		// starts at; a graph with no path longer than one edge runs no
		// round and so is never rejected.
		if maxBits > 0 && fp.widest > maxBits && deepest >= 2 {
			return nil, fmt.Errorf("gir: CAP failed: %w: %d bits > cap %d", ErrExponentLimit, fp.widest, maxBits)
		}
	}
	p := fp.plan(m, last)
	p.MaxExponentBits = maxBits
	if deepest > 1 {
		p.rounds = bits.Len32(uint32(deepest - 1)) // ⌈log₂ deepest⌉
	}
	return p, nil
}

// merge appends the sorted union of nodes a's and b's terms, summing the
// counts of a sink both reach.
func (fp *flatPass) merge(a, b int32) error {
	p, pe := fp.off[a], fp.off[a+1]
	q, qe := fp.off[b], fp.off[b+1]
	if err := fp.grow(int(pe - p + qe - q)); err != nil {
		return err
	}
	for p < pe || q < qe {
		switch {
		case q == qe || (p < pe && fp.sink[p] < fp.sink[q]):
			fp.copyTerm(p)
			p++
		case p == pe || fp.sink[q] < fp.sink[p]:
			fp.copyTerm(q)
			q++
		default:
			fp.addTerms(p, q)
			p++
			q++
		}
	}
	return nil
}

// double appends node a's terms with every count doubled: both operand
// edges of the iteration reach a.
func (fp *flatPass) double(a int32) error {
	if err := fp.grow(int(fp.off[a+1] - fp.off[a])); err != nil {
		return err
	}
	for p := fp.off[a]; p < fp.off[a+1]; p++ {
		c := fp.cnt[p]
		if c == 0 || c > math.MaxUint64/2 {
			x := fp.count(p)
			fp.push(fp.sink[p], 0, new(big.Int).Lsh(x, 1))
			continue
		}
		fp.push(fp.sink[p], 2*c, nil)
	}
	return nil
}

// addTerms appends the sum of terms p and q, which share a sink.
func (fp *flatPass) addTerms(p, q int32) {
	x, y := fp.cnt[p], fp.cnt[q]
	if x != 0 && y != 0 {
		if sum, carry := bits.Add64(x, y, 0); carry == 0 {
			fp.push(fp.sink[p], sum, nil)
			return
		}
	}
	fp.push(fp.sink[p], 0, new(big.Int).Add(fp.count(p), fp.count(q)))
}

// copyTerm appends term p unchanged; a wide count keeps sharing its
// big.Int, which the pass never mutates.
func (fp *flatPass) copyTerm(p int32) {
	if c := fp.cnt[p]; c != 0 {
		fp.push(fp.sink[p], c, nil)
		return
	}
	fp.push(fp.sink[p], 0, fp.wide[p])
}

// push appends one term: a uint64 count c, or (c == 0) the exact count w.
func (fp *flatPass) push(sink int32, c uint64, w *big.Int) {
	t := int32(len(fp.sink))
	fp.sink = append(fp.sink, sink)
	fp.cnt = append(fp.cnt, c)
	if c != 0 {
		fp.widest = max(fp.widest, bits.Len64(c))
		return
	}
	if fp.wide == nil {
		fp.wide = make(map[int32]*big.Int)
	}
	fp.wide[t] = w
	fp.widest = max(fp.widest, w.BitLen())
}

// grow makes room for k more terms, so a merge appends without
// reallocating, or fails with ErrCompileBudget if they would pass the
// limit.
func (fp *flatPass) grow(k int) error {
	if len(fp.sink)+k > fp.limit {
		return fmt.Errorf("%w: more than %d path-count terms", ErrCompileBudget, fp.budget)
	}
	fp.sink = slices.Grow(fp.sink, k)
	fp.cnt = slices.Grow(fp.cnt, k)
	return nil
}

// count returns term p's exact count; the result must not be mutated.
func (fp *flatPass) count(p int32) *big.Int {
	if c := fp.cnt[p]; c != 0 {
		return new(big.Int).SetUint64(c)
	}
	return fp.wide[p]
}

// plan copies the terms of every written cell's final node (last[x]) out
// of the arena into an exactly sized Plan. An unwritten cell
// (last[x] == x) gets an empty span, or none outside the written cells'
// window, and a plan whose stored counts are all 1 keeps no cnt.
func (fp *flatPass) plan(m int, last []int32) *Plan {
	first, end := 0, 0 // the written window [first, end)
	for x, v := range last {
		if v != int32(x) {
			if end == 0 {
				first = x
			}
			end = x + 1
		}
	}
	p := &Plan{m: m, base: first, off: make([]int32, end-first+1)}
	total, unit := 0, true
	for x, v := range last {
		if v == int32(x) {
			p.unwritten++
		} else {
			lo, hi := fp.off[v], fp.off[v+1]
			total += int(hi - lo)
			for _, c := range fp.cnt[lo:hi] {
				unit = unit && c == 1
			}
		}
		if first <= x && x < end {
			p.off[x-first+1] = int32(total)
		}
	}
	p.sink = make([]int32, 0, total)
	if !unit {
		p.cnt = make([]uint64, 0, total)
	}
	for x, v := range last {
		if v == int32(x) {
			continue
		}
		lo, hi := fp.off[v], fp.off[v+1]
		for t := lo; t < hi; t++ {
			if fp.cnt[t] == 0 {
				if p.wide == nil {
					p.wide = make(map[int32]*big.Int)
				}
				p.wide[int32(len(p.sink))+t-lo] = fp.wide[t]
			}
		}
		if !unit {
			p.cnt = append(p.cnt, fp.cnt[lo:hi]...)
		}
		p.sink = append(p.sink, fp.sink[lo:hi]...)
	}
	return p
}

// M returns the plan's cell count.
func (p *Plan) M() int { return p.m }

// Rounds returns ⌈log₂ L⌉ for the longest dependence path L (0 when
// L <= 1): the round count the squaring engine's Stats report for the same
// system.
func (p *Plan) Rounds() int { return p.rounds }

// NumTerms returns the total number of (sink, count) terms over every
// cell's trace, counting an unwritten cell's (x, 1).
func (p *Plan) NumTerms() int { return len(p.sink) + p.unwritten }

// span returns the stored terms of cell x as indices lo .. hi-1 of sink
// and cnt; lo == hi for an unwritten cell.
func (p *Plan) span(x int) (lo, hi int32) {
	if i := x - p.base; i >= 0 && i+1 < len(p.off) {
		return p.off[i], p.off[i+1]
	}
	return 0, 0
}

// Terms returns the number of terms in cell x's trace.
func (p *Plan) Terms(x int) int {
	if lo, hi := p.span(x); hi > lo {
		return int(hi - lo)
	}
	return 1
}

// Term returns term k of cell x's trace (0 <= k < Terms(x)) as the paper's
// Fig. 5 factor A₀[sink]^exp, with the exponent in decimal.
func (p *Plan) Term(x, k int) (sink int, exp string) {
	lo, hi := p.span(x)
	if lo == hi {
		return x, "1"
	}
	t := lo + int32(k)
	if p.cnt == nil {
		return int(p.sink[t]), "1"
	}
	if c := p.cnt[t]; c != 0 {
		return int(p.sink[t]), strconv.FormatUint(c, 10)
	}
	return int(p.sink[t]), p.wide[t].String()
}

// count sets k to stored term t's count and returns it, or returns the
// overflow table's exact count; the result must not be mutated.
func (p *Plan) count(t int32, k *big.Int) *big.Int {
	if p.cnt == nil {
		return k.SetUint64(1)
	}
	if c := p.cnt[t]; c != 0 {
		return k.SetUint64(c)
	}
	return p.wide[t]
}

// wideWordBytes is the accounted cost of one overflow entry beyond its
// words: the big.Int header plus its map slot.
const wideWordBytes = 48

// SizeBytes is the plan's resident size for cache accounting: the offset
// table over the written cells' window, 4 bytes per stored term's sink, 8
// more per term when the counts are not all 1, and the overflow table's
// words.
func (p *Plan) SizeBytes() int64 {
	size := 4*int64(len(p.off)) + 4*int64(len(p.sink)) + 8*int64(len(p.cnt))
	for _, w := range p.wide {
		size += wideWordBytes + 8*int64(len(w.Bits()))
	}
	return size
}

// SolvePlanCtx replays a compiled plan against fresh init data: one
// parallel sweep that folds each cell's atomic powers in sink order, which
// is the final phase of SolveCtx, so values are bit-identical to the direct
// solve's. Panics in op.Combine/op.Pow return as errors; cancellation stops
// the sweep.
func SolvePlanCtx[T any](ctx context.Context, p *Plan, op core.CommutativeMonoid[T], init []T, procs int) (_ []T, err error) {
	defer parallel.RecoverTo(&err)
	if len(init) != p.m {
		return nil, fmt.Errorf("%w: len(init) = %d, want m = %d", ErrInitLen, len(init), p.m)
	}
	ctx, release := parallel.EnsureGang(ctx, procs, p.m)
	defer release()
	values := make([]T, p.m)
	if err := evalCells(ctx, p, op, init, 0, values, procs); err != nil {
		return nil, err
	}
	return values, nil
}

// CompileSolveCtx is a one-off general solve: CompilePlanCtx, then
// SolvePlanCtx. An invalid system is reported first and a wrong init
// length next, both before any path is counted.
func CompileSolveCtx[T any](ctx context.Context, s *core.System, op core.CommutativeMonoid[T], init []T, maxBits, procs int) (*Plan, []T, error) {
	if s != nil && len(init) != s.M {
		if err := s.Validate(); err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("%w: len(init) = %d, want s.M = %d", ErrInitLen, len(init), s.M)
	}
	p, err := CompilePlanCtx(ctx, s, maxBits, 0)
	if err != nil {
		return nil, nil, err
	}
	values, err := SolvePlanCtx(ctx, p, op, init, procs)
	if err != nil {
		return nil, nil, err
	}
	return p, values, nil
}

// evalCells writes the values of cells lo .. lo+len(out)-1 into out. An
// unwritten cell folds its one term (x, 1) like any other, so every cell
// makes the same Combine and Pow calls in either layout. Each worker chunk
// reuses one scratch big.Int for the uint64 counts, which the
// CommutativeMonoid contract allows: Pow neither modifies nor retains k.
func evalCells[T any](ctx context.Context, p *Plan, op core.CommutativeMonoid[T], init []T, lo int, out []T, procs int) error {
	return parallel.ForCtx(ctx, len(out), procs, func(a, b int) error {
		var k big.Int
		for c := a; c < b; c++ {
			x := lo + c
			acc := op.Identity()
			tlo, thi := p.span(x)
			if tlo == thi {
				acc = op.Combine(acc, op.Pow(init[x], k.SetUint64(1)))
			}
			for t := tlo; t < thi; t++ {
				acc = op.Combine(acc, op.Pow(init[p.sink[t]], p.count(t, &k)))
			}
			out[c] = acc
		}
		return nil
	})
}
