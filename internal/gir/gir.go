// Package gir solves general indexed recurrence systems (paper §4):
//
//	for i = 0 .. n-1:  A[g(i)] := A[f(i)] ⊗ A[h(i)]
//
// with arbitrary f, g, h, a commutative ⊗, and the power a^k treated as an
// atomic operation (both requirements are the paper's: traces are trees, so
// evaluation order cannot be preserved, and trace length can be exponential,
// e.g. fib(n) for A[i] = A[i-1] ⊗ A[i-2]).
//
// # The dependence graph
//
// The paper builds a graph over assignment targets g(i) plus primed leaf
// nodes f(i)', h(i)” for initial-value references (its Fig. 6), assuming
// distinct g and deferring non-distinct g to the unpublished full paper.
// We reconstruct the natural completion with per-iteration VERSION nodes:
//
//   - one leaf node per array cell (node x, 0 ≤ x < m) standing for the
//     initial value A₀[x] — these are the sinks;
//   - one node per iteration (node m+i) standing for the value written by
//     iteration i;
//   - iteration i gets one edge per operand: to node m+j when j < i is the
//     latest iteration with g(j) = that operand cell (the read sees version
//     j), or to the operand's leaf otherwise. The two operand edges may
//     coincide, yielding label 2.
//
// For distinct g this collapses to the paper's graph (each cell has at most
// one version); for non-distinct g it is still exact, because a read always
// names the version live at that iteration. Iteration numbers strictly
// decrease along edges, so the graph is a DAG by construction.
//
// The exponent of A₀[x] in the trace of node v is then exactly the number
// of distinct paths v ⇝ leaf(x) — CAP — and
//
//	A'[x] = ⊗_{leaves l} A₀[l] ^ CAP(final(x), l)
//
// where final(x) is node m+LastWriter[x], or leaf x if x is never written.
package gir

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"indexedrec/internal/cap"
	"indexedrec/internal/core"
	"indexedrec/internal/parallel"
)

// ErrInitLen is returned by SolveCtx when len(init) != s.M. The legacy
// Solve wrapper converts it back into the historical panic.
var ErrInitLen = errors.New("gir: init length does not match cell count")

// ErrExponentLimit re-exports the CAP engines' bit-cap error so callers can
// match it without importing internal/cap.
var ErrExponentLimit = cap.ErrExponentLimit

// DepGraph is the versioned dependence graph of a general IR system.
type DepGraph struct {
	// G is the CAP input: nodes 0..M-1 are cell leaves (sinks), nodes
	// M..M+N-1 are iteration versions.
	G *cap.Graph
	// M and N mirror the system's dimensions.
	M, N int
	// Final[x] is the node holding cell x's final value: M+LastWriter[x],
	// or x itself when the cell is never written.
	Final []int
}

// IterNode returns the node id of iteration i's result.
func (d *DepGraph) IterNode(i int) int { return d.M + i }

// Build constructs the dependence graph in O(n + m). G need not be
// distinct (see package comment).
func Build(s *core.System) (*DepGraph, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	deps := core.ComputeDeps(s)
	edges := make(map[int][]cap.Edge, s.N)
	one := big.NewInt(1)
	for i := 0; i < s.N; i++ {
		ft := s.F[i]
		if deps.FPrev[i] >= 0 {
			ft = s.M + deps.FPrev[i]
		}
		ht := s.OperandH(i)
		if deps.HPrev[i] >= 0 {
			ht = s.M + deps.HPrev[i]
		}
		edges[s.M+i] = []cap.Edge{{To: ft, Label: one}, {To: ht, Label: one}}
	}
	d := &DepGraph{
		G:     cap.NewGraph(s.M+s.N, edges),
		M:     s.M,
		N:     s.N,
		Final: make([]int, s.M),
	}
	for x := 0; x < s.M; x++ {
		if w := deps.LastWriter[x]; w >= 0 {
			d.Final[x] = s.M + w
		} else {
			d.Final[x] = x
		}
	}
	return d, nil
}

// Engine selects the CAP implementation used by Solve.
type Engine int

const (
	// EngineSquaring is the paper's parallel log-round algorithm (default).
	EngineSquaring Engine = iota
	// EngineDP is the sequential dynamic-programming reference.
	EngineDP
	// EngineMatrix is dense adjacency-matrix repeated squaring.
	EngineMatrix
	// EngineWavefront is the level-synchronized parallel sweep: linear
	// work, critical-path depth (best for shallow dependence graphs).
	EngineWavefront
)

// String names the engine as it appears in options and reports.
func (e Engine) String() string {
	switch e {
	case EngineSquaring:
		return "squaring"
	case EngineDP:
		return "dp"
	case EngineMatrix:
		return "matrix"
	case EngineWavefront:
		return "wavefront"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// Options configure Solve.
type Options struct {
	// Procs bounds goroutines in the CAP rounds and the evaluation phase.
	Procs int
	// Engine picks the CAP implementation; zero value is the paper's
	// parallel squaring algorithm.
	Engine Engine
	// MaxExponentBits caps the bit length of any CAP path count (the
	// exponent of an initial value in a trace). Path counts grow like
	// fib(n), so the cap turns a would-be OOM on adversarial instances
	// into a prompt ErrExponentLimit. <= 0 means unlimited.
	MaxExponentBits int
}

// Result carries the solution and its cost profile.
type Result[T any] struct {
	// Values is the final array, equal to core.RunSequential's output.
	Values []T
	// Powers[x] lists the (leaf cell, exponent) trace of cell x, sorted by
	// cell — the paper's Fig. 5 "counting powers" artifact.
	Powers [][]cap.Term
	// CAPStats is non-nil when the squaring engine ran.
	CAPStats *cap.Stats
	// PowCalls counts atomic power operations in the evaluation phase.
	PowCalls int64
}

// ErrEngine is returned for an unknown Engine value.
var ErrEngine = errors.New("gir: unknown CAP engine")

// Solve computes the final array of a general IR system in parallel:
// dependence graph construction, CAP, then a per-cell product of atomic
// powers. Requires a commutative monoid with Pow (enforced by the type).
// An init-length mismatch panics (the historical contract); use SolveCtx
// for the error-returning, panic-safe API.
func Solve[T any](s *core.System, op core.CommutativeMonoid[T], init []T, opt Options) (*Result[T], error) {
	res, err := SolveCtx(context.Background(), s, op, init, opt)
	if errors.Is(err, ErrInitLen) {
		panic("gir: solveOnGraph: len(init) != s.M")
	}
	return res, err
}

// SolveCtx is the hardened entry point: identical algorithm, but every
// failure — invalid system, init-length mismatch, a panic or Abort inside
// op.Combine/op.Pow, an exponent exceeding opt.MaxExponentBits, or
// cancellation of ctx — returns as an error with all worker goroutines
// joined.
func SolveCtx[T any](ctx context.Context, s *core.System, op core.CommutativeMonoid[T], init []T, opt Options) (*Result[T], error) {
	d, err := Build(s)
	if err != nil {
		return nil, err
	}
	return solveOnGraphCtx(ctx, d, s, op, init, opt)
}

// countCtx runs the CAP engine selected by opt over d's graph — the
// structure-only phase of SolveCtx.
func countCtx(ctx context.Context, d *DepGraph, opt Options) (cap.Counts, *cap.Stats, error) {
	switch opt.Engine {
	case EngineSquaring:
		return cap.CountSquaringCtx(ctx, d.G, cap.SquaringOptions{
			Procs:   opt.Procs,
			MaxBits: opt.MaxExponentBits,
		})
	case EngineDP:
		counts, err := cap.CountDPCtx(ctx, d.G, opt.MaxExponentBits)
		return counts, nil, err
	case EngineMatrix:
		counts, err := cap.CountMatrixCtx(ctx, d.G, opt.Procs, opt.MaxExponentBits)
		return counts, nil, err
	case EngineWavefront:
		counts, err := cap.CountWavefrontCtx(ctx, d.G, opt.Procs, opt.MaxExponentBits)
		return counts, nil, err
	default:
		return nil, nil, fmt.Errorf("%w: %d", ErrEngine, int(opt.Engine))
	}
}

// evalPowersCtx is the evaluation phase: every cell's value is a product of
// atomic powers of initial values; cells are independent, so this is one
// parallel step of O(k) combines per cell (O(log k) with tree reduction;
// k is tiny in practice compared to the trace length it replaces). Panics
// in op.Combine/op.Pow surface as errors; cancellation stops the sweep.
func evalPowersCtx[T any](ctx context.Context, d *DepGraph, op core.CommutativeMonoid[T], init []T, counts cap.Counts, res *Result[T], procs int) error {
	values := make([]T, d.M)
	powers := make([][]cap.Term, d.M)
	var powCalls int64
	if err := parallel.ForCtx(ctx, d.M, procs, func(lo, hi int) error {
		var local int64
		for x := lo; x < hi; x++ {
			terms := counts[d.Final[x]]
			powers[x] = terms
			acc := op.Identity()
			for _, t := range terms {
				acc = op.Combine(acc, op.Pow(init[t.Sink], t.Count))
				local++
			}
			values[x] = acc
		}
		addInt64(&powCalls, local)
		return nil
	}); err != nil {
		return err
	}
	res.Values = values
	res.Powers = powers
	res.PowCalls = powCalls
	return nil
}
