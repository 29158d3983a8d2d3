package ir

import (
	"context"
	"errors"
	"fmt"

	"indexedrec/internal/lang"
)

// The paper's headline use case as a public API: hand the library a
// sequential loop as TEXT, let it classify the recurrence form without
// dependence analysis, and execute it with the matching parallel algorithm.
//
//	loop, _ := ir.ParseLoop("for i = 1 to n do X[i] := A[i]*X[i-1] + B[i]")
//	c := ir.CompileLoop(loop)        // c.Analysis.Form, c.Strategy()
//	err := c.Execute(env, 0)         // parallel, O(log n) steps
//
// The loop language is Pascal-like: `for i = lo to hi do stmt` or a
// begin/end block, statements `X[expr] := expr`, expressions over numbers,
// scalars, array references (including indirection) and + - * /; nested
// loops are supported (outer sequential × inner parallel).
//
// Package lang only lowers: each parallel leaf of a loop becomes a solve
// (LoopLeaf) that is compiled and replayed like any other, so a loop shares
// plans, and answers bit for bit, with the same system's solve routes.

// Loop is a parsed loop; Env binds its arrays and scalars; Analysis is its
// recurrence classification.
type (
	Loop     = lang.Loop
	Env      = lang.Env
	Analysis = lang.Analysis
)

// Compiled pairs a loop with its recurrence analysis and parallel
// strategy (the embedded lang.Compiled's Analysis and Strategy).
type Compiled struct{ *lang.Compiled }

// ParseLoop parses loop source text.
func ParseLoop(src string) (*Loop, error) { return lang.Parse(src) }

// NewEnv returns an empty environment to bind arrays and scalars into.
func NewEnv() *Env { return lang.NewEnv() }

// CompileLoop classifies the loop and packages it with its strategy; call
// Execute(env, procs) on the result to run it in parallel, or RunLoop for
// the sequential reference semantics.
func CompileLoop(l *Loop) *Compiled { return &Compiled{lang.Compile(l)} }

// RunLoop interprets the loop sequentially — the semantic oracle.
func RunLoop(l *Loop, env *Env) error { return lang.Run(l, env) }

// Execute runs the loop against env in parallel, mutating env's arrays as
// RunLoop would up to float rounding from regrouping. procs <= 0 means
// GOMAXPROCS.
func (c *Compiled) Execute(env *Env, procs int) error {
	return c.ExecuteCtx(context.Background(), env, procs)
}

// ExecuteCtx is Execute bounded by ctx: every parallel leaf is compiled
// with CompileCtx and replayed with Plan.SolveCtx,
// under the hardened-solver contract (cancellation between rounds, panics
// as errors). A Möbius chain that divides by zero runs as written,
// preserving the loop's IEEE semantics.
func (c *Compiled) ExecuteCtx(ctx context.Context, env *Env, procs int) error {
	return c.Drive(ctx, env, func(ctx context.Context, leaf *lang.Leaf) ([]float64, error) {
		family, sys, data := LoopLeaf(leaf)
		data.Opts.Procs = procs
		p, err := CompileCtx(ctx, sys, CompileOptions{Family: family})
		if err != nil {
			return nil, err
		}
		return LoopValues(ctx, p, data)
	})
}

// LoopLeaf is the one conversion of a lowered loop leaf to a solve: its
// family (an ordinary leaf's resolved by ResolveFamily; general and
// scatter-add leaves general; linear forms Möbius), structure and data.
func LoopLeaf(leaf *lang.Leaf) (Family, *System, PlanData) {
	if leaf.A != nil {
		return FamilyMoebius, leaf.Sys, PlanData{A: leaf.A, B: leaf.B, C: leaf.C, D: leaf.D, X0: leaf.Init}
	}
	op := "float64-add"
	if leaf.Op == '*' {
		op = "float64-mul"
	}
	family := FamilyGeneral
	if leaf.Sys.H == nil {
		family = ResolveFamily(leaf.Sys, FamilyAuto)
	}
	return family, leaf.Sys, PlanData{Op: op, InitFloat: leaf.Init}
}

// LoopValues replays a loop leaf's plan against data and returns its
// cells. A Möbius replay refused as non-finite (a chain that divides by
// zero) wraps lang.ErrSequential, so the loop runs as written.
func LoopValues(ctx context.Context, p *Plan, data PlanData) ([]float64, error) {
	sol, err := p.SolveCtx(ctx, data)
	switch {
	case p.family == FamilyMoebius && errors.Is(err, ErrNonFinite):
		return nil, fmt.Errorf("%w: %w", lang.ErrSequential, err)
	case err != nil:
		return nil, err
	case p.family == FamilyMoebius:
		return sol.Values, nil
	}
	return sol.ValuesFloat, nil
}
