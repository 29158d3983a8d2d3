package core

import (
	"errors"
	"fmt"
	"math/big"
	"sync/atomic"

	"indexedrec/internal/parallel"
)

// This file is the fault-injection harness the chaos tests drive: operator
// wrappers that misbehave at a chosen call, and a countdown trigger for
// cancelling a solve at a chosen round. Production code never constructs
// these; they exist so every solver's panic-safety, error propagation and
// cancellation paths are exercised under `go test -race`.

// ErrInjected is the error an InjectOp raises at its FailAt call.
var ErrInjected = errors.New("core: injected fault")

// InjectOp wraps a Semigroup and misbehaves at chosen Combine calls:
//
//   - call number PanicAt (1-based) panics with a plain value, modeling a
//     buggy user operator;
//   - call number FailAt aborts the surrounding panic-safe parallel region
//     with Err (default ErrInjected) via parallel.Abort, modeling an
//     operator that detects an unrecoverable condition mid-solve;
//   - OnCall, if non-nil, observes every call number before the checks —
//     the hook used to cancel a context at a chosen point of the solve.
//
// Call numbers are counted atomically across goroutines. Zero values
// disable the corresponding fault, so the zero configuration is a
// transparent pass-through.
type InjectOp[T any] struct {
	Inner   Semigroup[T]
	PanicAt int64
	FailAt  int64
	Err     error
	OnCall  func(k int64)

	calls atomic.Int64
}

// Name implements Semigroup.
func (f *InjectOp[T]) Name() string { return "inject(" + f.Inner.Name() + ")" }

// Combine implements Semigroup, injecting the configured fault.
func (f *InjectOp[T]) Combine(a, b T) T {
	k := f.calls.Add(1)
	if f.OnCall != nil {
		f.OnCall(k)
	}
	if f.PanicAt > 0 && k == f.PanicAt {
		panic(fmt.Sprintf("core: injected panic at combine #%d", k))
	}
	if f.FailAt > 0 && k == f.FailAt {
		err := f.Err
		if err == nil {
			err = ErrInjected
		}
		parallel.Abort(fmt.Errorf("combine #%d: %w", k, err))
	}
	return f.Inner.Combine(a, b)
}

// InjectMonoid extends InjectOp to the CommutativeMonoid contract so the
// GIR solver can be fault-injected too: Pow shares the same call counter
// and fault schedule as Combine.
type InjectMonoid[T any] struct {
	InjectOp[T]
	M CommutativeMonoid[T]
}

// NewInjectMonoid wraps m; configure the fault schedule on the embedded
// InjectOp fields afterwards.
func NewInjectMonoid[T any](m CommutativeMonoid[T]) *InjectMonoid[T] {
	im := &InjectMonoid[T]{M: m}
	im.Inner = m
	return im
}

// Identity implements Monoid.
func (f *InjectMonoid[T]) Identity() T { return f.M.Identity() }

// Pow implements CommutativeMonoid, counting against the same schedule.
func (f *InjectMonoid[T]) Pow(a T, k *big.Int) T {
	n := f.calls.Add(1)
	if f.OnCall != nil {
		f.OnCall(n)
	}
	if f.PanicAt > 0 && n == f.PanicAt {
		panic(fmt.Sprintf("core: injected panic at pow #%d", n))
	}
	if f.FailAt > 0 && n == f.FailAt {
		err := f.Err
		if err == nil {
			err = ErrInjected
		}
		parallel.Abort(fmt.Errorf("pow #%d: %w", n, err))
	}
	return f.M.Pow(a, k)
}

// CancelAt returns a countdown trigger: the k-th invocation (1-based) of
// the returned function calls fire exactly once. Wire it into a solver's
// OnRound hook (or InjectOp.OnCall) to cancel a context at a chosen round:
//
//	hook := core.CancelAt(2, cancel)
//	opt.OnRound = func(round int, j *JumperState) { hook() }
//
// The trigger is safe for concurrent use.
func CancelAt(k int64, fire func()) func() {
	var calls atomic.Int64
	return func() {
		if calls.Add(1) == k {
			fire()
		}
	}
}
