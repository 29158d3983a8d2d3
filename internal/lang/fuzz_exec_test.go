package lang_test

import (
	"errors"
	"math"
	"testing"

	"indexedrec/internal/lang"
	"indexedrec/ir"
)

// FuzzExecuteAgainstRun is the differential check of the one plan path:
// for any loop source and small arrays, ir.CompileLoop(...).ExecuteCtx —
// lowered by package lang, compiled and replayed by package ir — must
// agree with the interpreter lang.Run. Every array must match within E8b's
// 1e-9 relative bound when both succeed, and a failure must be of the same
// class in both. Every array the loop names is bound to 64 cells cycled
// from data (small integers, some off by a half so an index can be
// non-integral), every scalar but n to a small integer, and n to n % 48.
func FuzzExecuteAgainstRun(f *testing.F) {
	for _, src := range []string{
		"for i = 1 to n do X[i] := X[i-1] + X[i]",
		"for i = 1 to n do X[i] := A[i]*X[i-1] + B[i]",
		"for i = 1 to n do X[i] := X[i] + 2*X[i-1] + 1",
		"for i = 1 to n do X[i] := (2*X[i-1] + 1)/(X[i-1] + 3)",
		"for i = 0 to 3 do X[G[i]] := X[G[i]] + B[i]",
		"for i = 1 to 4 do X[i] := X[i-1] * X[H[i]]",
		"for i = 0 to 3 do X[i] := Y[i] * s",
		"for j = 1 to 3 do for i = 1 to 4 do X[i] := X[i] + X[i-1]",
		"for i = 1 to 3 do begin X[i] := X[i-1] + 1; Y[i] := Y[i-1] * 2 end",
		"for i = 0 to 2 do X[i] := 1/0",
		"for i = 1 to n do X[i] := X[i-1] + 1",
		"for i = 0 to 9223372036854775807 do X[i] := 1",
		"for j = 1 to 64 do for i = 1 to 32 do X[0] := X[0] + 1",
		"for i = 1 to 3 do X[i] := Y[i]",
		"for i = 1 to 2.5 do X[i] := 1",
		"for i = 1 to n do X[G[i]] := X[F[i]] * X[G[i]]",
		"for i = 1 to n do X[G[i]] := X[G[i]] + A[i]*X[F[i]] + B[i]",
	} {
		f.Add(src, uint8(12), []byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 201})
	}
	f.Fuzz(func(t *testing.T, src string, n uint8, data []byte) {
		loop, err := lang.Parse(src)
		if err != nil || len(data) == 0 {
			return
		}
		env := lang.NewEnv()
		env.MaxIters = 1 << 10
		k := 0
		next := func() byte {
			k++
			return data[(k-1)%len(data)]
		}
		arrays, scalars := map[string]bool{}, map[string]bool{}
		names(loop, arrays, scalars)
		for name := range scalars {
			env.Scalars[name] = float64(next() % 8)
		}
		env.Scalars["n"] = float64(n % 48)
		for name := range arrays {
			v := make([]float64, 64)
			for i := range v {
				b := next()
				v[i] = float64(int(b%28) - 4)
				if b >= 224 {
					v[i] += 0.5
				}
			}
			env.Arrays[name] = v
		}
		seq, par := env.Clone(), env.Clone()
		serr := lang.Run(loop, seq)
		perr := ir.CompileLoop(loop).ExecuteCtx(t.Context(), par, 2)
		if class(serr) != class(perr) {
			t.Fatalf("%s: Run: %v; Execute: %v", src, serr, perr)
		}
		if serr != nil {
			return
		}
		for name, want := range seq.Arrays {
			for i, w := range want {
				if g := par.Arrays[name][i]; !near(g, w) {
					t.Fatalf("%s: %s[%d] = %v, Run %v", src, name, i, g, w)
				}
			}
		}
	})
}

// names collects the arrays and scalars a loop reads or writes; loop
// variables are bound by their loops, so they are not scalars.
func names(l *lang.Loop, arrays, scalars map[string]bool) {
	var expr func(e lang.Expr)
	expr = func(e lang.Expr) {
		switch x := e.(type) {
		case *lang.Var:
			scalars[x.Name] = true
		case *lang.Index:
			arrays[x.Array] = true
			expr(x.Idx)
		case *lang.Bin:
			expr(x.L)
			expr(x.R)
		case *lang.Neg:
			expr(x.E)
		}
	}
	expr(l.Lo)
	expr(l.Hi)
	for _, st := range l.Body {
		switch s := st.(type) {
		case *lang.Assign:
			expr(s.Target)
			expr(s.RHS)
		case *lang.Loop:
			names(s, arrays, scalars)
		}
	}
	delete(scalars, l.Var)
}

// class buckets an error by what a caller can tell apart: success, a range
// over the iteration limit, or a defect of the loop's input (an unbound
// name, a bad or out-of-range index), which the loop route answers as 400
// whichever of evaluation or lowering found it.
func class(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, lang.ErrRange):
		return "range"
	case errors.Is(err, lang.ErrEval), errors.Is(err, lang.ErrLower):
		return "input"
	}
	return err.Error()
}

// near is E8b's bound: a relative error of at most 1e-9 against the
// sequential value, the same infinity, or NaN for NaN.
func near(got, want float64) bool {
	if got == want || math.IsNaN(got) && math.IsNaN(want) {
		return true
	}
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}
