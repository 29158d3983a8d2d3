// Compiler: the paper's motivating scenario end to end — feed sequential
// loops to the front-end, let it classify the recurrence form WITHOUT
// data-dependence analysis, and execute each with the matching parallel
// algorithm, checking against the sequential interpreter.
//
//	go run ./examples/compiler
package main

import (
	"fmt"
	"log"
	"math"

	"indexedrec/internal/lang"
	"indexedrec/ir"
)

type demo struct {
	title string
	src   string
	setup func() *lang.Env
}

func main() {
	const n = 1000
	demos := []demo{
		{
			title: "prefix sums (ordinary IR, the classic)",
			src:   "for i = 1 to n do X[i] := X[i-1] + X[i]",
			setup: func() *lang.Env { return envWith(n+1, nil) },
		},
		{
			title: "indirect ordinary IR (paper §2: arbitrary g, f)",
			src:   "for i = 1 to n do X[G[i]] := X[F[i]] * X[G[i]]",
			setup: func() *lang.Env {
				e := envWith(2*n+2, nil)
				g := make([]float64, n+1)
				f := make([]float64, n+1)
				for i := 0; i <= n; i++ {
					g[i] = float64(2*i + 1) // odd cells: distinct targets
					f[i] = float64((7 * i) % (2*n + 2))
				}
				e.Arrays["G"], e.Arrays["F"] = g, f
				for i := range e.Arrays["X"] {
					e.Arrays["X"][i] = 1 + 1e-4*float64(i%13) // keep products tame
				}
				return e
			},
		},
		{
			title: "tri-diagonal elimination (linear IR via Möbius)",
			src:   "for i = 1 to n do X[i] := Z[i]*(Y[i] - X[i-1])",
			setup: func() *lang.Env {
				e := envWith(n+1, nil)
				e.Arrays["Y"] = ramp(n+1, 0.001)
				e.Arrays["Z"] = ramp(n+1, 0.0004)
				return e
			},
		},
		{
			title: "scatter-add histogram (PIC kernels; GIR handles repeated g)",
			src:   "for i = 0 to n do H[J[i]] := H[J[i]] + W[i]",
			setup: func() *lang.Env {
				e := lang.NewEnv()
				e.Scalars["n"] = float64(n)
				e.Arrays["H"] = make([]float64, 64)
				j := make([]float64, n+1)
				w := make([]float64, n+1)
				for i := 0; i <= n; i++ {
					j[i] = float64((i * i) % 64)
					w[i] = float64(i%9) + 0.5
				}
				e.Arrays["J"], e.Arrays["W"] = j, w
				return e
			},
		},
		{
			title: "continued fraction (full Möbius form)",
			src:   "for i = 1 to n do X[i] := (X[i-1] + 1) / (X[i-1] + 2)",
			setup: func() *lang.Env { return envWith(n+1, nil) },
		},
	}

	for _, d := range demos {
		fmt.Printf("== %s\n   %s\n", d.title, d.src)
		loop, err := lang.Parse(d.src)
		if err != nil {
			log.Fatal(err)
		}
		c := ir.CompileLoop(loop)
		fmt.Printf("   form: %-20v bucket: %-20v strategy: %s\n",
			c.Analysis.Form, c.Analysis.Bucket, c.Strategy())

		seq := d.setup()
		if err := lang.Run(loop, seq); err != nil {
			log.Fatal(err)
		}
		par := d.setup()
		if err := c.Execute(par, 0); err != nil {
			log.Fatal(err)
		}
		arr := loop.TargetArray()
		worst := 0.0
		for i, want := range seq.Arrays[arr] {
			got := par.Arrays[arr][i]
			worst = math.Max(worst, math.Abs(got-want)/math.Max(1, math.Abs(want)))
		}
		fmt.Printf("   parallel vs sequential: max rel err %.3g\n\n", worst)
		if worst > 1e-9 {
			log.Fatalf("deviation too large for %q", d.title)
		}
	}
	fmt.Println("all loops auto-parallelized correctly — no dependence analysis used")
}

func envWith(m int, _ []float64) *lang.Env {
	e := lang.NewEnv()
	e.Scalars["n"] = 1000
	x := make([]float64, m)
	for i := range x {
		x[i] = 0.5 + float64(i%17)/33
	}
	e.Arrays["X"] = x
	return e
}

func ramp(m int, step float64) []float64 {
	v := make([]float64, m)
	for i := range v {
		v[i] = 0.1 + step*float64(i)
	}
	return v
}
