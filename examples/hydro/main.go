// Hydro: the paper's §3 worked example — Livermore loop 23 (2-D implicit
// hydrodynamics) parallelized through the Möbius transformation, "without
// using any data dependence analysis techniques".
//
// The inner loop
//
//	X[i,j] := X[i,j] + 0.75·(Y[i] + X[i-1,j]·Z[i,j])
//
// is an extended linear indexed recurrence over the flattened array
// (g(i) = 7(i-1)+j). Each column j is independent; within a column the
// updates compose as Möbius maps, so the whole kernel runs in O(log n)
// parallel steps.
//
//	go run ./examples/hydro
package main

import (
	"fmt"
	"log"
	"math"

	"indexedrec/internal/lang"
	"indexedrec/internal/livermore"
	"indexedrec/ir"
)

func main() {
	k := livermore.ByID(23)
	fmt.Println("Livermore loop 23 core (as in the paper, column j fixed):")
	fmt.Println("   ", k.DSL)

	loop, err := lang.Parse(k.DSL)
	if err != nil {
		log.Fatal(err)
	}
	c := ir.CompileLoop(loop)
	fmt.Println("\nclassified:", c.Analysis.Describe())
	fmt.Println("strategy:  ", c.Strategy())

	const rows = 4096
	// Solve all 6 columns the way the paper's outer loop does, comparing
	// the auto-parallelized path against the sequential interpreter.
	var worst float64
	for j := 1; j <= 6; j++ {
		seq := k.Setup(rows)
		seq.Scalars["j"] = float64(j)
		if err := lang.Run(loop, seq); err != nil {
			log.Fatal(err)
		}
		par := k.Setup(rows)
		par.Scalars["j"] = float64(j)
		if err := c.Execute(par, 0); err != nil {
			log.Fatal(err)
		}
		for i, want := range seq.Arrays["X"] {
			got := par.Arrays["X"][i]
			err := math.Abs(got-want) / math.Max(1, math.Abs(want))
			if err > worst {
				worst = err
			}
		}
	}
	fmt.Printf("\n%d rows × 6 columns solved in O(log n) parallel steps per column\n", rows)
	fmt.Printf("max relative deviation from the sequential loop: %.3g\n", worst)
	if worst > 1e-9 {
		log.Fatal("deviation too large — regrouping should only cost rounding")
	}
	fmt.Println("OK — matches the sequential kernel up to float rounding.")
}
