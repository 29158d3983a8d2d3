package indexedrec

// One benchmark per experiment row of DESIGN.md §3. Custom metrics carry the
// figures' actual units: simulated cycles for the SimParC/PRAM experiments
// (Fig. 3, E10), rounds for the log-depth claims. Wall-clock ns/op covers
// the native-execution rows (E13, E14).

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"indexedrec/internal/cap"
	"indexedrec/internal/core"
	"indexedrec/internal/experiments"
	"indexedrec/internal/gir"
	"indexedrec/internal/graph"
	"indexedrec/internal/lang"
	"indexedrec/internal/livermore"
	"indexedrec/internal/moebius"
	"indexedrec/internal/ordinary"
	"indexedrec/internal/pram"
	"indexedrec/internal/scan"
	"indexedrec/internal/simparc"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

// BenchmarkFig3 regenerates the paper's headline figure on the SimParC
// reconstruction: simulated instruction counts of the parallel OrdinaryIR
// program vs the original loop, n = 50,000, sweeping P. The reported
// "cycles" metric is the figure's Y axis.
func BenchmarkFig3(b *testing.B) {
	n := 50_000
	s := workload.Chain(n)
	init := make([]int64, s.M)
	add := func(a, c int64) int64 { return a + c }

	b.Run("original-loop", func(b *testing.B) {
		var cycles int64
		for i := 0; i < b.N; i++ {
			res, err := simparc.RunSeqIR(s, add, init, 1<<34)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Cycles
		}
		b.ReportMetric(float64(cycles), "cycles")
	})
	for _, p := range []int{1, 16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("parallel-P%d", p), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := simparc.RunParallelOIR(s, add, init, p, 1<<34)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkScalingLaw (E10) measures the PRAM cost model against
// T(n,P) = (n/P)·log2 n and reports the constant factor.
func BenchmarkScalingLaw(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		s := workload.Chain(n)
		init := make([]int64, s.M)
		for _, p := range []int{1, 16, 256} {
			b.Run(fmt.Sprintf("n%d-P%d", n, p), func(b *testing.B) {
				var t pram.Word
				for i := 0; i < b.N; i++ {
					run, err := pram.RunParallelOIR(s, pram.OpAdd, init, p)
					if err != nil {
						b.Fatal(err)
					}
					t = run.Stats.Time
				}
				law := float64(n) / float64(p) * math.Log2(float64(n))
				b.ReportMetric(float64(t), "sim-time")
				b.ReportMetric(float64(t)/law, "c-factor")
			})
		}
	}
}

// BenchmarkOrdinaryIR (E13) is the native goroutine solver across processor
// counts and workload shapes, against the sequential loop baseline.
func BenchmarkOrdinaryIR(b *testing.B) {
	n := 1 << 18
	op := core.MulMod{M: 1_000_003}
	rng := rand.New(rand.NewSource(9))
	shapes := map[string]*core.System{
		"chain":  workload.Chain(n),
		"random": workload.RandomOrdinary(rng, n, n/2),
	}
	for name, s := range shapes {
		init := workload.InitInt64(rng, s.M, op.M)
		b.Run(name+"/sequential-loop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.RunSequential[int64](s, op, init)
			}
		})
		for _, p := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/parallel-P%d", name, p), func(b *testing.B) {
				var rounds int
				for i := 0; i < b.N; i++ {
					res, err := ordinary.Solve[int64](s, op, init, ordinary.Options{Procs: p})
					if err != nil {
						b.Fatal(err)
					}
					rounds = res.Rounds
				}
				b.ReportMetric(float64(rounds), "rounds")
			})
		}
	}
}

// BenchmarkGIRPowerAblation (E11): the GIR pipeline on the Fibonacci system
// whose naive trace is exponential; the rounds metric shows the log-depth.
func BenchmarkGIRPowerAblation(b *testing.B) {
	op := core.MulMod{M: 1_000_003}
	for _, n := range []int{64, 256, 1024} {
		s := workload.Fibonacci(n)
		init := make([]int64, n)
		for x := range init {
			init[x] = 3
		}
		b.Run(fmt.Sprintf("fib-n%d", n), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := gir.Solve[int64](s, op, init, gir.Options{})
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.CAPStats.Rounds
			}
			b.ReportMetric(float64(rounds), "cap-rounds")
		})
	}
}

// BenchmarkCAPVariants (E12): the three CAP engines on a shared graph.
func BenchmarkCAPVariants(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	g := cap.FromDAG(graph.Random(rng, 600, 4))
	b.Run("squaring", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cap.CountSquaring(g, cap.SquaringOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cap.CountDP(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("matrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cap.CountMatrix(g, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLoop23 (E9): the paper's §3 worked example through the full
// front-end + Möbius + OrdinaryIR pipeline vs the interpreter.
func BenchmarkLoop23(b *testing.B) {
	k := livermore.ByID(23)
	loop, err := lang.Parse(k.DSL)
	if err != nil {
		b.Fatal(err)
	}
	const rows = 4096
	b.Run("sequential-interpreter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env := k.Setup(rows)
			if err := lang.Run(loop, env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("auto-parallelized", func(b *testing.B) {
		c := ir.CompileLoop(loop)
		for i := 0; i < b.N; i++ {
			env := k.Setup(rows)
			if err := c.Execute(env, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("native-go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env := k.Setup(rows)
			k.Native(rows, env)
		}
	})
}

// BenchmarkScanVsMoebius (E14): the two parallel routes to a first-order
// linear recurrence.
func BenchmarkScanVsMoebius(b *testing.B) {
	n := 1 << 16
	rng := rand.New(rand.NewSource(13))
	a := make([]float64, n)
	bb := make([]float64, n)
	for i := range a {
		a[i] = rng.Float64()*1.2 - 0.6
		bb[i] = rng.Float64()
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scan.LinearRecurrence(a, bb, 1)
		}
	})
	b.Run("affine-prefix-ordinary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scan.LinearRecurrenceParallel(a, bb, 1, 0)
		}
	})
	g := make([]int, n-1)
	f := make([]int, n-1)
	for i := range g {
		g[i], f[i] = i+1, i
	}
	ms := moebius.NewLinear(n, g, f, a[1:], bb[1:])
	x0 := make([]float64, n)
	x0[0] = 1
	b.Run("moebius-oir", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ms.Solve(x0, ordinary.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLivermoreClassification (E8): the full §1 classification study.
func BenchmarkLivermoreClassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := livermore.ClassificationTable(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigureReproductions regenerates the diagram figures (1, 2, 4, 5,
// 6, 9) through the experiment runner — their cost is the point (all are
// trivially fast; they exist so `go test -bench .` covers every artifact).
func BenchmarkFigureReproductions(b *testing.B) {
	for _, id := range []string{"fig1", "fig2", "fig4", "fig5", "fig6", "fig9"} {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := experiments.Run(id, &buf, experiments.Options{Quick: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLivermoreNatives runs every kernel's native core loop — the raw
// substrate cost the classification study sits on.
func BenchmarkLivermoreNatives(b *testing.B) {
	const n = 4096
	for _, k := range livermore.All() {
		k := k
		b.Run(fmt.Sprintf("k%02d-%s", k.ID, shortName(k.Name)), func(b *testing.B) {
			env := k.Setup(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Native(n, env)
			}
		})
	}
}

func shortName(s string) string {
	if i := len(s); i > 18 {
		s = s[:18]
	}
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' || r == '(' || r == ')' {
			r = '-'
		}
		out = append(out, r)
	}
	return string(out)
}

// BenchmarkScheduling (E16, ref [5]): block vs cyclic distribution of the
// efficient OrdinaryIR variant on the skewed workload; the sim-time metric
// carries the scheduling gap.
func BenchmarkScheduling(b *testing.B) {
	chain, singles := 1024, 7168
	n := chain + singles
	m := chain + 1 + 2*singles
	s := &core.System{M: m, N: n, G: make([]int, n), F: make([]int, n)}
	for i := 0; i < chain; i++ {
		s.G[i], s.F[i] = i+1, i
	}
	for k := 0; k < singles; k++ {
		s.G[chain+k] = chain + 1 + 2*k
		s.F[chain+k] = chain + 2 + 2*k
	}
	init := make([]pram.Word, m)
	for _, d := range []pram.Dist{pram.DistBlock, pram.DistCyclic} {
		b.Run(d.String(), func(b *testing.B) {
			var t pram.Word
			for i := 0; i < b.N; i++ {
				run, err := pram.RunParallelOIRSched(s, pram.OpAdd, init, 16, d)
				if err != nil {
					b.Fatal(err)
				}
				t = run.Stats.Time
			}
			b.ReportMetric(float64(t), "sim-time")
		})
	}
}

// BenchmarkLivermoreFull runs the full-fidelity multi-loop kernel variants.
func BenchmarkLivermoreFull(b *testing.B) {
	const n = 4096
	for _, fk := range livermore.FullVariants() {
		fk := fk
		b.Run(fmt.Sprintf("k%02d-full", fk.ID), func(b *testing.B) {
			env := fk.Setup(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fk.Run(n, env)
			}
		})
	}
}
