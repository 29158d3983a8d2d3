// Grid2D: dynamic programming on 2-D recurrence grids solved by tiled
// wavefronts. Two classic DP kernels ride the same engine:
//
//   - Edit distance (Levenshtein) over the min-plus semiring: the DP table
//     D[i][j] = min(D[i-1][j]+1, D[i][j-1]+1, D[i-1][j-1]+sub) is exactly a
//     linear 2-D indexed recurrence, and every anti-diagonal of 256×256
//     tiles is one parallel round.
//   - Smith–Waterman local alignment over the max-plus semiring, where the
//     constant-term grid holds the 0 floor that restarts negative-scoring
//     prefixes.
//
// The example solves both cold (compile + solve) and warm (plan replay),
// checks the parallel result against the obvious sequential DP, and prints
// the distances/scores:
//
//	go run ./examples/grid2d
//	go run ./examples/grid2d -a kitten -b sitting
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"indexedrec/internal/workload"
	"indexedrec/ir"
)

func main() {
	a := flag.String("a", "", "first string (empty = a random 600-mer)")
	b := flag.String("b", "", "second string (empty = a random 640-mer)")
	flag.Parse()
	rng := rand.New(rand.NewSource(23))
	if *a == "" {
		*a = randDNA(rng, 600)
	}
	if *b == "" {
		*b = randDNA(rng, 640)
	}
	ctx := context.Background()

	// --- Edit distance over min-plus -----------------------------------
	sys := workload.EditDistance(*a, *b)
	plan, err := ir.CompileGrid2DCtx(ctx, sys)
	if err != nil {
		log.Fatal(err)
	}
	res, err := ir.SolveGrid2DPlanCtx(ctx, plan, sys, ir.SolveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	got := res.Values[len(res.Values)-1]
	want := editDistanceDP(*a, *b)
	fmt.Printf("edit distance      |a|=%d |b|=%d: %.0f (sequential DP: %d) — %d wavefront rounds over %d cells\n",
		len(*a), len(*b), got, want, res.Rounds, res.Cells)
	if int(got) != want {
		log.Fatalf("wavefront disagrees with the sequential DP: %v != %d", got, want)
	}

	// A warm replay of the same plan is bit-identical — the serving-path
	// steady state (plan caches + arena pools) in two lines.
	warm, err := ir.SolveGrid2DPlanCtx(ctx, plan, sys, ir.SolveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for i := range warm.Values {
		if warm.Values[i] != res.Values[i] {
			log.Fatalf("warm replay diverged at cell %d", i)
		}
	}
	fmt.Println("warm plan replay   bit-identical to the cold solve")

	// --- Smith–Waterman over max-plus ----------------------------------
	const match, mismatch, gap = 2, 1, 1
	sw := workload.SmithWaterman(*a, *b, match, mismatch, gap)
	swRes, err := ir.SolveGrid2D(sw, ir.SolveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	best, bi, bj := 0.0, 0, 0
	for i := 0; i < sw.Rows; i++ {
		for j := 0; j < sw.Cols; j++ {
			if v := swRes.Values[i*sw.Cols+j]; v > best {
				best, bi, bj = v, i, j
			}
		}
	}
	wantBest := smithWatermanDP(*a, *b, match, mismatch, gap)
	fmt.Printf("smith-waterman     best local score %.0f at (%d,%d) (sequential DP: %d)\n", best, bi, bj, wantBest)
	if int(best) != wantBest {
		log.Fatalf("wavefront disagrees with the sequential DP: %v != %d", best, wantBest)
	}
	if len(*a) <= 32 && len(*b) <= 32 {
		fmt.Println(renderTable(*a, *b, res.Values))
	}
}

func randDNA(rng *rand.Rand, n int) string {
	const alpha = "acgt"
	sb := make([]byte, n)
	for i := range sb {
		sb[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(sb)
}

// editDistanceDP is the obvious O(rows·cols) sequential Levenshtein DP.
func editDistanceDP(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			sub := prev[j-1]
			if a[i-1] != b[j-1] {
				sub++
			}
			cur[j] = min(min(prev[j]+1, cur[j-1]+1), sub)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// smithWatermanDP is the sequential local-alignment DP with linear gaps.
func smithWatermanDP(a, b string, match, mismatch, gap int) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	best := 0
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			s := prev[j-1] + match
			if a[i-1] != b[j-1] {
				s = prev[j-1] - mismatch
			}
			v := max(max(0, s), max(prev[j]-gap, cur[j-1]-gap))
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
		cur[0] = 0
	}
	return best
}

// renderTable pretty-prints a small edit-distance table for the demo.
func renderTable(a, b string, values []float64) string {
	var sb strings.Builder
	sb.WriteString("\n     ")
	for j := 0; j < len(b); j++ {
		fmt.Fprintf(&sb, "%3c", b[j])
	}
	sb.WriteByte('\n')
	for i := 0; i < len(a); i++ {
		fmt.Fprintf(&sb, "  %c ", a[i])
		for j := 0; j < len(b); j++ {
			fmt.Fprintf(&sb, "%3.0f", values[i*len(b)+j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
