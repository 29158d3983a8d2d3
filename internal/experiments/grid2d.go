package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"indexedrec/internal/grid2d"
	"indexedrec/internal/parallel"
	"indexedrec/internal/report"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

func init() {
	registerGated("grid2d", "E21 — 2-D wavefront grids: cold compile+solve vs warm arena replays on edit-distance DP up to 4096²",
		"times anti-diagonal wavefront solves cold and warm across grid sizes", runGrid2D)
}

// gridProcs is the worker count per tile round: 8, clamped to the host's
// CPUs so a small host does not time oversubscribed gangs. The output
// records the host's NumCPU beside it.
var gridProcs = min(8, runtime.NumCPU())

// gridAlphabet keeps the random strings on a small alphabet so substitution
// costs mix matches and mismatches rather than degenerating to all-1s.
const gridAlphabet = "acgt"

// randString draws an n-character string over gridAlphabet.
func randString(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = gridAlphabet[rng.Intn(len(gridAlphabet))]
	}
	return string(b)
}

// internalGrid converts the wire grid to the solver's system; the fields
// mirror one for one and slices alias.
func internalGrid(s *ir.Grid2DSystem) (*grid2d.System, error) {
	ring, err := grid2d.RingByName(s.Semiring)
	if err != nil {
		return nil, err
	}
	return &grid2d.System{
		Rows: s.Rows, Cols: s.Cols, Ring: ring,
		A: s.A, B: s.B, D: s.Diag, C: s.C,
		North: s.North, West: s.West, NW: s.NorthWest,
	}, nil
}

// runGrid2D is E21: the wavefront hot path on n×n edit-distance grids. Per
// size it measures the cold path (compile + one solve through the public
// facade), warm arena replays on a persistent gang — the irserved steady
// state — and two one-goroutine baselines: the plain loop (the same
// concrete kernel folding the whole grid as one tile, warm) and the
// generic sequential oracle. It checks three invariants: warm values
// bit-identical to cold and to the oracle, zero allocations per warm
// replay, and rounds = 2⌈n/B⌉-1 (one gang round per anti-diagonal of B×B
// tiles). Machine-readable GRID lines accompany the table so CI and the
// -gate perf gate (warm_ms per n) can parse results. A side table sweeps the
// three semiring kernels at one size against the oracle.
func runGrid2D(w io.Writer, opt Options) error {
	rng := rand.New(rand.NewSource(opt.seed()))
	coldReps, warmReps := 3, 8
	if opt.Quick {
		coldReps, warmReps = 2, 3
	}
	sizes := []int{256, 1024, 2048, 4096}
	if opt.Quick {
		sizes = []int{64, 256}
	}
	if opt.N > 0 {
		sizes = []int{opt.N}
	}

	g, err := opt.gate("GRID", "n", "warm_ms")
	if err != nil {
		return err
	}

	ctx := context.Background()
	tb := report.NewTable(
		fmt.Sprintf("edit-distance wavefront: cold vs warm tiled replay vs one-goroutine loop and oracle (procs=%d on %d CPUs, cold x%d, warm x%d, best-of)",
			gridProcs, runtime.NumCPU(), coldReps, warmReps),
		"grid", "cells", "cold ms", "warm ms", "loop ms", "oracle ms", "warm vs loop", "loop vs oracle", "rounds", "allocs/op", "identical")

	var machine []string
	for _, n := range sizes {
		sys := workload.EditDistance(randString(rng, n), randString(rng, n))

		var coldRes *ir.Grid2DResult
		coldMs, err := bestOf(coldReps, func() error {
			r, err := ir.SolveGrid2DCtx(ctx, sys, ir.SolveOptions{Procs: gridProcs})
			coldRes = r
			return err
		})
		if err != nil {
			return fmt.Errorf("grid2d n=%d: cold solve: %w", n, err)
		}

		gsys, err := internalGrid(sys)
		if err != nil {
			return err
		}
		gp, err := grid2d.Compile(ctx, gsys)
		if err != nil {
			return fmt.Errorf("grid2d n=%d: compile: %w", n, err)
		}
		arena := gp.NewArena()

		// Settle the heap after the cold solves, then run every warm replay
		// on one persistent gang, as a server worker would.
		runtime.GC()
		gang := parallel.NewGang(gridProcs)
		gctx := parallel.WithGang(ctx, gang)

		var warmRes *grid2d.Result
		warmMs, err := bestOf(warmReps, func() error {
			r, err := arena.SolveCtx(gctx, gsys, gridProcs)
			warmRes = r
			return err
		})
		if err != nil {
			gang.Close()
			return fmt.Errorf("grid2d n=%d: warm replay: %w", n, err)
		}
		identical := float64SlicesEqual(coldRes.Values, warmRes.Values)

		allocs := testing.AllocsPerRun(3, func() {
			if _, err := arena.SolveCtx(gctx, gsys, gridProcs); err != nil {
				panic(err)
			}
		})
		gang.Close()

		loop, err := grid2d.CompileLoop(gsys)
		if err != nil {
			return fmt.Errorf("grid2d n=%d: loop: %w", n, err)
		}
		loopArena := loop.NewArena()
		var loopRes *grid2d.Result
		loopMs, err := bestOf(warmReps, func() error {
			r, err := loopArena.SolveCtx(ctx, gsys, 1)
			loopRes = r
			return err
		})
		if err != nil {
			return fmt.Errorf("grid2d n=%d: loop: %w", n, err)
		}
		identical = identical && float64SlicesEqual(coldRes.Values, loopRes.Values)
		var oracle *grid2d.Result
		oracleMs, err := bestOf(coldReps, func() error {
			r, err := grid2d.SolveSequential(gsys)
			oracle = r
			return err
		})
		if err != nil {
			return fmt.Errorf("grid2d n=%d: oracle: %w", n, err)
		}
		identical = identical && float64SlicesEqual(coldRes.Values, oracle.Values)

		if !identical {
			return fmt.Errorf("grid2d n=%d: warm replay, loop and oracle diverged from the cold solve", n)
		}
		b := grid2d.TileSide(n, n)
		if want := 2*((n+b-1)/b) - 1; warmRes.Rounds != want {
			return fmt.Errorf("grid2d n=%d: %d rounds, want one per anti-diagonal of %dx%d tiles (%d)", n, warmRes.Rounds, b, b, want)
		}
		// Race instrumentation allocates inside the workers; the zero-alloc
		// contract is only gated in normal builds (the -race path is covered
		// by TestAllExperimentsRunQuick).
		if allocs != 0 && !parallel.RaceEnabled {
			return fmt.Errorf("grid2d n=%d: warm replay allocates (%.0f allocs/op), want 0", n, allocs)
		}
		warmMs, err = g.check(fmt.Sprintf("grid2d n=%d: warm replay", n), strconv.Itoa(n), warmMs, jitterFloorMs,
			func() (float64, error) {
				gang := parallel.NewGang(gridProcs)
				defer gang.Close()
				gctx := parallel.WithGang(ctx, gang)
				return bestOf(2*warmReps, func() error {
					_, err := arena.SolveCtx(gctx, gsys, gridProcs)
					return err
				})
			})
		if err != nil {
			return err
		}

		tb.AddRow(fmt.Sprintf("%dx%d", n, n), coldRes.Cells,
			fmt.Sprintf("%.3f", coldMs),
			fmt.Sprintf("%.3f", warmMs),
			fmt.Sprintf("%.3f", loopMs),
			fmt.Sprintf("%.3f", oracleMs),
			fmt.Sprintf("%.2fx", loopMs/warmMs),
			fmt.Sprintf("%.2fx", oracleMs/loopMs),
			warmRes.Rounds,
			fmt.Sprintf("%.0f", allocs), identical)
		machine = append(machine, fmt.Sprintf(
			"GRID n=%d cold_ms=%.3f warm_ms=%.3f rounds=%d allocs=%.0f identical=%v tile=%d loop_ms=%.3f oracle_ms=%.3f warm_vs_loop=%.2f loop_vs_oracle=%.2f procs=%d num_cpu=%d",
			n, coldMs, warmMs, warmRes.Rounds, allocs, identical, b, loopMs, oracleMs,
			loopMs/warmMs, oracleMs/loopMs, gridProcs, runtime.NumCPU()))
	}
	if err := g.done(); err != nil {
		return err
	}
	tb.Render(w)
	fmt.Fprintln(w)

	// Semiring kernel sweep at the smallest size: the same tile schedule
	// drives all three concrete kernels, each cross-checked against the
	// sequential oracle.
	{
		n := sizes[0]
		st := report.NewTable(fmt.Sprintf("semiring kernels on a random %dx%d grid (warm x%d)", n, n, warmReps),
			"semiring", "warm ms", "oracle ms", "identical")
		for _, ring := range []string{"affine", "minplus", "maxplus"} {
			sys := workload.RandomGrid2D(rng, n, n, ring, 15)
			gsys, err := internalGrid(sys)
			if err != nil {
				return err
			}
			gp, err := grid2d.Compile(ctx, gsys)
			if err != nil {
				return fmt.Errorf("grid2d %s sweep: %w", ring, err)
			}
			arena := gp.NewArena()
			gang := parallel.NewGang(gridProcs)
			gctx := parallel.WithGang(ctx, gang)
			var warmRes *grid2d.Result
			warmMs, err := bestOf(warmReps, func() error {
				r, err := arena.SolveCtx(gctx, gsys, gridProcs)
				warmRes = r
				return err
			})
			gang.Close()
			if err != nil {
				return fmt.Errorf("grid2d %s sweep: %w", ring, err)
			}
			var oracle *grid2d.Result
			oracleMs, err := bestOf(coldReps, func() error {
				r, err := grid2d.SolveSequential(gsys)
				oracle = r
				return err
			})
			if err != nil {
				return fmt.Errorf("grid2d %s oracle: %w", ring, err)
			}
			same := float64SlicesEqual(warmRes.Values, oracle.Values)
			if !same {
				return fmt.Errorf("grid2d %s sweep: parallel diverged from the sequential oracle", ring)
			}
			st.AddRow(ring, fmt.Sprintf("%.3f", warmMs), fmt.Sprintf("%.3f", oracleMs), same)
		}
		st.Render(w)
		fmt.Fprintln(w)
	}

	for _, line := range machine {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w, "\nEach anti-diagonal of BxB tiles is one gang round, so the wavefront replays")
	fmt.Fprintln(w, "in 2*ceil(n/B)-1 rounds from a warm arena with zero allocations, bit-identical")
	fmt.Fprintln(w, "to the cold solve, the one-tile loop and the sequential row-major oracle.")
	return nil
}
