package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"indexedrec/internal/ordinary"
	"indexedrec/internal/parallel"
	"indexedrec/internal/report"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

func init() {
	registerGated("blockedscan", "E20 — work-optimal blocked scan: O(n) combines and n/P + log P depth vs pointer jumping on long write chains",
		"benchmarks the blocked-scan schedule against pointer jumping on chains", runBlockedScan)
}

// scanProcs is the simulated processor count, fixed (like hotpathProcs) so
// the artifact is comparable across machines.
const scanProcs = 8

// warmJumpCap bounds the sizes for which a pointer-jumping *plan* is
// compiled for the warm comparison: a recorded jumping schedule stores every
// round's gather list (O(n log n) int32s), which at n = 10^7 is gigabytes.
// Beyond the cap the cold direct solve is the only jumping reference.
const warmJumpCap = 1 << 18

// runBlockedScan is E20: the work-optimality ablation on the blocked-scan
// ordinary schedule. On one length-n write chain — pointer jumping's worst
// case, ⌈log₂ n⌉ rounds of n combines each — it measures the cold direct
// jumping solve, the warm jumping plan replay (small n only, see
// warmJumpCap), and the warm blocked replay, and reports both schedules'
// exact combine counts. Blocked work stays ~2n while jumping grows as
// n·log n, so the gap widens with n; allocations per warm blocked replay
// must be zero, the values bit-identical to jumping (IntAdd is exactly
// associative) and the blocked combine count below jumping's.
// Machine-readable SCAN lines accompany the tables so CI and the -gate perf
// gate (warm_blocked_ms per n) can parse results. Two side tables show
// the P-sweep at fixed n and the schedule-selection heuristic across chain
// shapes. With the simulated-P harness on few physical cores the headline
// is the work ratio, not wall-clock scaling.
func runBlockedScan(w io.Writer, opt Options) error {
	rng := rand.New(rand.NewSource(opt.seed()))
	coldReps, warmReps := 3, 8
	if opt.Quick {
		coldReps, warmReps = 2, 3
	}
	sizes := []int{10_000, 100_000, 1_000_000, 10_000_000}
	if opt.Quick {
		sizes = []int{1 << 12, 1 << 14}
	}
	if opt.N > 0 {
		sizes = []int{opt.N}
	}

	g, err := opt.gate("SCAN", "n", "warm_blocked_ms")
	if err != nil {
		return err
	}

	ctx := context.Background()
	sopt := ordinary.Options{Procs: scanProcs}

	tb := report.NewTable(
		fmt.Sprintf("blocked scan vs pointer jumping on Chain(n) (procs=%d, cold x%d, warm x%d, best-of)",
			scanProcs, coldReps, warmReps),
		"n", "cold jump ms", "warm jump ms", "warm blocked ms", "speedup",
		"jump combines", "blocked combines", "work ratio", "allocs/op", "identical")

	var machine []string
	for _, n := range sizes {
		s := workload.Chain(n)
		init := workload.InitInt64(rng, s.M, 1<<20)

		var coldRes *ordinary.Result[int64]
		coldMs, err := bestOf(coldReps, func() error {
			r, err := ordinary.SolveCtx[int64](ctx, s, ir.IntAdd{}, init, sopt)
			coldRes = r
			return err
		})
		if err != nil {
			return fmt.Errorf("blockedscan n=%d: cold jumping solve: %w", n, err)
		}

		bp, err := ordinary.CompilePlan(ctx, s)
		if err != nil {
			return fmt.Errorf("blockedscan n=%d: compile: %w", n, err)
		}
		if got := bp.Schedule(); got != "blocked-scan" {
			return fmt.Errorf("blockedscan n=%d: auto selection picked %q, want blocked-scan", n, got)
		}
		arena := ordinary.NewArena[int64](bp)

		var jp *ordinary.Plan
		var jarena *ordinary.Arena[int64]
		if n <= warmJumpCap {
			jp, err = ordinary.CompilePlanOpts(ctx, s, ordinary.PlanOptions{Schedule: ordinary.ScheduleJumping})
			if err != nil {
				return fmt.Errorf("blockedscan n=%d: compile jumping: %w", n, err)
			}
			jarena = ordinary.NewArena[int64](jp)
		}

		// Settle the heap after the cold solves, then run every warm replay
		// on one persistent gang, as a server worker would.
		runtime.GC()
		gang := parallel.NewGang(scanProcs)
		gctx := parallel.WithGang(ctx, gang)

		var warmRes *ordinary.Result[int64]
		warmMs, err := bestOf(warmReps, func() error {
			r, err := arena.SolveCtx(gctx, ir.IntAdd{}, init, sopt)
			warmRes = r
			return err
		})
		if err != nil {
			gang.Close()
			return fmt.Errorf("blockedscan n=%d: warm blocked replay: %w", n, err)
		}
		identical := int64SlicesEqual(coldRes.Values, warmRes.Values)
		blockedCombines := warmRes.Combines

		warmJumpMs := -1.0
		if jarena != nil {
			warmJumpMs, err = bestOf(warmReps, func() error {
				_, err := jarena.SolveCtx(gctx, ir.IntAdd{}, init, sopt)
				return err
			})
			if err != nil {
				gang.Close()
				return fmt.Errorf("blockedscan n=%d: warm jumping replay: %w", n, err)
			}
		}

		allocs := testing.AllocsPerRun(3, func() {
			if _, err := arena.SolveCtx(gctx, ir.IntAdd{}, init, sopt); err != nil {
				panic(err)
			}
		})
		gang.Close()

		if !identical {
			return fmt.Errorf("blockedscan n=%d: blocked replay diverged from the jumping solve", n)
		}
		// The race detector's instrumentation allocates inside the workers;
		// the zero-alloc contract only holds (and is only gated) in normal
		// builds. TestAllExperimentsRunQuick runs this under -race.
		if allocs != 0 && !parallel.RaceEnabled {
			return fmt.Errorf("blockedscan n=%d: warm blocked replay allocates (%.0f allocs/op), want 0", n, allocs)
		}
		// Work optimality: blocked must do strictly less combine work than
		// jumping on every measured chain length.
		if blockedCombines >= coldRes.Combines {
			return fmt.Errorf("blockedscan n=%d: blocked replay did %d combines, want fewer than jumping's %d",
				n, blockedCombines, coldRes.Combines)
		}
		warmMs, err = g.check(fmt.Sprintf("blockedscan n=%d: warm blocked replay", n), strconv.Itoa(n), warmMs, jitterFloorMs,
			func() (float64, error) {
				gang := parallel.NewGang(scanProcs)
				defer gang.Close()
				gctx := parallel.WithGang(ctx, gang)
				return bestOf(2*warmReps, func() error {
					_, err := arena.SolveCtx(gctx, ir.IntAdd{}, init, sopt)
					return err
				})
			})
		if err != nil {
			return err
		}

		warmJumpCell := "-"
		speedRef := coldMs
		if warmJumpMs >= 0 {
			warmJumpCell = fmt.Sprintf("%.3f", warmJumpMs)
			speedRef = warmJumpMs
		}
		tb.AddRow(n,
			fmt.Sprintf("%.3f", coldMs),
			warmJumpCell,
			fmt.Sprintf("%.3f", warmMs),
			fmt.Sprintf("%.2fx", speedRef/warmMs),
			coldRes.Combines, blockedCombines,
			fmt.Sprintf("%.2fx", float64(coldRes.Combines)/float64(blockedCombines)),
			fmt.Sprintf("%.0f", allocs), identical)
		machine = append(machine, fmt.Sprintf(
			"SCAN n=%d cold_jump_ms=%.3f warm_jump_ms=%.3f warm_blocked_ms=%.3f jump_combines=%d blocked_combines=%d allocs=%.0f identical=%v",
			n, coldMs, warmJumpMs, warmMs, coldRes.Combines, blockedCombines, allocs, identical))
	}
	if err := g.done(); err != nil {
		return err
	}
	tb.Render(w)
	fmt.Fprintln(w)

	// P-sweep at the largest size: the n/P reduce/apply phases dominate, so
	// simulated-P mostly redistributes the same O(n) work (true scaling
	// needs physical cores; the combine counts above are the invariant).
	nSweep := sizes[len(sizes)-1]
	{
		s := workload.Chain(nSweep)
		init := workload.InitInt64(rng, s.M, 1<<20)
		p, err := ordinary.CompilePlan(ctx, s)
		if err != nil {
			return err
		}
		arena := ordinary.NewArena[int64](p)
		pt := report.NewTable(fmt.Sprintf("warm blocked replay vs simulated P (n=%d)", nSweep),
			"procs", "warm ms")
		for _, procs := range []int{1, 2, 4, 8} {
			gang := parallel.NewGang(procs)
			gctx := parallel.WithGang(ctx, gang)
			ms, err := bestOf(warmReps, func() error {
				_, err := arena.SolveCtx(gctx, ir.IntAdd{}, init, ordinary.Options{Procs: procs})
				return err
			})
			gang.Close()
			if err != nil {
				return fmt.Errorf("blockedscan procs=%d: %w", procs, err)
			}
			pt.AddRow(procs, fmt.Sprintf("%.3f", ms))
		}
		pt.Render(w)
		fmt.Fprintln(w)
	}

	// Schedule selection across forest shapes: k chains of length n/k. The
	// heuristic takes blocked only when the longest chain reaches the
	// segment length (256); shorter chains finish in few jumping rounds
	// anyway, so the blocked bookkeeping would be pure overhead there.
	{
		ks := []int{1, 256, 65536}
		if opt.Quick {
			ks = []int{1, 4, 256}
		}
		st := report.NewTable(fmt.Sprintf("schedule selection on Chains(n=%d, k)", nSweep),
			"chains k", "chain length", "schedule")
		for _, k := range ks {
			s := workload.Chains(nSweep, k)
			p, err := ordinary.CompilePlan(ctx, s)
			if err != nil {
				return fmt.Errorf("blockedscan chains k=%d: %w", k, err)
			}
			st.AddRow(k, nSweep/k, p.Schedule())
		}
		st.Render(w)
		fmt.Fprintln(w)
	}

	for _, line := range machine {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w, "\nBlocked combine counts stay ~2n while jumping's grow as n·log n, so the")
	fmt.Fprintln(w, "work ratio — and with it the cold-vs-warm gap — widens with n. Warm")
	fmt.Fprintln(w, "blocked replays allocate nothing and are bit-identical to jumping.")
	return nil
}
