package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"

	"indexedrec/internal/report"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

func init() {
	register("sparse", "E22 — compressed sparse systems: solve cost, memory, and wire size scale with touched cells, not the global array",
		"benchmarks the sparse encoding against dense expansion as the untouched fraction grows", runSparse)
}

// sparseProcs is the simulated processor count, fixed like scanProcs so the
// artifact is comparable across machines.
const sparseProcs = 8

// densePayloadCap bounds the global sizes for which the dense request body
// is actually marshalled for the payload comparison: a 10M-cell init array
// is ~100 MB of JSON, which would dominate the benchmark's own footprint.
// Beyond the cap the dense payload column reports "-" (machine line -1).
const densePayloadCap = 2_000_000

// runSparse is E22: the sparse-encoding ablation. At fixed touched count n
// and growing global size m (m/n = 10, 100, 1000) it solves the same banded
// recurrence three ways — dense expansion (init, solve, and memory all O(m)),
// cold compact sparse (compile + solve, O(n)), and a warm sparse-plan replay —
// and measures wall clock, bytes allocated per cold solve, compiled plan
// sizes, and the JSON payload a /v1/solve request would carry in each
// encoding. Values must be bit-identical between the dense and compact
// routes (the compact relabeling is order-preserving; DESIGN §16), and in
// full-size runs the compact route must be >= 5x faster and allocate >= 10x
// less at m/n >= 100. SPARSE machine lines accompany the table so CI and the
// -gate perf gate (sparse_cold_ms per m/n) can parse results. The headline:
// every dense column grows with m while every sparse column stays flat at n.
func runSparse(w io.Writer, opt Options) error {
	rng := rand.New(rand.NewSource(opt.seed()))
	coldReps, warmReps := 3, 8
	n := 10_000
	ratios := []int{10, 100, 1000}
	if opt.Quick {
		coldReps, warmReps = 2, 3
		n = 2_000
		ratios = []int{10, 100}
	}
	if opt.N > 0 {
		n = opt.N
	}
	const bands = 8

	g, err := opt.gate("SPARSE", "mn", "sparse_cold_ms")
	if err != nil {
		return err
	}

	ctx := context.Background()
	sopt := ir.SolveOptions{Procs: sparseProcs}

	tb := report.NewTable(
		fmt.Sprintf("sparse vs dense on banded systems (touched n=%d, %d bands, procs=%d, cold x%d, warm x%d, best-of)",
			n, bands, sparseProcs, coldReps, warmReps),
		"m/n", "global m", "dense cold ms", "sparse cold ms", "speedup", "warm sparse ms",
		"dense alloc MB", "sparse alloc MB", "mem ratio", "dense wire KB", "sparse wire KB", "identical")

	var machine []string
	for _, ratio := range ratios {
		m := ratio * n
		sp := workload.SparseBanded(m, n, bands)
		init := workload.InitInt64(rng, sp.NumCells(), 1<<20)

		// Dense route: expand init over the full array, solve the dense
		// system. The expansion is part of the measured cost — it is exactly
		// the O(m) work the sparse encoding deletes.
		dense := sp.Dense()
		var denseVals []int64
		denseBytes, denseMs, err := allocMeasured(coldReps, func() error {
			full := make([]int64, sp.M)
			for i, c := range sp.Cells {
				full[c] = init[i]
			}
			res, err := ir.SolveOrdinaryCtx[int64](ctx, dense, ir.IntAdd{}, full, sopt)
			if err != nil {
				return err
			}
			denseVals = res.Values
			return nil
		})
		if err != nil {
			return fmt.Errorf("sparse m/n=%d: dense solve: %w", ratio, err)
		}

		// Sparse route, cold: compile the compact plan and solve, both O(n).
		var sparseVals []int64
		var plan *ir.Plan
		coldSparse := func() error {
			p, err := ir.CompileSparseCtx(ctx, sp, ir.CompileOptions{Family: ir.FamilyOrdinary})
			if err != nil {
				return err
			}
			plan = p
			res, err := ir.SolveOrdinaryPlanCtx[int64](ctx, p, ir.IntAdd{}, init, sopt)
			if err != nil {
				return err
			}
			sparseVals = res.Values
			return nil
		}
		sparseBytes, sparseMs, err := allocMeasured(coldReps, coldSparse)
		if err != nil {
			return fmt.Errorf("sparse m/n=%d: cold sparse solve: %w", ratio, err)
		}

		// Bit-identity across the encodings: compact value i is global cell
		// Cells[i] of the dense solution.
		identical := true
		for i, c := range sp.Cells {
			if sparseVals[i] != denseVals[c] {
				identical = false
				break
			}
		}
		if !identical {
			return fmt.Errorf("sparse m/n=%d: compact solve diverged from the dense expansion", ratio)
		}

		warmMs, err := bestOf(warmReps, func() error {
			_, err := ir.SolveOrdinaryPlanCtx[int64](ctx, plan, ir.IntAdd{}, init, sopt)
			return err
		})
		if err != nil {
			return fmt.Errorf("sparse m/n=%d: warm sparse replay: %w", ratio, err)
		}

		sparseMs, err = g.check(fmt.Sprintf("sparse m/n=%d: cold sparse solve", ratio), strconv.Itoa(ratio), sparseMs, jitterFloorMs,
			func() (float64, error) {
				_, ms, err := allocMeasured(2*coldReps, coldSparse)
				return ms, err
			})
		if err != nil {
			return err
		}
		// At 99%+ sparsity the untouched fraction must turn into real
		// savings. Quick and -n runs are too small for fixed costs not to
		// blur the ratios, so only full-size runs hold them.
		if !opt.Quick && opt.N == 0 && ratio >= 100 {
			if speed := denseMs / sparseMs; speed < 5 {
				return fmt.Errorf("sparse m/n=%d: cold sparse solve %.2fx faster than dense, want >= 5x", ratio, speed)
			}
			if mem := float64(denseBytes) / float64(sparseBytes); mem < 10 {
				return fmt.Errorf("sparse m/n=%d: cold sparse solve allocates %.1fx less than dense, want >= 10x", ratio, mem)
			}
		}

		// Wire payloads: what a /v1/solve/ordinary request body weighs in
		// each encoding. The sparse body is O(n) however large m grows.
		sparsePayload := payloadBytes(ir.WireFromSparse(sp), init)
		densePayload := int64(-1)
		if m <= densePayloadCap {
			full := make([]int64, sp.M)
			for i, c := range sp.Cells {
				full[c] = init[i]
			}
			densePayload = payloadBytes(ir.WireFromSystem(dense), full)
		}

		denseWireCell := "-"
		if densePayload >= 0 {
			denseWireCell = fmt.Sprintf("%.1f", float64(densePayload)/1024)
		}
		tb.AddRow(ratio, m,
			fmt.Sprintf("%.3f", denseMs),
			fmt.Sprintf("%.3f", sparseMs),
			fmt.Sprintf("%.2fx", denseMs/sparseMs),
			fmt.Sprintf("%.3f", warmMs),
			fmt.Sprintf("%.1f", float64(denseBytes)/(1<<20)),
			fmt.Sprintf("%.1f", float64(sparseBytes)/(1<<20)),
			fmt.Sprintf("%.1fx", float64(denseBytes)/float64(sparseBytes)),
			denseWireCell,
			fmt.Sprintf("%.1f", float64(sparsePayload)/1024),
			identical)
		machine = append(machine, fmt.Sprintf(
			"SPARSE mn=%d m=%d n=%d dense_cold_ms=%.3f sparse_cold_ms=%.3f warm_sparse_ms=%.3f dense_alloc_bytes=%d sparse_alloc_bytes=%d dense_payload=%d sparse_payload=%d identical=%v",
			ratio, m, n, denseMs, sparseMs, warmMs, denseBytes, sparseBytes, densePayload, sparsePayload, identical))
	}
	if err := g.done(); err != nil {
		return err
	}
	tb.Render(w)
	fmt.Fprintln(w)

	// Plan-size comparison at the largest ratio: the compiled artifact is the
	// resident cost a plan cache pays per cached shape.
	{
		ratio := ratios[len(ratios)-1]
		sp := workload.SparseBanded(ratio*n, n, bands)
		pSparse, err := ir.CompileSparseCtx(ctx, sp, ir.CompileOptions{Family: ir.FamilyOrdinary})
		if err != nil {
			return err
		}
		pDense, err := ir.CompileCtx(ctx, sp.Dense(), ir.CompileOptions{Family: ir.FamilyOrdinary})
		if err != nil {
			return err
		}
		pt := report.NewTable(fmt.Sprintf("compiled plan size (m/n=%d, m=%d)", ratio, ratio*n),
			"plan", "size MB", "schedule")
		pt.AddRow("dense", fmt.Sprintf("%.2f", float64(pDense.SizeBytes())/(1<<20)), pDense.Schedule())
		pt.AddRow("sparse", fmt.Sprintf("%.2f", float64(pSparse.SizeBytes())/(1<<20)), pSparse.Schedule())
		pt.Render(w)
		fmt.Fprintln(w)
		machine = append(machine, fmt.Sprintf("SPARSEPLAN mn=%d dense_plan_bytes=%d sparse_plan_bytes=%d",
			ratio, pDense.SizeBytes(), pSparse.SizeBytes()))
	}

	for _, line := range machine {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w, "\nDense cost, memory, and payload all grow linearly with the global array")
	fmt.Fprintln(w, "while the sparse columns stay flat at the touched count, so the gap is")
	fmt.Fprintln(w, "the m/n ratio itself. Values are bit-identical across the encodings.")
	return nil
}

// allocMeasured runs fn reps times, returning the bytes allocated during the
// first run (after a settling GC) and the best wall-clock milliseconds.
func allocMeasured(reps int, fn func() error) (int64, float64, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ms, err := bestOf(1, fn)
	if err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&after)
	bytes := int64(after.TotalAlloc - before.TotalAlloc)
	for k := 1; k < reps; k++ {
		more, err := bestOf(1, fn)
		if err != nil {
			return 0, 0, err
		}
		if more < ms {
			ms = more
		}
	}
	return bytes, ms, nil
}

// payloadBytes sizes the JSON body of an ordinary solve request carrying the
// given wire system and init array.
func payloadBytes(sys ir.SystemWire, init []int64) int64 {
	body, err := json.Marshal(map[string]any{"system": sys, "op": "int64-add", "init": init})
	if err != nil {
		return -1
	}
	return int64(len(body))
}
