package experiments

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"

	"indexedrec/internal/report"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

func init() {
	register("sparse", "E22 — compressed sparse systems: solve cost, memory, and wire size scale with touched cells, not the global array",
		"benchmarks the sparse encoding against dense expansion as the untouched fraction grows", runSparse)
}

// SparseBaselineEnv names the environment variable pointing at a checked-in
// BENCH_sparse.json; when set, runSparse fails if any ratio's cold sparse
// solve regressed more than baselineSlack versus that baseline (the CI perf
// gate for the sparse hot path).
const SparseBaselineEnv = "IRBENCH_SPARSE_BASELINE"

// sparseProcs is the simulated processor count, fixed like scanProcs so the
// artifact is comparable across machines.
const sparseProcs = 8

// sparseGateFloorMs exempts ratios whose baseline cold sparse solve is under
// this many milliseconds from the regression gate (sub-millisecond runs
// jitter too much to gate; the larger ratios are where a regression in the
// compact path would show anyway).
const sparseGateFloorMs = 1.0

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
// routes (the compact relabeling is order-preserving; DESIGN §16). SPARSE
// machine lines accompany the table so CI and the IRBENCH_SPARSE_BASELINE
// gate can parse results. The headline: every dense column grows with m
// while every sparse column stays flat at n.
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

	base, err := loadSparseBaseline(os.Getenv(SparseBaselineEnv))
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
		sparseBytes, sparseMs, err := allocMeasured(coldReps, func() error {
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
		})
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

		if prior, ok := base[ratio]; ok && prior >= sparseGateFloorMs && sparseMs > prior*baselineSlack {
			// One re-measurement with more reps before failing: a scheduler
			// hiccup during the first best-of window must not fail CI, a
			// real code regression will reproduce here.
			_, retryMs, rerr := allocMeasured(2*coldReps, func() error {
				p, err := ir.CompileSparseCtx(ctx, sp, ir.CompileOptions{Family: ir.FamilyOrdinary})
				if err != nil {
					return err
				}
				_, err = ir.SolveOrdinaryPlanCtx[int64](ctx, p, ir.IntAdd{}, init, sopt)
				return err
			})
			if rerr != nil {
				return fmt.Errorf("sparse m/n=%d: cold sparse solve: %w", ratio, rerr)
			}
			if retryMs < sparseMs {
				sparseMs = retryMs
			}
			if sparseMs > prior*baselineSlack {
				return fmt.Errorf("sparse m/n=%d: cold sparse solve %.3f ms regressed >%.0f%% vs baseline %.3f ms",
					ratio, sparseMs, (baselineSlack-1)*100, prior)
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

// loadSparseBaseline parses a BENCH_sparse.json artifact (irbench -json
// lines) into m/n ratio -> cold sparse ms, reading the SPARSE machine lines
// embedded in each record's output. An empty path means no baseline.
func loadSparseBaseline(path string) (map[int]float64, error) {
	out := map[int]float64{}
	if path == "" {
		return out, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sparse baseline: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		for _, line := range strings.Split(sc.Text(), `\n`) {
			idx := strings.Index(line, "SPARSE ")
			if idx < 0 {
				continue
			}
			var ratio, m, n int
			var denseMs, sparseMs, warmMs float64
			var denseBytes, sparseBytes, densePayload, sparsePayload int64
			var identical bool
			if _, err := fmt.Sscanf(line[idx:],
				"SPARSE mn=%d m=%d n=%d dense_cold_ms=%f sparse_cold_ms=%f warm_sparse_ms=%f dense_alloc_bytes=%d sparse_alloc_bytes=%d dense_payload=%d sparse_payload=%d identical=%t",
				&ratio, &m, &n, &denseMs, &sparseMs, &warmMs, &denseBytes, &sparseBytes, &densePayload, &sparsePayload, &identical); err != nil {
				continue
			}
			out[ratio] = sparseMs
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sparse baseline: %w", err)
	}
	return out, nil
}
