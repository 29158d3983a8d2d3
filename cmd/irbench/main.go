// Command irbench regenerates the paper's evaluation artifacts (DESIGN.md's
// experiment index). Run a single experiment by id, or everything:
//
//	irbench -exp fig3                 # the headline performance figure
//	irbench -exp livermore            # the §1 classification table
//	irbench -exp all                  # every experiment
//	irbench -list                     # available experiments
//	irbench -exp fig3 -n 10000 -procs 1,16,256
//	irbench -exp all -quick           # small sizes for smoke runs
//	irbench -exp all -quick -json     # one JSON object per experiment
//	irbench -cluster localhost:8070   # local vs distributed throughput
//	irbench -session -json            # E19 streaming-session amortization
//	irbench -exp hotpath -gate BENCH_hotpath.json   # fail on a >10% regression
//
// -gate arms the perf gate of hotpath, blockedscan, grid2d and sparse: the
// run fails when a measured row is more than 10% slower than the same row
// of the given irbench -json artifact (CI passes the checked-in BENCH_*.json).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"indexedrec/internal/experiments"
)

// result is the -json record emitted per experiment (JSON lines on stdout),
// so bench runs are scrapeable alongside irserved's /metrics.
type result struct {
	ID        string  `json:"id"`
	Title     string  `json:"title"`
	OK        bool    `json:"ok"`
	Error     string  `json:"error,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Output    string  `json:"output"`
}

func main() {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "irbench: internal error: %v\n", r)
			os.Exit(1)
		}
	}()
	var (
		exp     = flag.String("exp", "", "experiment id (or \"all\")")
		list    = flag.Bool("list", false, "list available experiments")
		n       = flag.Int("n", 0, "instance size override (0 = experiment default)")
		procs   = flag.String("procs", "", "comma-separated processor sweep override")
		seed    = flag.Int64("seed", 0, "generator seed override")
		quick   = flag.Bool("quick", false, "shrink sizes for a fast smoke run")
		timeout = flag.Duration("timeout", 0, "abort the run after this duration (0 = none)")
		asJSON  = flag.Bool("json", false, "emit one JSON object per experiment instead of text")
		cluster = flag.String("cluster", "", "benchmark an ircluster coordinator at host:port against local solves")
		session = flag.Bool("session", false, "run the streaming-session benchmark (shorthand for -exp session)")
		gate    = flag.String("gate", "", "fail hotpath, blockedscan, grid2d or sparse on a >10% regression against this irbench -json baseline")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	if *session {
		*exp = "session"
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "irbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "irbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "irbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "irbench: -memprofile: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *cluster != "" {
		if err := runClusterBench(ctx, *cluster, *n, *quick, *asJSON); err != nil {
			fmt.Fprintf(os.Stderr, "irbench: cluster: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-14s %s\n", e.ID, e.Title)
			if e.Desc != "" {
				fmt.Printf("  %-14s   %s\n", "", e.Desc)
			}
		}
		if *exp == "" && !*list {
			fmt.Println("\nusage: irbench -exp <id>|all [-n N] [-procs 1,2,4] [-quick]")
			os.Exit(2)
		}
		return
	}

	// Catch -exp typos up front with the full menu — the -json path would
	// otherwise bury the unknown id inside a record, and the text path
	// would only name it after the header.
	if *exp != "all" {
		if _, ok := experiments.Get(*exp); !ok {
			var ids []string
			for _, e := range experiments.All() {
				ids = append(ids, e.ID)
			}
			fmt.Fprintf(os.Stderr, "irbench: unknown experiment %q (run irbench -list; available: %s)\n",
				*exp, strings.Join(ids, ", "))
			os.Exit(2)
		}
	}

	opt := experiments.Options{N: *n, Seed: *seed, Quick: *quick, Baseline: *gate}
	if *procs != "" {
		for _, tok := range strings.Split(*procs, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || p < 1 {
				fmt.Fprintf(os.Stderr, "irbench: bad -procs entry %q\n", tok)
				os.Exit(2)
			}
			opt.Procs = append(opt.Procs, p)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	run := func(id string) {
		if *asJSON {
			e, _ := experiments.Get(id) // unknown ids still fail inside RunCtx
			var buf bytes.Buffer
			start := time.Now()
			err := experiments.RunCtx(ctx, id, &buf, opt)
			rec := result{
				ID:        id,
				Title:     e.Title,
				OK:        err == nil,
				ElapsedMs: float64(time.Since(start).Microseconds()) / 1000,
				Output:    buf.String(),
			}
			if err != nil {
				rec.Error = err.Error()
			}
			if encErr := enc.Encode(rec); encErr != nil {
				fmt.Fprintf(os.Stderr, "irbench: %v\n", encErr)
				os.Exit(1)
			}
			if err != nil {
				os.Exit(1)
			}
			return
		}
		if err := experiments.RunCtx(ctx, id, os.Stdout, opt); err != nil {
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				fmt.Fprintf(os.Stderr, "irbench: %s: timed out after %v\n", id, *timeout)
			case errors.Is(err, context.Canceled):
				fmt.Fprintf(os.Stderr, "irbench: %s: interrupted\n", id)
			default:
				fmt.Fprintf(os.Stderr, "irbench: %s: %v\n", id, err)
			}
			os.Exit(1)
		}
		fmt.Println()
	}
	if *exp == "all" {
		for _, e := range experiments.All() {
			run(e.ID)
		}
		return
	}
	run(*exp)
}
