// Command irsolve is the paper's use case in miniature: it reads a
// sequential loop, classifies its recurrence form without data-dependence
// analysis, and executes it with the matching parallel algorithm.
//
//	irsolve -loop 'for i = 1 to n do X[i] := X[i-1] + X[i]' -n 10 -array X=1,2,3,4,5,6,7,8,9,10,11
//	irsolve -file loop.ir -n 100 -array X=zero:101 -array Y=ramp:101
//	irsolve -loop '...' -analyze            # classification only
//
// Array specs: NAME=v1,v2,...  |  NAME=zero:LEN  |  NAME=ramp:LEN  |
// NAME=ones:LEN. Scalars: -scalar q=0.5 (repeatable). The loop bound
// variable n is bound automatically from -n.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"indexedrec/internal/lang"
	"indexedrec/ir"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ";") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	// Last-resort guard: any failure path a specific check misses still
	// exits non-zero with a one-line message instead of a crash dump.
	defer func() {
		if r := recover(); r != nil {
			fail("internal error: %v", r)
		}
	}()
	var (
		loopSrc = flag.String("loop", "", "loop source text")
		file    = flag.String("file", "", "file containing the loop source")
		n       = flag.Int("n", 10, "value bound to the scalar n")
		analyze = flag.Bool("analyze", false, "classify only, do not execute")
		procs   = flag.Int("procs", 0, "goroutines (0 = GOMAXPROCS)")
		timeout = flag.Duration("timeout", 0, "abort the solve after this duration (0 = none)")
		arrays  multiFlag
		scalars multiFlag
	)
	flag.Var(&arrays, "array", "array binding NAME=spec (repeatable)")
	flag.Var(&scalars, "scalar", "scalar binding NAME=value (repeatable)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	src := *loopSrc
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fail("read -file: %v", err)
		}
		src = string(data)
	}
	if src == "" {
		flag.Usage()
		os.Exit(2)
	}

	loop, err := lang.Parse(src)
	if err != nil {
		fail("parse: %v", err)
	}
	c := ir.CompileLoop(loop)
	fmt.Printf("loop:     %s\n", loop)
	fmt.Printf("analysis: %s\n", c.Analysis.Describe())
	fmt.Printf("bucket:   %s\n", c.Analysis.Bucket)
	fmt.Printf("strategy: %s\n", c.Strategy())
	if *analyze {
		return
	}

	env := lang.NewEnv()
	env.Scalars["n"] = float64(*n)
	for _, s := range scalars {
		name, val, ok := strings.Cut(s, "=")
		if !ok {
			fail("bad -scalar %q", s)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			fail("bad -scalar %q: %v", s, err)
		}
		env.Scalars[name] = v
	}
	for _, a := range arrays {
		name, spec, ok := strings.Cut(a, "=")
		if !ok {
			fail("bad -array %q", a)
		}
		vals, err := parseArray(spec)
		if err != nil {
			fail("bad -array %q: %v", a, err)
		}
		env.Arrays[name] = vals
	}

	seq := env.Clone()
	if err := lang.Run(loop, seq); err != nil {
		fail("sequential run: %v", err)
	}
	if err := c.ExecuteCtx(ctx, env, *procs); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fail("timed out after %v", *timeout)
		}
		if errors.Is(err, context.Canceled) {
			fail("interrupted")
		}
		fail("parallel execute: %v", err)
	}

	arr := c.Analysis.Array
	if arr == "" {
		arr = loop.TargetArray()
	}
	fmt.Printf("\n%s (parallel):   %v\n", arr, trim(env.Arrays[arr]))
	fmt.Printf("%s (sequential): %v\n", arr, trim(seq.Arrays[arr]))
	maxErr := 0.0
	for i, wv := range seq.Arrays[arr] {
		d := env.Arrays[arr][i] - wv
		if d < 0 {
			d = -d
		}
		if d > maxErr {
			maxErr = d
		}
	}
	fmt.Printf("max abs difference: %g\n", maxErr)
}

func parseArray(spec string) ([]float64, error) {
	if kind, lenStr, ok := strings.Cut(spec, ":"); ok {
		l, err := strconv.Atoi(lenStr)
		if err != nil || l < 0 {
			return nil, fmt.Errorf("bad length %q", lenStr)
		}
		v := make([]float64, l)
		switch kind {
		case "zero":
		case "ones":
			for i := range v {
				v[i] = 1
			}
		case "ramp":
			for i := range v {
				v[i] = float64(i + 1)
			}
		default:
			return nil, fmt.Errorf("unknown generator %q (zero|ones|ramp)", kind)
		}
		return v, nil
	}
	parts := strings.Split(spec, ",")
	v := make([]float64, len(parts))
	for i, p := range parts {
		x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		v[i] = x
	}
	return v, nil
}

func trim(v []float64) []float64 {
	if len(v) > 16 {
		return v[:16]
	}
	return v
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "irsolve: "+format+"\n", args...)
	os.Exit(1)
}
