// Package experiments regenerates every table and figure of the paper's
// evaluation (the experiment index of DESIGN.md): the worked-example
// figures 1–9, the Livermore classification study, the Fig. 3 performance
// plot on the SimParC reconstruction, the T(n,P) = (n/P)·log n scaling law,
// and the ablations. cmd/irbench is a thin CLI over this package; the
// top-level benchmarks reuse the same entry points.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"indexedrec/internal/parallel"
)

// Options tune an experiment run; zero values select the paper's defaults.
type Options struct {
	// N is the instance size (default per experiment; Fig. 3 uses the
	// paper's n = 50,000).
	N int
	// Procs is the processor sweep (default 1..1024 in powers of two).
	Procs []int
	// Seed drives the deterministic generators.
	Seed int64
	// Quick shrinks sizes for fast CI runs.
	Quick bool
	// Baseline, when set, names a checked-in irbench -json artifact the
	// gated experiments (hotpath, blockedscan, grid2d, sparse) fail
	// against on a >10% regression (irbench -gate; see baseline.go).
	Baseline string
}

func (o Options) n(def int) int {
	if o.N > 0 {
		return o.N
	}
	if o.Quick && def > 4096 {
		return 4096
	}
	return def
}

func (o Options) procs() []int {
	if len(o.Procs) > 0 {
		return o.Procs
	}
	ps := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	if o.Quick {
		return ps[:6]
	}
	return ps
}

func (o Options) seed() int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1997 // the paper's year; any fixed value works
}

// Experiment is a runnable reproduction of one paper artifact.
type Experiment struct {
	ID    string
	Title string
	// Desc is a one-line plain-language description of what the
	// experiment measures and what a healthy run shows (irbench -list).
	Desc string
	Run  func(w io.Writer, opt Options) error
	// Gated marks the experiments with a perf gate: only they read
	// Options.Baseline (irbench -gate).
	Gated bool
}

var registry = map[string]Experiment{}

func register(id, title, desc string, run func(w io.Writer, opt Options) error) {
	registry[id] = Experiment{ID: id, Title: title, Desc: desc, Run: run}
}

// registerGated registers an experiment that gates on Options.Baseline.
func registerGated(id, title, desc string, run func(w io.Writer, opt Options) error) {
	registry[id] = Experiment{ID: id, Title: title, Desc: desc, Run: run, Gated: true}
}

// All returns the experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get looks an experiment up by ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Run executes the experiment with the given ID.
func Run(id string, w io.Writer, opt Options) error {
	e, ok := registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (try: %v)", id, ids())
	}
	fmt.Fprintf(w, "### %s — %s\n\n", e.ID, e.Title)
	return e.Run(w, opt)
}

// RunCtx is Run bounded by ctx: the experiment body runs in its own
// goroutine (recovering panics into errors) and RunCtx returns ctx.Err() as
// soon as the context is done, without waiting for the body. Callers that
// exit on error (the CLI) tolerate the abandoned goroutine; callers that
// must not leak should use Run.
func RunCtx(ctx context.Context, id string, w io.Writer, opt Options) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() {
		done <- func() (err error) {
			defer parallel.RecoverTo(&err)
			return Run(id, w, opt)
		}()
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

func ids() []string {
	var s []string
	for id := range registry {
		s = append(s, id)
	}
	sort.Strings(s)
	return s
}
