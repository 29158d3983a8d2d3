package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"indexedrec/internal/core"
	"indexedrec/internal/grid2d"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

// engineInput is one library-only solve: a parallel plan replay and the
// sequential loop on identical input, each checked against the answer the
// loop gave at generation.
type engineInput interface {
	layered
	// solveSpan names the kernel layer the parallel solve runs in.
	solveSpan() string
	compile() (*ir.Plan, error)
	// solve replays p on procs goroutines; loop runs the sequential loop.
	// Both return the final values for check.
	solve(p *ir.Plan) (any, error)
	loop() (any, error)
	check(values any) error
}

// scanInput is an int64-add ordinary chain: ir.Compile picks the blocked
// scan, and core.RunSequential is the loop.
type scanInput struct {
	sys  *ir.System
	op   ir.CommutativeMonoid[int64]
	init []int64
	want []int64
}

func (in *scanInput) solveSpan() string { return "ordinary.solve" }

func (in *scanInput) compile() (*ir.Plan, error) { return ir.Compile(in.sys, ir.CompileOptions{}) }

func (in *scanInput) solve(p *ir.Plan) (any, error) {
	res, err := ir.SolveOrdinaryPlanCtx[int64](bg, p, in.op, in.init, ir.SolveOptions{Procs: procs})
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

func (in *scanInput) loop() (any, error) {
	return core.RunSequential[int64](in.sys, in.op, in.init), nil
}

func (in *scanInput) check(values any) error { return sameInts(values.([]int64), in.want) }

func (in *scanInput) layers(l *layerRun) {
	var fp string
	var res *ir.OrdinaryResult[int64]
	l.time("ir.fingerprint", func() error {
		fp = ir.PlanFingerprint(ir.FamilyOrdinary, in.sys.N, in.sys.M, in.sys.G, in.sys.F, nil, 0)
		return nil
	})
	p := l.plan(fp, in.compile)
	l.time("ordinary.solve", func() (err error) {
		res, err = ir.SolveOrdinaryPlanCtx[int64](bg, p, in.op, in.init, ir.SolveOptions{Procs: procs})
		if err == nil {
			l.count("ordinary.combines", float64(res.Combines))
			l.count("ordinary.rounds", float64(res.Rounds))
		}
		return err
	})
	l.time("core.seq", func() error {
		core.RunSequential[int64](in.sys, in.op, in.init)
		return nil
	})
	l.check(func() error { return in.check(res.Values) })
}

// waveInput is an edit-distance grid: ir.CompileGrid2D gives the wavefront
// plan, and grid2d.SolveSequential is the row-major loop.
type waveInput struct {
	gs   *ir.Grid2DSystem
	want []float64
}

func (in *waveInput) solveSpan() string { return "grid2d.solve" }

func (in *waveInput) compile() (*ir.Plan, error) { return ir.CompileGrid2D(in.gs) }

func (in *waveInput) solve(p *ir.Plan) (any, error) {
	res, err := ir.SolveGrid2DPlanCtx(bg, p, in.gs, ir.SolveOptions{Procs: procs})
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

func (in *waveInput) loop() (any, error) {
	res, err := grid2d.SolveSequential(engineGrid(in.gs))
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

func (in *waveInput) check(values any) error { return sameBits(values.([]float64), in.want) }

func (in *waveInput) layers(l *layerRun) {
	res := gridLayers(l, in.gs)
	l.check(func() error { return in.check(res.Values) })
}

// genEngine generates an engine workload's inputs: one structure with
// several data variants.
func genEngine(name string, rng *rand.Rand, sz sizes, h *inputHash) ([]engineInput, error) {
	var ins []engineInput
	switch name {
	case "engine-scan-4m":
		sys := workload.Chain(sz.scanN)
		h.system(sys)
		op := intOp("int64-add", 0)
		for v := 0; v < engineVariants; v++ {
			init := workload.InitInt64(rng, sys.M, 1000)
			h.i64s(init)
			ins = append(ins, &scanInput{sys: sys, op: op, init: init, want: core.RunSequential[int64](sys, op, init)})
		}
	case "engine-wavefront-1024":
		for v := 0; v < engineVariants; v++ {
			gs, want, err := newGrid(rng, sz.waveSide, h)
			if err != nil {
				return nil, err
			}
			ins = append(ins, &waveInput{gs: gs, want: want})
		}
	default:
		return nil, fmt.Errorf("unknown engine workload %q", name)
	}
	return ins, nil
}

// engineSample is one measured pair: the parallel solve and the loop on the
// same input.
type engineSample struct {
	par, seq float64 // ms
	cpu      float64 // process CPU ms during the parallel solve
	err      error
}

// solveChecked replays p on in and checks the answer.
func solveChecked(in engineInput, p *ir.Plan) error {
	v, err := in.solve(p)
	if err != nil {
		return err
	}
	return in.check(v)
}

// pair runs one parallel solve and one loop on in, in the given order,
// timing each call alone and checking both answers afterwards.
func pair(in engineInput, p *ir.Plan, parFirst bool, tr *tracer, req int) engineSample {
	var s engineSample
	root := tr.start("pair", 0, req)
	defer tr.end(root)
	var par, seq any
	var perr, serr error
	runPar := func() {
		id := tr.start(in.solveSpan(), root, req)
		c0, t := selfCPU(), time.Now()
		par, perr = in.solve(p)
		s.par, s.cpu = ms(time.Since(t)), ms(selfCPU()-c0)
		tr.end(id)
	}
	runSeq := func() {
		id := tr.start("core.seq", root, req)
		t := time.Now()
		seq, serr = in.loop()
		s.seq = ms(time.Since(t))
		tr.end(id)
	}
	if parFirst {
		runPar()
		runSeq()
	} else {
		runSeq()
		runPar()
	}
	id := tr.start("verify", root, req)
	s.err = errors.Join(perr, serr)
	if s.err == nil {
		s.err = errors.Join(in.check(par), in.check(seq))
	}
	tr.end(id)
	return s
}

// runEngine measures an engine workload: set-up (compile plus first replay)
// repeated, then pairs of parallel replay and loop on one input, the second
// pair in the opposite order, until the window closes.
func runEngine(cfg config, ins []engineInput, res *result) error {
	var setups []float64
	var p *ir.Plan
	for r := 0; r < cfg.sizes.setupRepeats; r++ {
		p = nil
		runtime.GC() // drop the previous repeat's plan before timing the next
		t := time.Now()
		var err error
		if p, err = ins[0].compile(); err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		if _, err := ins[0].solve(p); err != nil {
			return fmt.Errorf("first replay: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	// Check every variant and warm its arenas before the clock starts.
	for _, in := range ins {
		if err := solveChecked(in, p); err != nil {
			return fmt.Errorf("warm-up replay: %w", err)
		}
	}
	res.setup = median(setups)

	next := 0
	window := func(tr *tracer, seconds float64) *result {
		r := &result{}
		stop := sampleRSS(os.Getpid())
		for deadline := time.Now().Add(time.Duration(seconds * float64(time.Second))); time.Now().Before(deadline); next += 2 {
			in := ins[(next/2)%len(ins)]
			r.addEngine(pair(in, p, true, tr, next), pair(in, p, false, tr, next+1))
		}
		var err error
		if r.mem, err = stop(); err != nil {
			r.fail(err)
		}
		return r
	}
	if !cfg.trace {
		res.merge(window(nil, cfg.seconds))
		return nil
	}
	// Traced run: half the window untraced, half traced, then the layer
	// phase on the workload's own inputs.
	plain := window(nil, cfg.seconds/2)
	traced := window(cfg.tracer, cfg.seconds/2)
	res.merge(plain)
	res.merge(traced)
	res.untracedLayer(plain)
	res.overhead(plain.throughput(), traced.throughput())
	p = nil
	runtime.GC()
	l := newLayerRun(cfg.tracer)
	for i := 0; i < layerSamples; i++ {
		res.addLayer(l.sample(ins[i%len(ins)]))
	}
	l.metrics(res.layer)
	return nil
}
