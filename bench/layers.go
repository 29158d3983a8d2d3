package main

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"indexedrec/ir"
)

// errMismatch marks an answer that differs from the sequential oracle.
var errMismatch = errors.New("oracle mismatch")

// corruptOracle makes every oracle comparison fail; -corrupt-oracle sets it
// to prove that a wrong answer makes the command fail.
var corruptOracle bool

func sameInts(got, want []int64) error {
	if corruptOracle || !slices.Equal(got, want) {
		return fmt.Errorf("%w: %d int values differ from the loop", errMismatch, len(want))
	}
	return nil
}

// sameBits compares float answers bit for bit.
func sameBits(got, want []float64) error {
	if corruptOracle || len(got) != len(want) {
		return fmt.Errorf("%w: %d float values, want %d", errMismatch, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%w: value %d = %v, want %v", errMismatch, i, got[i], want[i])
		}
	}
	return nil
}

// layered is an input the layer phase can replay: layers makes, through
// l, every public call a request for the input makes, in request order,
// and ends with the oracle check.
type layered interface {
	layers(l *layerRun)
}

// layerRun times one layer-phase sample: every public call a request makes,
// in request order, each as a child span of the sample's root span.
type layerRun struct {
	tr   *tracer
	req  int
	root int
	// path accumulates the sample's request-path time: every layer call but
	// compilation (which hot requests skip) and the sequential loop.
	path float64
	// counts collects per-sample counts (combines, rounds, payload sizes).
	counts map[string][]float64
	// plans caches compiled plans by fingerprint across samples; compiles
	// counts compilations, so every structure compiles once and at least
	// minCompiles timings exist.
	plans    map[string]*ir.Plan
	compiles int
	// paths collects each sample's request-path total.
	paths []float64
	// err is the current sample's first failure.
	err error
}

const minCompiles = 3

func newLayerRun(tr *tracer) *layerRun {
	return &layerRun{tr: tr, counts: make(map[string][]float64), plans: make(map[string]*ir.Plan)}
}

// sample runs one input's layer calls under a fresh root span and returns
// the first error any of them (or the final oracle check) reported.
func (l *layerRun) sample(in layered) error {
	l.req++
	l.root = l.tr.start("layer.sample", 0, -l.req)
	l.path, l.err = 0, nil
	in.layers(l)
	l.tr.end(l.root)
	l.paths = append(l.paths, l.path)
	return l.err
}

// time runs one layer call as a span named after the layer. After a failed
// call the sample's remaining calls are skipped, so later steps may use
// earlier results without nil checks.
func (l *layerRun) time(name string, f func() error) {
	if l.err != nil {
		return
	}
	id := l.tr.start(name, l.root, -l.req)
	err := f()
	d := l.tr.end(id)
	if name != "ir.compile" && name != "core.seq" && name != "grid2d.seq" {
		l.path += d
	}
	if err != nil {
		l.err = fmt.Errorf("%s: %w", name, err)
	}
}

// check runs the sample's oracle comparison unless a call already failed.
func (l *layerRun) check(f func() error) {
	if l.err == nil {
		l.err = f()
	}
}

func (l *layerRun) count(name string, v float64) { l.counts[name] = append(l.counts[name], v) }

// plan returns the compiled plan for fp, compiling (and timing) it when the
// structure is new or fewer than minCompiles compilations were timed.
func (l *layerRun) plan(fp string, compile func() (*ir.Plan, error)) *ir.Plan {
	if p, ok := l.plans[fp]; ok && l.compiles >= minCompiles {
		return p
	}
	delete(l.plans, fp) // let a recompiled plan's predecessor be collected
	var p *ir.Plan
	l.time("ir.compile", func() (err error) {
		p, err = compile()
		return err
	})
	if p == nil {
		return nil
	}
	l.compiles++
	l.plans[fp] = p
	l.count("ir.plan_kb", float64(p.SizeBytes())/1024)
	return p
}

// metrics turns the layer phase into per-layer metrics: the median duration
// of each layer's spans and the median of each count. Layers this
// workload's requests never enter read 0.
func (l *layerRun) metrics(out map[string]float64) {
	for _, name := range []string{
		"client.encode", "client.decode", "server.decode", "server.validate",
		"server.encode", "ir.fingerprint", "ir.compile", "ordinary.solve",
		"grid2d.solve", "grid2d.seq", "moebius.solve", "gir.solve",
		"session.append",
	} {
		out[name+"_ms"] = median(l.tr.durations(name))
	}
	seq := append(l.tr.durations("core.seq"), l.tr.durations("grid2d.seq")...)
	out["core.seq_ms"] = median(seq)
	for name, vs := range l.counts {
		out[name] = median(vs)
	}
}
