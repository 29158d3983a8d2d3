// Command bench is the repository's end-to-end benchmark: it drives one
// workload through irserved's typed client or the ir facade, checks every
// answer against the sequential loop, and prints its metrics as JSON.
//
//	bash bench/run.sh --workload served-small-mix --seed 1 --seconds 15 --trace 0
//
// run.sh builds this command and cmd/irserved from the checkout and runs it
// from the repository root; see bench/README.md for the workloads and the
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"indexedrec/internal/server"
)

// metricDef is one reported metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (BENCHMARK.json end_to_end):
// only set-up time and memory, because this host's speed shifts between
// runs by more than any bound allows, and it shifts the two-core solves and
// the one-core loop apart, so not even their ratio holds still.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_p50_mb", "MiB"},
}

// perLayer are the metrics of a traced run (BENCHMARK.json per_layer).
// A layer a workload's requests never enter reads 0.
var perLayer = []metricDef{
	{"speedup_vs_seq", "x"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"cpu_ms_per_op", "ms"},
	{"cpu_per_op_vs_seq", "x"},
	{"speedup_p10_vs_seq", "x"},
	{"peak_rss_mb", "MiB"},
	{"client.encode_ms", "ms"},
	{"client.decode_ms", "ms"},
	{"client.request_kb", "KiB"},
	{"client.response_kb", "KiB"},
	{"client.roundtrip_p50_ms", "ms"},
	{"client.roundtrip_p50_ms.linear", "ms"},
	{"client.roundtrip_p50_ms.ordinary", "ms"},
	{"client.roundtrip_p50_ms.sparse", "ms"},
	{"client.roundtrip_p50_ms.general", "ms"},
	{"client.roundtrip_p50_ms.grid2d", "ms"},
	{"server.decode_ms", "ms"},
	{"server.validate_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.unattributed_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"server.plan_hit_ratio", "ratio"},
	{"server.compiles_per_structure", "ratio"},
	{"server.evictions_per_kop", "1/kop"},
	{"server.batch_size_mean", "count"},
	{"server.shed_per_kop", "1/kop"},
	{"ir.fingerprint_ms", "ms"},
	{"ir.compile_ms", "ms"},
	{"ir.plan_kb", "KiB"},
	{"ordinary.solve_ms", "ms"},
	{"ordinary.combines", "count"},
	{"ordinary.rounds", "count"},
	{"grid2d.solve_ms", "ms"},
	{"grid2d.rounds", "count"},
	{"grid2d.seq_ms", "ms"},
	{"moebius.solve_ms", "ms"},
	{"gir.solve_ms", "ms"},
	{"session.append_ms", "ms"},
	{"core.seq_ms", "ms"},
	{"bench.gen_s", "s"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.latency_tail_ms", "ms"},
	{"bench.latency_tail_pct", "%"},
}

// workloads names every workload; served ones start with "served-".
var workloads = []string{
	"served-ordinary-131k",
	"served-small-mix",
	"served-general-churn",
	"served-session-append",
	"engine-scan-4m",
	"engine-wavefront-1024",
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	irserved string
	sizes    sizes
	// clients is the served load's closed-loop client count and connection
	// cap: two, or fewer on a host with fewer cores.
	clients int
	tracer  *tracer
}

// result accumulates one run's measurements, or one window's.
type result struct {
	attempted, failed, mismatches int
	errs                          []string
	setup                         float64
	ok                            int
	lat, speedups                 []float64 // per successful operation
	seqMs                         float64   // loop time summed over successful operations
	busyMs                        float64   // served: window length; engine: time in parallel solves
	cpuMs                         float64   // served: server CPU in the window; engine: CPU in the solves
	mem                           memory    // served: irserved's; engine: this process's
	version                       *server.VersionResponse
	layer                         map[string]float64
}

func (r *result) fail(err error) {
	r.failed++
	if errors.Is(err, errMismatch) {
		r.mismatches++
	}
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *result) addServed(ss []servedSample, seconds float64) {
	for _, s := range ss {
		r.attempted++
		if s.err != nil {
			r.fail(fmt.Errorf("%s: %w", s.kind, s.err))
			continue
		}
		r.ok++
		r.lat = append(r.lat, s.lat)
		r.speedups = append(r.speedups, s.seq/s.lat)
		r.seqMs += s.seq
	}
	r.busyMs += seconds * 1000
}

// addEngine records two pairs run in opposite orders as one speedup sample:
// their total loop time over their total solve time, so effects of order
// (the second call of a pair may find the input in cache) cancel within
// every sample instead of splitting the samples into two populations.
func (r *result) addEngine(a, b engineSample) {
	for _, s := range []engineSample{a, b} {
		r.attempted++
		if s.err != nil {
			r.fail(s.err)
			continue
		}
		r.ok++
		r.lat = append(r.lat, s.par)
		r.seqMs += s.seq
		r.cpuMs += s.cpu
		r.busyMs += s.par
	}
	if a.err == nil && b.err == nil {
		r.speedups = append(r.speedups, (a.seq+b.seq)/(a.par+b.par))
	}
}

// addLayer counts one layer-phase sample, which checks its answer too.
func (r *result) addLayer(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// merge folds a window's result into the run's.
func (r *result) merge(w *result) {
	r.attempted += w.attempted
	r.failed += w.failed
	r.mismatches += w.mismatches
	r.errs = append(r.errs, w.errs[:min(len(w.errs), 5-min(len(r.errs), 5))]...)
	r.ok += w.ok
	r.lat = append(r.lat, w.lat...)
	r.speedups = append(r.speedups, w.speedups...)
	r.seqMs += w.seqMs
	r.busyMs += w.busyMs
	r.cpuMs += w.cpuMs
	if w.mem != (memory{}) {
		r.mem = w.mem
	}
}

// throughput is successful operations per second of busy time.
func (r *result) throughput() float64 { return float64(r.ok) / (r.busyMs / 1000) }

// untracedLayer records the traced run's untraced half in absolute units.
func (r *result) untracedLayer(u *result) {
	r.layer["speedup_vs_seq"] = median(u.speedups)
	r.layer["latency_p50_ms"] = quantile(u.lat, 0.5)
	r.layer["latency_p90_ms"] = quantile(u.lat, 0.9)
	r.layer["throughput_ops_s"] = u.throughput()
	r.layer["cpu_ms_per_op"] = u.cpuMs / float64(max(u.ok, 1))
	r.layer["cpu_per_op_vs_seq"] = u.cpuMs / u.seqMs
	r.layer["speedup_p10_vs_seq"] = quantile(u.speedups, 0.1)
	r.layer["peak_rss_mb"] = u.mem.peak
	r.layer["bench.latency_tail_pct"], r.layer["bench.latency_tail_ms"] = tail(u.lat)
}

// overhead records the traced half's throughput loss against the
// untraced half.
func (r *result) overhead(plain, traced float64) {
	if plain > 0 {
		r.layer["bench.trace_overhead_pct"] = (plain - traced) / plain * 100
	}
}

// endToEndMetrics gives the untraced run's metrics: set-up time and the
// median resident set.
func (r *result) endToEndMetrics() map[string]float64 {
	return map[string]float64{
		"setup_s":    r.setup,
		"rss_p50_mb": r.mem.p50,
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report is the line printed before the result: what ran, where, on which
// inputs.
type report struct {
	Workload    string                  `json:"workload"`
	Seed        int64                   `json:"seed"`
	Seconds     float64                 `json:"seconds"`
	Trace       bool                    `json:"trace"`
	Host        host                    `json:"host"`
	Irserved    *server.VersionResponse `json:"irserved_version,omitempty"`
	Clients     int                     `json:"clients,omitempty"`
	EngineProcs int                     `json:"engine_procs,omitempty"`
	Samples     int                     `json:"samples"`
	InputSHA256 string                  `json:"input_sha256"`
	GenS        float64                 `json:"gen_s"`
	ErrorRate   float64                 `json:"error_rate"`
	Errors      []string                `json:"errors,omitempty"`
}

type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	Go         string `json:"go"`
}

// run generates the workload's inputs and measures it.
func run(cfg config) (*report, *resultOut, error) {
	served := strings.HasPrefix(cfg.workload, "served-")
	rng := rand.New(rand.NewSource(cfg.seed))
	h := newInputHash()
	res := &result{layer: make(map[string]float64)}
	t := time.Now()
	var set *servedSet
	var eng []engineInput
	var err error
	if served {
		set, err = genServed(cfg.workload, rng, cfg.sizes, cfg.seconds, h)
	} else {
		eng, err = genEngine(cfg.workload, rng, cfg.sizes, h)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("generating inputs: %w", err)
	}
	genS := time.Since(t).Seconds()
	res.layer["bench.gen_s"] = genS
	if cfg.trace {
		cfg.tracer = newTracer()
	}
	if served {
		err = runServed(cfg, set, res)
	} else {
		err = runEngine(cfg, eng, res)
	}
	if err != nil {
		return nil, nil, err
	}
	if cfg.trace {
		if err := writeTrace(cfg.traceDir, cfg.workload, cfg.tracer, res.layer); err != nil {
			return nil, nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host:     host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOARCH, runtime.Version()},
		Irserved: res.version, Samples: len(res.lat), InputSHA256: h.sum(), GenS: genS,
		ErrorRate: float64(res.failed) / float64(max(res.attempted, 1)), Errors: res.errs,
	}
	if served {
		rep.Clients = cfg.clients
	} else {
		rep.EngineProcs = procs
	}
	out := &resultOut{Correct: res.mismatches == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricOut)}
	defs, values := endToEnd, res.endToEndMetrics()
	if cfg.trace {
		defs, values = perLayer, res.layer
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricOut{Value: values[d.name], Unit: d.unit}
	}
	return rep, out, nil
}

func main() {
	var cfg config
	var trace int
	var corrupt bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run: per-layer metrics and span files")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/trace", "directory for span and summary files")
	flag.StringVar(&cfg.irserved, "irserved", ".bench_build/irserved", "irserved binary the served workloads start")
	flag.BoolVar(&corrupt, "corrupt-oracle", false, "make every oracle check fail (proves mismatches fail the run)")
	flag.Parse()
	if !slices.Contains(workloads, cfg.workload) || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need -workload (one of %s), -seconds > 0 and -trace 0 or 1\n",
			strings.Join(workloads, ", "))
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.sizes = fullSizes
	cfg.clients = min(2, runtime.NumCPU())
	corruptOracle = corrupt
	rep, out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]*report{"report": rep}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(out); err != nil {
		os.Exit(1)
	}
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: answers differ from the sequential loop: %s\n",
			cfg.workload, strings.Join(rep.Errors, "; "))
		os.Exit(1)
	}
}
