package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the command must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// buildIrserved builds cmd/irserved from the module under test.
func buildIrserved(t *testing.T) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "irserved")
	cmd := exec.Command("go", "build", "-o", out, "indexedrec/cmd/irserved")
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building irserved: %v\n%s", err, msg)
	}
	return out
}

func smallConfig(t *testing.T, workload, irserved string, trace bool) config {
	return config{
		workload: workload, seed: 1, seconds: 1, trace: trace,
		traceDir: t.TempDir(), irserved: irserved, sizes: smallSizes,
		clients: min(2, runtime.NumCPU()),
	}
}

// TestSpecMatchesCommand checks that the command reports exactly the
// workloads and metrics BENCHMARK.json lists, with the same units.
func TestSpecMatchesCommand(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloads)
	}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command reports %d", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), command reports %s (%s)",
					kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
}

// TestSmoke runs every workload for about a second at reduced sizes, plain
// and traced, and requires correct answers, no failed operation, and the
// full metric set with units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	irserved := buildIrserved(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smallConfig(t, w, irserved, trace)
			rep, out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					w, trace, out.Correct, out.Attempted, out.Failed, rep.Errors)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
			if trace {
				for _, f := range []string{w + ".spans.jsonl", w + ".summary.txt"} {
					if _, err := os.Stat(filepath.Join(cfg.traceDir, f)); err != nil {
						t.Errorf("%s: trace file: %v", w, err)
					}
				}
			}
		}
	}
}

// TestCorruptOracleFailsRun injects an oracle mismatch and requires the run
// to report incorrect answers (main then exits non-zero).
func TestCorruptOracleFailsRun(t *testing.T) {
	corruptOracle = true
	t.Cleanup(func() { corruptOracle = false })
	_, out, err := run(smallConfig(t, "engine-wavefront-1024", "", false))
	if err == nil && out.Correct {
		t.Fatal("run with a corrupted oracle reported correct answers")
	}
}

// TestInputHash requires the input hash to be a function of the seed.
func TestInputHash(t *testing.T) {
	hashOf := func(w string, seed int64) string {
		h := newInputHash()
		rng := rand.New(rand.NewSource(seed))
		var err error
		if strings.HasPrefix(w, "served-") {
			_, err = genServed(w, rng, smallSizes, 1, h)
		} else {
			_, err = genEngine(w, rng, smallSizes, h)
		}
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		return h.sum()
	}
	for _, w := range workloads {
		a, b, c := hashOf(w, 1), hashOf(w, 1), hashOf(w, 2)
		if a != b {
			t.Errorf("%s: seed 1 hashed to %s then %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 hashed alike", w)
		}
	}
}
