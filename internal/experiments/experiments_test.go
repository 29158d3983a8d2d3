package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig9",
		"livermore", "livermore-exec", "loop23", "scaling", "crossover",
		"ablation-pow", "ablation-cap", "speedup", "scan-vs-ir", "ops", "sched",
		"cold_vs_warm", "hotpath", "session", "blockedscan", "grid2d",
		"sparse",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	for _, e := range All() {
		if e.Desc == "" {
			t.Errorf("experiment %q has no one-line description (irbench -list)", e.ID)
		}
		if strings.Contains(e.Desc, "\n") {
			t.Errorf("experiment %q description spans lines", e.ID)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", &buf, Options{}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// TestGatedExperiments pins which experiments are registered as reading
// Options.Baseline, the list irbench -gate accepts.
func TestGatedExperiments(t *testing.T) {
	var gated []string
	for _, e := range All() {
		if e.Gated {
			gated = append(gated, e.ID)
		}
	}
	if got, want := strings.Join(gated, ","), "blockedscan,grid2d,hotpath,sparse"; got != want {
		t.Errorf("gated experiments = %s, want %s", got, want)
	}
}

// TestAllExperimentsRunQuick executes every experiment in quick mode and
// sanity-checks the output mentions its key artifact.
func TestAllExperimentsRunQuick(t *testing.T) {
	expected := map[string]string{
		"fig1":           "A[2]A[3]A[6]",
		"fig2":           "rounds:",
		"fig3":           "Original IR Loop",
		"fig4":           "Fibonacci",
		"fig5":           "A[0]^",
		"fig6":           "leaf A0[",
		"fig9":           "CAP complete",
		"livermore":      "indexed recurrence",
		"livermore-exec": "auto-parallelized",
		"loop23":         "without any data-dependence",
		"scaling":        "ratio",
		"crossover":      "crossover",
		"ablation-pow":   "atomic",
		"ablation-cap":   "squaring",
		"speedup":        "goroutines",
		"scan-vs-ir":     "affine-map prefix",
		"ops":            "commutativity",
		"sched":          "scheduling",
		"cold_vs_warm":   "identical",
		"hotpath":        "HOTPATH",
		"session":        "amortized",
		"blockedscan":    "SCAN",
		"grid2d":         "GRID",
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			opt := Options{Quick: true}
			switch e.ID {
			case "fig3":
				opt.N = 2000
				opt.Procs = []int{1, 8, 64}
			case "speedup":
				opt.N = 1 << 14
			case "scan-vs-ir":
				opt.N = 1 << 12
			case "loop23":
				opt.N = 256
			}
			if err := Run(e.ID, &buf, opt); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if want := expected[e.ID]; want != "" && !strings.Contains(out, want) {
				t.Fatalf("%s output missing %q:\n%s", e.ID, want, out)
			}
		})
	}
}
