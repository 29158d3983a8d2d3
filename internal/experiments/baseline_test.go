package experiments

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestReadBaselineCheckedIn reads each gated experiment's checked-in
// artifact and expects the rows its gate compares against.
func TestReadBaselineCheckedIn(t *testing.T) {
	for _, tc := range []struct {
		file, prefix, key, value string
		want                     map[string]float64
	}{
		{"BENCH_hotpath.json", "HOTPATH", "family", "warm_ms",
			map[string]float64{"ordinary": 0.479, "linear": 4.749, "moebius": 4.474}},
		{"BENCH_scan.json", "SCAN", "n", "warm_blocked_ms",
			map[string]float64{"10000": 0.046, "100000": 0.439, "1000000": 2.627, "10000000": 75.131}},
		{"BENCH_grid2d.json", "GRID", "n", "warm_ms",
			map[string]float64{"256": 0.452, "1024": 9.677, "2048": 28.877, "4096": 106.698}},
		// The SPARSEPLAN line carries mn= but no sparse_cold_ms: matching
		// it as a SPARSE line would be an error.
		{"BENCH_sparse.json", "SPARSE", "mn", "sparse_cold_ms",
			map[string]float64{"10": 1.826, "100": 2.786, "1000": 1.992}},
	} {
		got, err := readBaseline(filepath.Join("..", "..", tc.file), tc.prefix, tc.key, tc.value)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.file, got, tc.want)
		}
	}
}

// writeBaseline writes an irbench -json file whose one record carries the
// given output lines.
func writeBaseline(t *testing.T, lines ...string) string {
	t.Helper()
	rec, err := json.Marshal(map[string]any{"id": "x", "ok": true, "output": strings.Join(lines, "\n") + "\n"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := os.WriteFile(path, append(rec, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadBaselineByFieldName: fields are found by name wherever they sit,
// and a prefixed line missing either field fails the read rather than
// dropping out of the gate.
func TestReadBaselineByFieldName(t *testing.T) {
	path := writeBaseline(t,
		"== table ==",
		"SCAN n=10 added=1 warm_blocked_ms=2.5",
		"SCAN warm_blocked_ms=7 n=20",
		"SCANNER n=30 warm_blocked_ms=9",
	)
	got, err := readBaseline(path, "SCAN", "n", "warm_blocked_ms")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]float64{"10": 2.5, "20": 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}

	for _, line := range []string{
		"SCAN warm_blocked_ms=2.5",
		"SCAN n=10 cold_ms=2.5",
		"SCAN n=10 warm_blocked_ms=fast",
	} {
		if _, err := readBaseline(writeBaseline(t, line), "SCAN", "n", "warm_blocked_ms"); err == nil {
			t.Errorf("%q: read succeeded, want an error", line)
		}
	}
	if _, err := readBaseline(filepath.Join(t.TempDir(), "missing.json"), "SCAN", "n", "warm_blocked_ms"); err == nil {
		t.Error("missing file: read succeeded, want an error")
	}
}

// TestCheckGate drives the shared check with fake timings against a 2 ms
// baseline (slack 1.10 puts the limit at 2.2 ms).
func TestCheckGate(t *testing.T) {
	remeasure := func(ms float64) func() (float64, error) {
		return func() (float64, error) { return ms, nil }
	}
	mustNotRun := func() (float64, error) {
		t.Error("re-measure ran for a row that needed none")
		return 0, nil
	}
	for _, tc := range []struct {
		name      string
		ms, floor float64
		remeasure func() (float64, error)
		wantMs    float64
		wantErr   bool
	}{
		{"within slack", 2.1, 1, mustNotRun, 2.1, false},
		{"below floor skipped", 100, 3, mustNotRun, 100, false},
		{"over slack, re-measure passes", 3, 1, remeasure(2.05), 2.05, false},
		{"over slack, re-measure fails", 3, 1, remeasure(2.5), 2.5, true},
		{"over slack, slower re-measure keeps first time", 3, 1, remeasure(4), 3, true},
		{"over slack, nil re-measure fails at once", 2.3, 0, nil, 2.3, true},
	} {
		ms, err := checkGate("x n=1: warm replay", tc.ms, 2, tc.floor, tc.remeasure)
		if ms != tc.wantMs || (err != nil) != tc.wantErr {
			t.Errorf("%s: got (%v, %v), want (%v, error=%v)", tc.name, ms, err, tc.wantMs, tc.wantErr)
		}
	}

	boom := errors.New("boom")
	if _, err := checkGate("x", 3, 2, 1, func() (float64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Errorf("failing re-measure: err = %v, want it wrapped", err)
	}
}

// TestGateMustMeetARow: an armed gate whose baseline holds none of the
// measured rows fails instead of passing every row unchecked.
func TestGateMustMeetARow(t *testing.T) {
	path := writeBaseline(t, "GRID n=256 warm_ms=5")
	g, err := Options{Baseline: path}.gate("GRID", "n", "warm_ms")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.check("grid2d n=64: warm replay", "64", 1, jitterFloorMs, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.done(); err == nil {
		t.Error("gate met no baseline row, want an error")
	}
	if _, err := g.check("grid2d n=256: warm replay", "256", 5, jitterFloorMs, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.done(); err != nil {
		t.Errorf("gate met a row: %v", err)
	}

	unarmed, err := Options{}.gate("GRID", "n", "warm_ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := unarmed.done(); err != nil {
		t.Errorf("unarmed gate: %v", err)
	}
}
