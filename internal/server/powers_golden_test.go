package server

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"indexedrec/internal/workload"
	"indexedrec/ir"
)

// elapsedField matches the one response field that varies between runs.
var elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9.eE+-]+`)

// TestGeneralPowersGolden pins the wire bytes of /v1/solve/general with
// with_powers: a small scatter whose auxiliary cells are never written
// (each trace is its own (x, 1)) and Fibonacci(100), whose counts pass
// uint64. elapsed_ms is masked; every other byte must match the checked-in
// golden (regenerate with
// `UPDATE_GOLDEN=1 go test ./internal/server -run PowersGolden`).
func TestGeneralPowersGolden(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, c := range []struct {
		name string
		sys  *ir.System
	}{
		{"scatter", workload.Scatter(rand.New(rand.NewSource(5)), 8, 4)},
		{"fibonacci", workload.Fibonacci(100)},
	} {
		t.Run(c.name, func(t *testing.T) {
			init := make([]int64, c.sys.M)
			for x := range init {
				init[x] = int64(x + 2)
			}
			req := GeneralRequest{System: ir.WireFromSystem(c.sys), Op: "mul-mod", Mod: 1_000_003,
				Init: rawInts(t, init), WithPowers: true}
			resp, data := post(t, ts.URL+APIPrefix+"general", req)
			if resp.StatusCode != 200 {
				t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
			}
			data = elapsedField.ReplaceAll(data, []byte(`"elapsed_ms":0`))
			golden := filepath.Join("testdata", "powers_"+c.name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(golden, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read %s: %v", golden, err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("response drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", golden, data, want)
			}
		})
	}
}
