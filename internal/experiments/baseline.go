package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Perf gates. hotpath, blockedscan, grid2d and sparse print one machine line
// per measured row (HOTPATH family=… warm_ms=…, SCAN n=… warm_blocked_ms=…,
// GRID n=… warm_ms=…, SPARSE mn=… sparse_cold_ms=…). Run with
// Options.Baseline naming a checked-in irbench -json artifact of the same
// experiment (irbench -gate BENCH_scan.json), each fails when a row's time is
// more than gateSlack over the artifact's row with the same key.

// gateSlack is the tolerated slowdown versus the baseline before a gated
// experiment fails (1.10 = 10% regression budget).
const gateSlack = 1.10

// jitterFloorMs is the floor the blockedscan, grid2d and sparse gates pass:
// rows whose baseline is under it are not gated, because sub-millisecond
// times jitter by tens of percent run to run and gating them would only make
// CI flaky. The large rows, where a real regression shows, are always gated.
const jitterFloorMs = 1.0

// readBaseline reads the machine lines that start with prefix out of the
// records of an irbench -json file and returns each line's valueField keyed
// by its keyField. Fields are found by name, so fields added or reordered
// later still parse; a prefixed line lacking either field, or whose value is
// not a number, is an error rather than a row silently left ungated.
func readBaseline(path, prefix, keyField, valueField string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	defer f.Close()
	out := map[string]float64{}
	dec := json.NewDecoder(f)
	for {
		var rec struct {
			Output string `json:"output"`
		}
		if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", path, err)
		}
		for _, line := range strings.Split(rec.Output, "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 || fields[0] != prefix {
				continue
			}
			kv := make(map[string]string, len(fields)-1)
			for _, field := range fields[1:] {
				if k, v, ok := strings.Cut(field, "="); ok {
					kv[k] = v
				}
			}
			key, ok := kv[keyField]
			if !ok {
				return nil, fmt.Errorf("baseline %s: %s line has no %s field: %q", path, prefix, keyField, line)
			}
			ms, err := strconv.ParseFloat(kv[valueField], 64)
			if err != nil {
				return nil, fmt.Errorf("baseline %s: %s line has no numeric %s field: %q", path, prefix, valueField, line)
			}
			out[key] = ms
		}
	}
}

// checkGate fails ms when it is more than gateSlack over prior. A prior under
// floorMs is not gated. Over the slack, remeasure (when non-nil) runs once and
// its lower time replaces ms before the verdict, so a scheduler hiccup in the
// first best-of window does not fail CI while a real regression reproduces; a
// nil remeasure fails at once. It returns the time to report.
func checkGate(what string, ms, prior, floorMs float64, remeasure func() (float64, error)) (float64, error) {
	if prior < floorMs || ms <= prior*gateSlack {
		return ms, nil
	}
	if remeasure != nil {
		retry, err := remeasure()
		if err != nil {
			return ms, fmt.Errorf("%s: %w", what, err)
		}
		ms = min(ms, retry)
	}
	if ms > prior*gateSlack {
		return ms, fmt.Errorf("%s %.3f ms regressed >%.0f%% vs baseline %.3f ms",
			what, ms, (gateSlack-1)*100, prior)
	}
	return ms, nil
}

// gate is one experiment run's regression check against Options.Baseline.
// Without a baseline it passes every row.
type gate struct {
	path, prefix string
	prior        map[string]float64
	rows         int // measured rows the baseline holds
}

// gate arms the experiment's regression check when o.Baseline is set,
// reading the baseline's prefix lines by keyField and valueField.
func (o Options) gate(prefix, keyField, valueField string) (*gate, error) {
	if o.Baseline == "" {
		return &gate{}, nil
	}
	prior, err := readBaseline(o.Baseline, prefix, keyField, valueField)
	if err != nil {
		return nil, err
	}
	return &gate{path: o.Baseline, prefix: prefix, prior: prior}, nil
}

// check gates one measured row, identified by its key field's value, with
// checkGate; rows the baseline lacks pass.
func (g *gate) check(what, key string, ms, floorMs float64, remeasure func() (float64, error)) (float64, error) {
	prior, ok := g.prior[key]
	if !ok {
		return ms, nil
	}
	g.rows++
	return checkGate(what, ms, prior, floorMs, remeasure)
}

// done fails an armed gate that met none of the measured rows in its
// baseline: a wrong file, or sizes the artifact never ran, would otherwise
// switch the gate off without a word.
func (g *gate) done() error {
	if g.path != "" && g.rows == 0 {
		return fmt.Errorf("baseline %s holds no %s line for any measured row", g.path, g.prefix)
	}
	return nil
}
