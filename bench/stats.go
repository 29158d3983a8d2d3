package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and its value; (0, 0) when the sample is too small.
func tail(xs []float64) (pct, value float64) {
	n := len(xs)
	if n <= 10 {
		return 0, 0
	}
	// Percentiles with ≥10 samples above them: p ≤ 1 - 10/n; report the
	// largest whole tenth of a percent that qualifies.
	p := math.Floor((1-10/float64(n))*1000) / 1000
	return p * 100, quantile(xs, p)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// clockTicks is USER_HZ, the unit of the utime/stime fields in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the user+system CPU time the process has consumed.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its closing
	// parenthesis are space-separated, utime and stime being fields 14, 15.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// selfCPU returns this process's user+system CPU time at microsecond
// resolution, fine enough to charge single engine solves.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// statusMiB reads a kB field of /proc/<pid>/status, such as VmRSS or the
// high-water mark VmHWM, in MiB.
func statusMiB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad %s line %q", field, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// memory is a process's resident set over a window: the median of samples
// taken every 50 ms, and the high-water mark at the end.
type memory struct{ p50, peak float64 }

// sampleRSS samples pid's resident set until the returned stop is called;
// stop waits for the sampler to exit and returns what it saw.
func sampleRSS(pid int) (stop func() (memory, error)) {
	done := make(chan struct{})
	out := make(chan []float64, 1)
	go func() {
		var xs []float64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := statusMiB(pid, "VmRSS"); err == nil {
				xs = append(xs, v)
			}
			select {
			case <-done:
				out <- xs
				return
			case <-tick.C:
			}
		}
	}()
	return func() (memory, error) {
		close(done)
		xs := <-out
		peak, err := statusMiB(pid, "VmHWM")
		return memory{p50: median(xs), peak: peak}, err
	}
}

// timeLoop runs a sequential loop at least once and until 50 µs have
// passed, and returns the mean time of one run in ms: loops of a few
// microseconds are too short to time alone.
func timeLoop(loop func()) float64 {
	t := time.Now()
	for reps := 1; ; reps++ {
		loop()
		if d := time.Since(t); d >= 50*time.Microsecond || reps == 1000 {
			return ms(d) / float64(reps)
		}
	}
}

// promTotals sums every sample of each metric family in a Prometheus text
// exposition across label sets: the name before '{' (or the space) maps to
// the sum of its values.
func promTotals(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}
