package indexedrec

// End-to-end tests of the command-line tools: each binary is built once and
// exercised the way a user would drive it.

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one cmd/ binary into a temp dir and returns its path.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not available")
	}
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command(goBin, "build", "-o", bin, "./cmd/"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// runFail runs the binary expecting a non-zero exit, and returns stderr.
func runFail(t *testing.T, bin string, args ...string) (stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	err := cmd.Run()
	if err == nil {
		t.Fatalf("%s %v: exited 0, want failure\nstdout:\n%s", filepath.Base(bin), args, out.String())
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%s %v: %v (not an exit error)", filepath.Base(bin), args, err)
	}
	return errBuf.String(), ee.ExitCode()
}

// failCase is one CLI failure path: args that must exit non-zero with a
// diagnostic on stderr (wantSub == "" means any stderr, e.g. flag usage).
type failCase struct {
	name    string
	args    []string
	wantSub string
	oneLine bool // stderr must be exactly one line (the fail() contract)
}

func checkFailCases(t *testing.T, tool string, cases []failCase) {
	t.Helper()
	bin := buildTool(t, tool)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stderr, code := runFail(t, bin, tc.args...)
			if code == 0 {
				t.Fatalf("exit code 0")
			}
			if tc.wantSub != "" && !strings.Contains(stderr, tc.wantSub) {
				t.Fatalf("stderr missing %q:\n%s", tc.wantSub, stderr)
			}
			if tc.oneLine {
				if n := strings.Count(strings.TrimRight(stderr, "\n"), "\n") + 1; n != 1 {
					t.Fatalf("stderr is %d lines, want one:\n%s", n, stderr)
				}
			}
		})
	}
}

func TestCLIIrsolveFailures(t *testing.T) {
	const okLoop = "for i = 1 to n do X[i] := X[i-1] + X[i]"
	checkFailCases(t, "irsolve", []failCase{
		{name: "no input", args: nil},
		{name: "parse error", args: []string{"-loop", "for for for"}, wantSub: "parse:", oneLine: true},
		{name: "missing file", args: []string{"-file", "/nonexistent/loop.ir"}, wantSub: "read -file", oneLine: true},
		{name: "bad array spec", args: []string{"-loop", okLoop, "-array", "X"}, wantSub: "bad -array", oneLine: true},
		{name: "unknown generator", args: []string{"-loop", okLoop, "-array", "X=wat:5"}, wantSub: "unknown generator", oneLine: true},
		{name: "bad array value", args: []string{"-loop", okLoop, "-array", "X=1,two,3"}, wantSub: "bad -array", oneLine: true},
		{name: "bad scalar", args: []string{"-loop", okLoop, "-scalar", "q=abc"}, wantSub: "bad -scalar", oneLine: true},
	})
}

func TestCLIIrgenFailures(t *testing.T) {
	checkFailCases(t, "irgen", []failCase{
		{name: "no input", args: nil},
		{name: "parse error", args: []string{"-loop", "not a loop"}, wantSub: "parse:", oneLine: true},
		{name: "missing file", args: []string{"-file", "/nonexistent/loop.ir"}, wantSub: "read -file", oneLine: true},
		{name: "bad timeout", args: []string{"-timeout", "soon"}, wantSub: "invalid value"},
	})
}

func TestCLIIrbenchFailures(t *testing.T) {
	checkFailCases(t, "irbench", []failCase{
		{name: "unknown experiment", args: []string{"-exp", "fig99"}, wantSub: "fig99", oneLine: true},
		{name: "bad procs entry", args: []string{"-exp", "fig3", "-procs", "1,zero"}, wantSub: "bad -procs", oneLine: true},
		{name: "timeout", args: []string{"-exp", "fig3", "-timeout", "1ns"}, wantSub: "timed out", oneLine: true},
	})
}

// TestCLIIrbenchGateUngated checks that -gate on an experiment without a
// perf gate, or on all, is a one-line usage error (exit 2) naming the gated
// experiments, instead of a run that ignores the baseline and passes.
func TestCLIIrbenchGateUngated(t *testing.T) {
	bin := buildTool(t, "irbench")
	for _, exp := range []string{"fig1", "all"} {
		stderr, code := runFail(t, bin, "-exp", exp, "-gate", "BENCH_hotpath.json")
		want := "irbench: -gate applies only to blockedscan, grid2d, hotpath, sparse, not -exp " + exp + "\n"
		if code != 2 || stderr != want {
			t.Errorf("-exp %s -gate: exit %d, stderr %q; want exit 2, %q", exp, code, stderr, want)
		}
	}
}

// TestCLIIrbenchGateCluster: -gate with -cluster is a usage error before
// any coordinator is dialled, not a cluster run that ignores the baseline.
func TestCLIIrbenchGateCluster(t *testing.T) {
	bin := buildTool(t, "irbench")
	stderr, code := runFail(t, bin, "-cluster", "127.0.0.1:1", "-gate", "BENCH_hotpath.json")
	if want := "irbench: -gate does not apply to -cluster\n"; code != 2 || stderr != want {
		t.Errorf("-cluster -gate: exit %d, stderr %q; want exit 2, %q", code, stderr, want)
	}
}

func TestCLIIrvmFailures(t *testing.T) {
	reduceArgs := []string{"-builtin", "reduce",
		"-sym", "N=16", "-sym", "NPROC=4", "-sym", "A=0", "-mem", "16"}
	checkFailCases(t, "irvm", []failCase{
		{name: "no input", args: nil},
		{name: "unknown builtin", args: []string{"-builtin", "wat"}, wantSub: "unknown -builtin", oneLine: true},
		{name: "missing file", args: []string{"-file", "/nonexistent/prog.s"}, wantSub: "no such file"},
		{name: "bad sym", args: []string{"-builtin", "reduce", "-sym", "N16"}, wantSub: "NAME=VALUE"},
		{name: "assemble error", args: []string{"-builtin", "seq"}, wantSub: "assemble:", oneLine: true},
		{name: "unknown opx", args: append(append([]string{}, reduceArgs...), "-opx", "bogus"), wantSub: "unknown -opx", oneLine: true},
		{name: "bad fill", args: append(append([]string{}, reduceArgs...), "-fill", "0:16"), wantSub: "bad -fill", oneLine: true},
		{name: "bad dump", args: append(append([]string{}, reduceArgs...), "-fill", "0:16=1", "-dump", "0:99999"), wantSub: "bad -dump", oneLine: true},
		{name: "timeout", args: append(append([]string{}, reduceArgs...), "-timeout", "1ns"), wantSub: "timed out", oneLine: true},
	})
}

func TestCLIIrsolve(t *testing.T) {
	bin := buildTool(t, "irsolve")
	out := run(t, bin,
		"-loop", "for i = 1 to n do X[i] := X[i-1] + X[i]",
		"-n", "10", "-array", "X=ramp:11")
	for _, want := range []string{
		"ordinary IR", "OrdinaryIR pointer jumping", "max abs difference: 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("irsolve output missing %q:\n%s", want, out)
		}
	}
	// Analyze-only mode.
	out2 := run(t, bin, "-analyze",
		"-loop", "for i = 1 to n do X[G[i]] := A[i]*X[F[i]] + B[i]")
	if !strings.Contains(out2, "linear IR") || !strings.Contains(out2, "indexed recurrence") {
		t.Fatalf("irsolve -analyze output:\n%s", out2)
	}
}

func TestCLIIrgen(t *testing.T) {
	bin := buildTool(t, "irgen")
	out := run(t, bin,
		"-loop", "for i = 1 to n do X[i] := A[i]*X[i-1] + B[i]",
		"-func", "Tri")
	for _, want := range []string{
		"package generated", "func Tri(", "ir.SolveLinear(", "DO NOT EDIT",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("irgen output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIIrbench(t *testing.T) {
	bin := buildTool(t, "irbench")
	out := run(t, bin, "-list")
	if !strings.Contains(out, "fig3") || !strings.Contains(out, "livermore") {
		t.Fatalf("irbench -list output:\n%s", out)
	}
	out2 := run(t, bin, "-exp", "fig1")
	if !strings.Contains(out2, "A[2]A[3]A[6]") {
		t.Fatalf("irbench fig1 output:\n%s", out2)
	}
	out3 := run(t, bin, "-exp", "fig3", "-n", "1000", "-procs", "1,32")
	if !strings.Contains(out3, "Parallel IR Solution") {
		t.Fatalf("irbench fig3 output:\n%s", out3)
	}
	// -json: one decodable record with the captured text inside.
	out4 := run(t, bin, "-exp", "fig1", "-json")
	var rec struct {
		ID        string  `json:"id"`
		Title     string  `json:"title"`
		OK        bool    `json:"ok"`
		ElapsedMs float64 `json:"elapsed_ms"`
		Output    string  `json:"output"`
	}
	if err := json.Unmarshal([]byte(out4), &rec); err != nil {
		t.Fatalf("irbench -json output not JSON: %v\n%s", err, out4)
	}
	if rec.ID != "fig1" || !rec.OK || rec.Title == "" || rec.ElapsedMs <= 0 ||
		!strings.Contains(rec.Output, "A[2]A[3]A[6]") {
		t.Fatalf("irbench -json record: %+v", rec)
	}
}

func TestCLIIrvm(t *testing.T) {
	bin := buildTool(t, "irvm")
	out := run(t, bin, "-builtin", "reduce",
		"-sym", "N=16", "-sym", "NPROC=4", "-sym", "A=0",
		"-mem", "16", "-fill", "0:16=1", "-dump", "0:1")
	if !strings.Contains(out, "cycles=") || !strings.Contains(out, "mem[0:1] = [16]") {
		t.Fatalf("irvm output:\n%s", out)
	}
	out2 := run(t, bin, "-builtin", "seq", "-disasm",
		"-sym", "NITER=1", "-sym", "A=0", "-sym", "G=1", "-sym", "F=2")
	if !strings.Contains(out2, "OPX") || !strings.Contains(out2, "sloop") {
		t.Fatalf("irvm -disasm output:\n%s", out2)
	}
}
