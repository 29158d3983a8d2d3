package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"indexedrec/internal/lang"
	"indexedrec/internal/livermore"
	"indexedrec/internal/report"
	"indexedrec/ir"
)

func init() {
	register("livermore", "§1 table — Livermore Loops recurrence classification",
		"classifies each Livermore loop as ordinary, general, or unsupported", runLivermore)
	register("livermore-exec", "E8b — auto-parallelized execution of every DSL-encoded kernel",
		"runs every classified kernel through the DSL pipeline and checks outputs", runLivermoreExec)
	register("loop23", "§3 example — Livermore loop 23 via the Möbius transformation",
		"solves the implicit hydrodynamics fragment as a Möbius recurrence", runLoop23)
}

func runLivermoreExec(w io.Writer, opt Options) error {
	n := opt.n(512)
	tb := report.NewTable(
		fmt.Sprintf("every DSL-encoded kernel: sequential interpreter vs auto-parallelized vs native Go loop, n=%d", n),
		"#", "kernel", "strategy", "seq ms", "par ms", "native ms", "max rel err")
	for _, k := range livermore.All() {
		if k.DSL == "" {
			continue
		}
		loop, err := lang.Parse(k.DSL)
		if err != nil {
			return fmt.Errorf("kernel %d: %w", k.ID, err)
		}
		c := ir.CompileLoop(loop)

		seq := k.Setup(n)
		t0 := time.Now()
		if err := lang.Run(loop, seq); err != nil {
			return fmt.Errorf("kernel %d seq: %w", k.ID, err)
		}
		seqD := time.Since(t0)

		par := k.Setup(n)
		t0 = time.Now()
		if err := c.Execute(par, 0); err != nil {
			return fmt.Errorf("kernel %d par: %w", k.ID, err)
		}
		parD := time.Since(t0)

		native := k.Setup(n)
		t0 = time.Now()
		k.Native(n, native)
		nativeD := time.Since(t0)

		maxErr := 0.0
		for name, want := range seq.Arrays {
			got := par.Arrays[name]
			for i := range want {
				maxErr = math.Max(maxErr, relErr(got[i], want[i]))
			}
		}
		if maxErr > 1e-9 {
			return fmt.Errorf("kernel %d: parallel deviates by %g", k.ID, maxErr)
		}
		tb.AddRow(k.ID, k.Name, c.Strategy(), float64(seqD.Microseconds())/1000,
			float64(parD.Microseconds())/1000, float64(nativeD.Nanoseconds())/1e6, maxErr)
	}
	tb.Render(w)
	fmt.Fprintln(w, "\nEvery kernel the classifier places is executed by its parallel")
	fmt.Fprintln(w, "strategy and checked against the sequential interpreter; \"native\"")
	fmt.Fprintln(w, "times the kernel's hand-written Go loop on the same data. Each \"par\"")
	fmt.Fprintln(w, "time is one cold run: lower, compile every leaf's plan, replay.")
	return nil
}

func runLivermore(w io.Writer, opt Options) error {
	rows, err := livermore.ClassificationTable()
	if err != nil {
		return err
	}
	tb := report.NewTable("Livermore Loops classification (mechanical vs curated)",
		"#", "kernel", "classifier form", "classifier bucket", "curated bucket", "agree")
	for _, r := range rows {
		mech := "n/a"
		agree := "-"
		if r.DSLForm != "n/a" {
			mech = r.DSLBucket.String()
			if r.Agree {
				agree = "yes"
			} else {
				agree = "NO"
			}
		}
		tb.AddRow(r.ID, r.Name, r.DSLForm, mech, r.Curated.Bucket.String(), agree)
	}
	tb.Render(w)

	counts := livermore.BucketCounts()
	fmt.Fprintln(w)
	tb2 := report.NewTable("bucket totals (curated)", "bucket", "kernels")
	for _, b := range []lang.Bucket{lang.BucketNone, lang.BucketLinear, lang.BucketIndexed, lang.BucketUnknown} {
		tb2.AddRow(b.String(), counts[b])
	}
	tb2.Render(w)
	fmt.Fprintln(w, `
The paper's in-text table lost its digits to OCR; the legible anchors are
reproduced exactly: kernels 7 and 8 contain no recurrences, kernel 5 is a
linear recurrence, and kernel 23 is the paper's own indexed-recurrence
example. Kernel 2's disagreement is expected: its level-wise independence
needs index analysis, which the syntactic IR framework deliberately omits.`)
	return nil
}

func runLoop23(w io.Writer, opt Options) error {
	k := livermore.ByID(23)
	n := opt.n(2048)
	loop, err := lang.Parse(k.DSL)
	if err != nil {
		return err
	}
	an := lang.Analyze(loop)
	fmt.Fprintf(w, "DSL:      %s\n", k.DSL)
	fmt.Fprintf(w, "analysis: %s\n", an.Describe())
	fmt.Fprintf(w, "strategy: %s\n\n", lang.Compile(loop).Strategy())

	seq := k.Setup(n)
	t0 := time.Now()
	if err := lang.Run(loop, seq); err != nil {
		return err
	}
	seqD := time.Since(t0)

	par := k.Setup(n)
	t0 = time.Now()
	if err := ir.CompileLoop(loop).Execute(par, 0); err != nil {
		return err
	}
	parD := time.Since(t0)

	maxErr := 0.0
	for i, wv := range seq.Arrays["X"] {
		maxErr = math.Max(maxErr, relErr(par.Arrays["X"][i], wv))
	}
	tb := report.NewTable(fmt.Sprintf("loop 23 (j=1 column), n=%d rows", n),
		"path", "wall time", "max rel err")
	tb.AddRow("sequential interpreter", seqD.String(), 0.0)
	tb.AddRow("auto-parallelized (Moebius+OIR, O(log n) steps)", parD.String(), maxErr)
	tb.Render(w)
	fmt.Fprintln(w, "\nThe loop was parallelized without any data-dependence analysis,")
	fmt.Fprintln(w, "exactly as the paper's §3 concludes.")
	return nil
}
