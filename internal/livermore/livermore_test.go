package livermore

import (
	"math"
	"testing"

	"indexedrec/internal/lang"
	"indexedrec/ir"
)

const testN = 64

func TestAllKernelsPresent(t *testing.T) {
	ks := All()
	if len(ks) != 24 {
		t.Fatalf("got %d kernels, want 24", len(ks))
	}
	for i, k := range ks {
		if k.ID != i+1 {
			t.Fatalf("kernel %d has ID %d", i, k.ID)
		}
		if k.Name == "" || k.Setup == nil || k.Native == nil || k.Out == "" {
			t.Fatalf("kernel %d incomplete", k.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if k := ByID(23); k == nil || k.ID != 23 {
		t.Fatal("ByID(23) failed")
	}
	if ByID(99) != nil {
		t.Fatal("ByID(99) should be nil")
	}
}

func TestNativesRunFiniteAndDeterministic(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			e1 := k.Setup(testN)
			k.Native(testN, e1)
			e2 := k.Setup(testN)
			k.Native(testN, e2)
			out1, out2 := e1.Arrays[k.Out], e2.Arrays[k.Out]
			if len(out1) == 0 {
				t.Fatalf("kernel %d: empty output array %q", k.ID, k.Out)
			}
			for i := range out1 {
				if math.IsNaN(out1[i]) || math.IsInf(out1[i], 0) {
					t.Fatalf("kernel %d: non-finite output at %d: %v", k.ID, i, out1[i])
				}
				if out1[i] != out2[i] {
					t.Fatalf("kernel %d: non-deterministic at %d", k.ID, i)
				}
			}
		})
	}
}

func TestDSLMatchesNative(t *testing.T) {
	// For every kernel with a DSL encoding, interpreting the DSL on a
	// fresh environment must produce exactly the same arrays as the
	// native implementation (they encode the same loop).
	for _, k := range All() {
		if k.DSL == "" {
			continue
		}
		k := k
		t.Run(k.Name, func(t *testing.T) {
			loop, err := lang.Parse(k.DSL)
			if err != nil {
				t.Fatalf("kernel %d DSL: %v", k.ID, err)
			}
			envDSL := k.Setup(testN)
			if err := lang.Run(loop, envDSL); err != nil {
				t.Fatalf("kernel %d DSL run: %v", k.ID, err)
			}
			envNat := k.Setup(testN)
			k.Native(testN, envNat)
			for name, want := range envNat.Arrays {
				got := envDSL.Arrays[name]
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-12*math.Max(1, math.Abs(want[i])) {
						t.Fatalf("kernel %d array %s[%d]: DSL %v, native %v",
							k.ID, name, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestDSLKernelsParallelizeCorrectly(t *testing.T) {
	// Every DSL kernel whose classified form has a parallel strategy must
	// produce the sequential result through ir.Compiled.Execute.
	for _, k := range All() {
		if k.DSL == "" {
			continue
		}
		k := k
		t.Run(k.Name, func(t *testing.T) {
			loop, err := lang.Parse(k.DSL)
			if err != nil {
				t.Fatal(err)
			}
			seq := k.Setup(testN)
			if err := lang.Run(loop, seq); err != nil {
				t.Fatal(err)
			}
			par := k.Setup(testN)
			if err := ir.CompileLoop(loop).Execute(par, 4); err != nil {
				t.Fatalf("kernel %d Execute: %v", k.ID, err)
			}
			for name, want := range seq.Arrays {
				got := par.Arrays[name]
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
						t.Fatalf("kernel %d array %s[%d]: parallel %v, sequential %v",
							k.ID, name, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestLivermoreClassification(t *testing.T) {
	rows, err := ClassificationTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 24 {
		t.Fatalf("%d rows", len(rows))
	}
	byID := make(map[int]Row, 24)
	for _, r := range rows {
		byID[r.ID] = r
	}
	// The paper-legible anchors.
	for _, id := range []int{7, 8} {
		if byID[id].Curated.Bucket != lang.BucketNone {
			t.Errorf("kernel %d: curated %v, paper says no recurrence", id, byID[id].Curated.Bucket)
		}
	}
	if byID[5].Curated.Bucket != lang.BucketLinear {
		t.Errorf("kernel 5: curated %v, paper says linear recurrence", byID[5].Curated.Bucket)
	}
	if byID[23].Curated.Bucket != lang.BucketIndexed {
		t.Errorf("kernel 23: curated %v, paper says indexed recurrence", byID[23].Curated.Bucket)
	}
	// The mechanical classifier must agree with the curated bucket for
	// every DSL-encoded kernel except kernel 2, where disjointness needs
	// index analysis the syntactic framework deliberately lacks.
	for _, r := range rows {
		if r.DSLForm == "n/a" {
			continue
		}
		if r.ID == 2 {
			if r.Agree {
				t.Errorf("kernel 2: expected documented disagreement, got agreement")
			}
			continue
		}
		if !r.Agree {
			t.Errorf("kernel %d (%s): classifier %v (%s) vs curated %v",
				r.ID, r.Name, r.DSLBucket, r.DSLForm, r.Curated.Bucket)
		}
	}
}

func TestBucketCounts(t *testing.T) {
	counts := BucketCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 24 {
		t.Fatalf("bucket counts sum to %d: %v", total, counts)
	}
	if counts[lang.BucketIndexed] < 3 {
		t.Errorf("expected at least the anchors 13, 14, 23 indexed: %v", counts)
	}
}

func TestKernel23IsPaperExample(t *testing.T) {
	k := ByID(23)
	loop, err := lang.Parse(k.DSL)
	if err != nil {
		t.Fatal(err)
	}
	an := lang.Analyze(loop)
	if an.Form != lang.FormLinearExtended {
		t.Fatalf("kernel 23 form = %v (%s), want extended linear (the Möbius example)",
			an.Form, an.Reason)
	}
}

func TestFullVariantsRunFiniteAndDeterministic(t *testing.T) {
	for _, fk := range FullVariants() {
		fk := fk
		t.Run(fk.Name, func(t *testing.T) {
			e1 := fk.Setup(256)
			fk.Run(256, e1)
			e2 := fk.Setup(256)
			fk.Run(256, e2)
			out1, out2 := e1.Arrays[fk.Out], e2.Arrays[fk.Out]
			if len(out1) == 0 {
				t.Fatalf("empty output %q", fk.Out)
			}
			sum := 0.0
			for i := range out1 {
				if math.IsNaN(out1[i]) || math.IsInf(out1[i], 0) {
					t.Fatalf("non-finite at %d: %v", i, out1[i])
				}
				if out1[i] != out2[i] {
					t.Fatalf("non-deterministic at %d", i)
				}
				sum += math.Abs(out1[i])
			}
			if sum == 0 {
				t.Fatal("kernel produced all zeros — probably did nothing")
			}
		})
	}
}

func TestFullKernel21MatchesNaiveProduct(t *testing.T) {
	fk := FullVariants()[4]
	if fk.ID != 21 {
		t.Fatal("variant ordering changed")
	}
	n := 64
	e := fk.Setup(n)
	vy, cx := e.Arrays["VY"], e.Arrays["CX"]
	d := int(e.Scalars["d"])
	want := make([]float64, d*d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			for k := 0; k < n; k++ {
				want[i*d+j] += vy[i*n+k] * cx[k*d+j]
			}
		}
	}
	fk.Run(n, e)
	for i := range want {
		if math.Abs(e.Arrays["PX"][i]-want[i]) > 1e-9 {
			t.Fatalf("PX[%d] = %v, want %v", i, e.Arrays["PX"][i], want[i])
		}
	}
}
