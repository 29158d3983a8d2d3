package session

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"indexedrec/internal/moebius"
	"indexedrec/internal/parallel"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

// randOrdinaryParts builds a random ordinary (distinct-g) chain workload
// split into a prefix system and appended batches: a permutation of cells
// 1..n where each iteration reads an earlier-written (or unwritten) cell.
func randOrdinaryParts(rng *rand.Rand, m, n int) (g, f []int) {
	perm := rng.Perm(m)
	if n > m {
		n = m
	}
	g = make([]int, n)
	f = make([]int, n)
	for i := 0; i < n; i++ {
		g[i] = perm[i]
		f[i] = rng.Intn(m)
	}
	return g, f
}

func TestOrdinarySessionMatchesColdSolve(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	const m, n0, appends, k = 257, 40, 20, 10
	g, f := randOrdinaryParts(rng, m, n0+appends*k)
	init := workload.InitInt64(rng, m, 1000)
	s, err := Open(ctx, Spec{
		Family:  ir.FamilyOrdinary,
		System:  &ir.System{M: m, N: n0, G: g[:n0], F: f[:n0]},
		Op:      "int64-add",
		InitInt: init,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	at := n0
	for b := 0; b < appends; b++ {
		res, err := s.Append(ctx, Batch{G: g[at : at+k], F: f[at : at+k]})
		if err != nil {
			t.Fatalf("Append %d: %v", b, err)
		}
		if res.N != at+k {
			t.Fatalf("Append %d: N = %d, want %d", b, res.N, at+k)
		}
		at += k
	}
	// Bit-identical to a cold plan solve of the concatenated system (the
	// integer ops are exactly associative, so the parallel schedule agrees
	// with the sequential fold bit for bit).
	concat := &ir.System{M: m, N: at, G: g[:at], F: f[:at]}
	plan, err := ir.CompileCtx(ctx, concat, ir.CompileOptions{Family: ir.FamilyOrdinary})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sol, err := plan.SolveCtx(ctx, ir.PlanData{Op: "int64-add", InitInt: init})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	got, _, _ := s.Values()
	for x := range sol.ValuesInt {
		if got[x] != sol.ValuesInt[x] {
			t.Fatalf("cell %d: session %d, cold solve %d", x, got[x], sol.ValuesInt[x])
		}
	}
	if s.N() != at || s.Appends() != appends {
		t.Fatalf("N = %d appends = %d, want %d, %d", s.N(), s.Appends(), at, appends)
	}
	if fp, want := s.Fingerprint(), ir.PlanFingerprint(plan.Family(), plan.N(), plan.M(), concat.G, concat.F, nil, 0); fp != want {
		t.Fatalf("fingerprint %s != concat plan key %s", fp, want)
	}
}

func TestGeneralSessionMatchesOracle(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	sys := workload.RandomGIR(rng, 32, 200)
	init := workload.InitInt64(rng, sys.M, 50)
	s, err := Open(ctx, Spec{
		Family:  ir.FamilyGeneral,
		System:  &ir.System{M: sys.M, N: 0, G: []int{}, F: []int{}},
		Op:      "int64-add",
		InitInt: init,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for at := 0; at < sys.N; at += 17 {
		hi := min(at+17, sys.N)
		if _, err := s.Append(ctx, Batch{G: sys.G[at:hi], F: sys.F[at:hi], H: sys.H[at:hi]}); err != nil {
			t.Fatalf("Append at %d: %v", at, err)
		}
	}
	want := ir.RunSequential[int64](sys, ir.IntAdd{}, init)
	got, _, _ := s.Values()
	for x := range want {
		if got[x] != want[x] {
			t.Fatalf("cell %d: session %d, oracle %d", x, got[x], want[x])
		}
	}
}

// TestGeneralSessionPastExponentLimit opens a general session on a
// Fibonacci prefix whose path counts outgrow MaxExponentBits. A CAP compile
// of that prefix fails with ErrExponentLimit; a session compiles nothing, so
// it opens, and the sequential fold has no exponent to outgrow.
func TestGeneralSessionPastExponentLimit(t *testing.T) {
	ctx := context.Background()
	const bits = 16
	sys := workload.Fibonacci(96)
	if _, err := ir.CompileCtx(ctx, sys, ir.CompileOptions{Family: ir.FamilyGeneral, MaxExponentBits: bits}); !errors.Is(err, ir.ErrExponentLimit) {
		t.Fatalf("compile of the prefix: err = %v, want ErrExponentLimit", err)
	}
	init := make([]int64, sys.M)
	for x := range init {
		init[x] = int64(x%7 + 2)
	}
	const mod = 1_000_003
	n0 := sys.N / 2
	s, err := Open(ctx, Spec{
		Family:          ir.FamilyGeneral,
		System:          &ir.System{M: sys.M, N: n0, G: sys.G[:n0], F: sys.F[:n0], H: sys.H[:n0]},
		Op:              "mul-mod",
		Mod:             mod,
		InitInt:         init,
		MaxExponentBits: bits,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	op, err := ir.IntOpByName("mul-mod", mod)
	if err != nil {
		t.Fatal(err)
	}
	for at := n0; at < sys.N; at += 5 {
		hi := min(at+5, sys.N)
		res, err := s.Append(ctx, Batch{G: sys.G[at:hi], F: sys.F[at:hi], H: sys.H[at:hi]})
		if err != nil {
			t.Fatalf("Append at %d: %v", at, err)
		}
		want := ir.RunSequential[int64](&ir.System{M: sys.M, N: hi, G: sys.G[:hi], F: sys.F[:hi], H: sys.H[:hi]}, op, init)
		for i, x := range sys.G[at:hi] {
			if res.ValuesInt[i] != want[x] {
				t.Fatalf("append at %d, cell %d: session %d, oracle %d", at, x, res.ValuesInt[i], want[x])
			}
		}
	}
	if fp, want := s.Fingerprint(), ir.PlanFingerprint(ir.FamilyGeneral, sys.N, sys.M, sys.G, sys.F, sys.H, bits); fp != want {
		t.Fatalf("fingerprint %s, want %s", fp, want)
	}
}

// TestSessionAppendAllocPerRow feeds a linear session 256 batches of 256
// rows and bounds what an append allocates per row: the fold writes into
// the resume state in place, so only the structure's growth (kept for the
// fingerprint) and the returned values allocate. It also checks SizeBytes
// against the heap the full session retains.
func TestSessionAppendAllocPerRow(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	const batches, k = 256, 256
	const m = batches*k + 1
	const budget = 128 // bytes per appended row
	ctx := context.Background()
	g, f := make([]int, m-1), make([]int, m-1)
	a, b := make([]float64, m-1), make([]float64, m-1)
	for i := range g {
		g[i], f[i], a[i], b[i] = i+1, i, 1, 1
	}
	x0 := make([]float64, m)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	s, err := Open(ctx, Spec{Family: ir.FamilyMoebius, M: m, X0: x0})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for at := 0; at < m-1; at += k {
		if _, err := s.Append(ctx, Batch{G: g[at : at+k], F: f[at : at+k], A: a[at : at+k], B: b[at : at+k]}); err != nil {
			t.Fatalf("Append at %d: %v", at, err)
		}
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(m-1)
	retained := int64(heap() - base)
	t.Logf("append allocates %.1f B/row; SizeBytes %d of retained %d", perRow, s.SizeBytes(), retained)
	if perRow > budget {
		t.Errorf("append allocates %.1f B/row, budget %d", perRow, budget)
	}
	if d := s.SizeBytes() - retained; d > retained/10 || -d > retained/10 {
		t.Errorf("SizeBytes %d is more than 10%% off the retained %d bytes", s.SizeBytes(), retained)
	}
	if _, _, v := s.Values(); v[m-1] != float64(m-1) {
		t.Fatalf("last cell %v, want %d", v[m-1], m-1)
	}
	// The inputs were allocated before base: keep them from being freed
	// inside the retained measurement.
	for _, in := range []any{s, g, f, a, b, x0} {
		runtime.KeepAlive(in)
	}
}

func TestMoebiusSessionMatchesSequential(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(13))
	const m, n0, k = 129, 30, 11
	g, f := randOrdinaryParts(rng, m, n0+4*k)
	n := len(g)
	a, b, c, d := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = 1 + rng.Float64()
		b[i] = rng.Float64()
		c[i] = rng.Float64() * 0.1
		d[i] = 1 + rng.Float64()
	}
	x0 := make([]float64, m)
	for i := range x0 {
		x0[i] = rng.Float64() * 4
	}
	s, err := Open(ctx, Spec{
		Family: ir.FamilyMoebius,
		M:      m, G: g[:n0], F: f[:n0], A: a[:n0], B: b[:n0], C: c[:n0], D: d[:n0],
		X0: x0,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for at := n0; at < n; at += k {
		hi := min(at+k, n)
		_, err := s.Append(ctx, Batch{G: g[at:hi], F: f[at:hi], A: a[at:hi], B: b[at:hi], C: c[at:hi], D: d[at:hi]})
		if err != nil {
			t.Fatalf("Append at %d: %v", at, err)
		}
	}
	ms := &moebius.MoebiusSystem{M: m, G: g, F: f, A: a, B: b, C: c, D: d}
	want := ms.RunSequential(x0)
	_, _, got := s.Values()
	for x := range want {
		if got[x] != want[x] {
			t.Fatalf("cell %d: session %v, sequential %v", x, got[x], want[x])
		}
	}
}

func TestAppendValidationLeavesStateUntouched(t *testing.T) {
	ctx := context.Background()
	s, err := Open(ctx, Spec{
		Family:  ir.FamilyOrdinary,
		System:  &ir.System{M: 4, N: 1, G: []int{1}, F: []int{0}},
		Op:      "int64-add",
		InitInt: []int64{1, 1, 1, 1},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	before, _, _ := s.Values()
	cases := []Batch{
		{G: []int{1}, F: []int{0}},              // rewrites cell 1
		{G: []int{2, 2}, F: []int{0, 0}},        // in-batch duplicate
		{G: []int{9}, F: []int{0}},              // out of range
		{G: []int{2}, F: []int{0, 1}},           // length mismatch
		{G: []int{2}, F: []int{0}, H: []int{0}}, // H on an ordinary session
	}
	for i, b := range cases {
		if _, err := s.Append(ctx, b); err == nil {
			t.Fatalf("case %d: append accepted", i)
		}
		after, _, _ := s.Values()
		for x := range before {
			if after[x] != before[x] {
				t.Fatalf("case %d mutated state at cell %d", i, x)
			}
		}
		if s.N() != 1 {
			t.Fatalf("case %d: N = %d, want 1", i, s.N())
		}
	}
	// A valid cell-2 append must still work after the failed duplicates —
	// the written marks were rolled back.
	if _, err := s.Append(ctx, Batch{G: []int{2}, F: []int{1}}); err != nil {
		t.Fatalf("valid append after failures: %v", err)
	}
}

func TestSessionIterationLimit(t *testing.T) {
	ctx := context.Background()
	s, err := Open(ctx, Spec{
		Family:  ir.FamilyOrdinary,
		System:  &ir.System{M: 8, N: 0, G: []int{}, F: []int{}},
		Op:      "int64-add",
		InitInt: make([]int64, 8),
		MaxN:    2,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := s.Append(ctx, Batch{G: []int{1, 2}, F: []int{0, 1}}); err != nil {
		t.Fatalf("within limit: %v", err)
	}
	if _, err := s.Append(ctx, Batch{G: []int{3}, F: []int{2}}); err == nil {
		t.Fatal("append past MaxN accepted")
	}
}

func TestClosedSessionRefusesAppends(t *testing.T) {
	ctx := context.Background()
	s, err := Open(ctx, Spec{
		Family:  ir.FamilyOrdinary,
		System:  &ir.System{M: 4, N: 0, G: []int{}, F: []int{}},
		Op:      "int64-add",
		InitInt: make([]int64, 4),
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !s.Close() {
		t.Fatal("first Close reported false")
	}
	if s.Close() {
		t.Fatal("second Close reported true")
	}
	if _, err := s.Append(ctx, Batch{G: []int{1}, F: []int{0}}); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func openTestSession(t *testing.T, m int) *Session {
	t.Helper()
	s, err := Open(context.Background(), Spec{
		Family:  ir.FamilyOrdinary,
		System:  &ir.System{M: m, N: 0, G: []int{}, F: []int{}},
		Op:      "int64-add",
		InitInt: make([]int64, m),
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestStoreTTLEvictionUnderConcurrentAppend(t *testing.T) {
	var mu sync.Mutex
	evicted := 0
	st := NewStore(StoreConfig{
		TTL: 20 * time.Millisecond,
		Hooks: Hooks{Closed: func(ev bool) {
			if ev {
				mu.Lock()
				evicted++
				mu.Unlock()
			}
		}},
	})
	defer st.Close()
	const sessions = 8
	ids := make([]string, sessions)
	for i := range ids {
		id, err := st.Put(openTestSession(t, 4096))
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		ids[i] = id
	}
	// Hammer appends while the sweeper evicts: each worker appends until
	// its session is gone; the race detector guards the interleavings and
	// ErrClosed/ErrNotFound are the only acceptable failures.
	var wg sync.WaitGroup
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(id string, cell int) {
			defer wg.Done()
			for i := 0; ; i++ {
				s, err := st.Get(id)
				if err != nil {
					return // evicted
				}
				_, err = s.Append(context.Background(), Batch{G: []int{cell + i}, F: []int{0}})
				if err == ErrClosed {
					return // evicted mid-loop, cleanly
				}
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				st.Touch(id)
				if i >= 200 {
					return
				}
			}
		}(ids[w], 1+w*500)
	}
	wg.Wait()
	// Idle out everything that remains. The sweeper empties the store under
	// its lock and runs the Closed hooks after releasing it, so wait for the
	// hook count too rather than racing it.
	evictedSoFar := func() int {
		mu.Lock()
		defer mu.Unlock()
		return evicted
	}
	deadline := time.Now().Add(2 * time.Second)
	for (st.Len() > 0 || evictedSoFar() == 0) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st.Len() != 0 {
		t.Fatalf("%d sessions survived the TTL", st.Len())
	}
	if evictedSoFar() == 0 {
		t.Fatal("no eviction observed")
	}
}

func TestStoreByteBoundEvictsLRU(t *testing.T) {
	one := openTestSession(t, 64)
	per := one.SizeBytes()
	st := NewStore(StoreConfig{TTL: -1, MaxBytes: per*2 + per/2})
	defer st.Close()
	idA, err := st.Put(one)
	if err != nil {
		t.Fatalf("Put A: %v", err)
	}
	idB, err := st.Put(openTestSession(t, 64))
	if err != nil {
		t.Fatalf("Put B: %v", err)
	}
	st.Touch(idA) // B becomes the LRU
	if _, err := st.Put(openTestSession(t, 64)); err != nil {
		t.Fatalf("Put C: %v", err)
	}
	if _, err := st.Get(idB); err != ErrNotFound {
		t.Fatalf("LRU session B still resident (err = %v)", err)
	}
	if _, err := st.Get(idA); err != nil {
		t.Fatalf("recently used session A evicted: %v", err)
	}
	if st.Bytes() > per*2+per/2 {
		t.Fatalf("store bytes %d exceed bound", st.Bytes())
	}
}

func TestStoreCloseAll(t *testing.T) {
	st := NewStore(StoreConfig{TTL: -1})
	defer st.Close()
	id, err := st.Put(openTestSession(t, 16))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	s, err := st.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	st.CloseAll()
	if !s.Closed() {
		t.Fatal("session not closed by CloseAll")
	}
	if st.Len() != 0 || st.Bytes() != 0 {
		t.Fatalf("store not emptied: len %d bytes %d", st.Len(), st.Bytes())
	}
	if _, err := st.Get(id); err != ErrNotFound {
		t.Fatalf("Get after CloseAll: %v", err)
	}
}
