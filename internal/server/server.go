package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"indexedrec/internal/lang"
	"indexedrec/internal/moebius"
	"indexedrec/internal/ordinary"
	"indexedrec/internal/session"
	"indexedrec/ir"
)

// Config tunes the service; zero values select production defaults.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// QueueDepth bounds the admission queue; a full queue sheds load with
	// HTTP 429 (default 256).
	QueueDepth int
	// Workers is the solve worker pool size (default max(1, GOMAXPROCS/2),
	// so request-level and solver-internal parallelism share the machine).
	Workers int
	// Procs is the per-solve goroutine budget handed to the solvers
	// (default max(1, GOMAXPROCS/Workers)); client-requested procs are
	// clamped to it.
	Procs int
	// DefaultTimeout bounds solves whose request didn't set timeout_ms
	// (default 30s); MaxTimeout clamps client-requested deadlines
	// (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetryAfter is the hint returned with 429/503 responses (default 1s).
	RetryAfter time.Duration
	// MaxRequestBytes bounds request bodies (default 8 MiB); MaxN bounds
	// iterations per request (default 4,194,304): a solve's n, a grid's
	// cells, and the iterations of every level of a loop source.
	MaxRequestBytes int64
	MaxN            int
	// MaxExponentBits caps CAP trace-exponent growth for general solves
	// (default 16384); requests may lower it but not raise it.
	MaxExponentBits int
	// PlanCacheBytes bounds the compiled-plan LRU cache (default 64 MiB).
	// Negative disables plan caching: every request then compiles its plan
	// afresh, recomputing structure each time.
	PlanCacheBytes int64
	// Tenants configures per-tenant admission (WFQ weight, shed priority,
	// queue quota) keyed by the X-IR-Tenant header value. Tenants absent
	// from the map get the zero TenantConfig: weight 1, priority 0, no
	// quota.
	Tenants map[string]TenantConfig
	// SessionTTL evicts streaming sessions idle longer than this (default
	// 5m; negative disables idle eviction). SessionBytes bounds the summed
	// resident size of live sessions (default 256 MiB; negative disables),
	// MaxSessions their count (default 1024; negative disables).
	SessionTTL   time.Duration
	SessionBytes int64
	MaxSessions  int
}

func (c *Config) setDefaults() {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0) / 2
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.Procs <= 0 {
		c.Procs = runtime.GOMAXPROCS(0) / c.Workers
		if c.Procs < 1 {
			c.Procs = 1
		}
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 8 << 20
	}
	if c.MaxN <= 0 {
		c.MaxN = 4 << 20
	}
	if c.MaxExponentBits <= 0 {
		c.MaxExponentBits = 16384
	}
	if c.PlanCacheBytes == 0 {
		c.PlanCacheBytes = 64 << 20
	}
}

// serverMetrics is the service's metrics contract; see DESIGN.md §8.
type serverMetrics struct {
	requests      *CounterVec   // irserved_requests_total{endpoint,code}
	shed          *CounterVec   // irserved_shed_total{endpoint}
	tenantShed    *CounterVec   // irserved_tenant_shed_total{tenant}
	queueDepth    *Gauge        // irserved_queue_depth
	queueCapacity *Gauge        // irserved_queue_capacity
	inflight      *Gauge        // irserved_inflight_requests
	ready         *Gauge        // irserved_ready
	latency       *HistogramVec // irserved_solve_seconds{endpoint}
	sparseSolves  *CounterVec   // irserved_sparse_solves_total{mode}
	planHits      *Counter      // irserved_plan_cache_hits_total
	planMisses    *Counter      // irserved_plan_cache_misses_total
	planEvictions *Counter      // irserved_plan_cache_evictions_total
	planBytes     *Gauge        // irserved_plan_cache_bytes

	sessions             *GaugeVec  // irserved_sessions{state}
	sessionAppends       *Counter   // irserved_session_appends_total
	sessionEvictions     *Counter   // irserved_session_evictions_total
	sessionBytes         *Gauge     // irserved_session_bytes
	sessionAppendLatency *Histogram // irserved_session_append_seconds
}

func newServerMetrics(reg *Registry, depthFn func() float64, capacity int) *serverMetrics {
	m := &serverMetrics{
		requests: reg.NewCounterVec("irserved_requests_total",
			"Requests by endpoint and HTTP status code.", "endpoint", "code"),
		shed: reg.NewCounterVec("irserved_shed_total",
			"Requests shed with 429 because the admission queue was full.", "endpoint"),
		tenantShed: reg.NewCounterVec("irserved_tenant_shed_total",
			"Requests shed per tenant: quota exhaustion, a full queue, or eviction by a higher-priority tenant. Unconfigured tenant names share the \"other\" label.", "tenant"),
		queueDepth: reg.NewGaugeFunc("irserved_queue_depth",
			"Jobs waiting in the admission queue right now.", depthFn),
		queueCapacity: reg.NewGauge("irserved_queue_capacity",
			"Admission queue capacity (QueueDepth)."),
		inflight: reg.NewGauge("irserved_inflight_requests",
			"Solve requests currently admitted and not yet answered."),
		ready: reg.NewGauge("irserved_ready",
			"1 while serving, 0 once draining began."),
		latency: reg.NewHistogramVec("irserved_solve_seconds",
			"End-to-end solve latency (admission queueing included).",
			[]float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10},
			"endpoint"),
		sparseSolves: reg.NewCounterVec("irserved_sparse_solves_total",
			"Sparse-encoded solves by execution mode; \"sparse\", the only mode, replays the compact plan over touched cells.", "mode"),
		planHits: reg.NewCounter("irserved_plan_cache_hits_total",
			"Solves replayed from a cached compiled plan."),
		planMisses: reg.NewCounter("irserved_plan_cache_misses_total",
			"Solves that compiled a plan because none was cached."),
		planEvictions: reg.NewCounter("irserved_plan_cache_evictions_total",
			"Compiled plans evicted to respect the cache byte bound."),
		planBytes: reg.NewGauge("irserved_plan_cache_bytes",
			"Resident bytes of cached compiled plans."),
		sessions: reg.NewGaugeVec("irserved_sessions",
			"Streaming sessions by state: \"open\" counts resident sessions, \"closed\" the cumulative total that ended (deleted, drained or evicted).", "state"),
		sessionAppends: reg.NewCounter("irserved_session_appends_total",
			"Append batches folded into streaming sessions."),
		sessionEvictions: reg.NewCounter("irserved_session_evictions_total",
			"Streaming sessions evicted by the idle TTL or the byte/count bounds."),
		sessionBytes: reg.NewGauge("irserved_session_bytes",
			"Resident bytes of live streaming sessions."),
		sessionAppendLatency: reg.NewHistogram("irserved_session_append_seconds",
			"End-to-end session append latency (admission queueing included).",
			[]float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1}),
	}
	m.queueCapacity.Set(int64(capacity))
	m.ready.Set(1)
	return m
}

// planCacheMetrics packs the plan-cache slice of the server metrics into the
// exported form NewPlanCache accepts.
func (m *serverMetrics) planCacheMetrics() PlanCacheMetrics {
	return PlanCacheMetrics{
		Hits:      m.planHits,
		Misses:    m.planMisses,
		Evictions: m.planEvictions,
		Bytes:     m.planBytes,
	}
}

// Server is the solve service. Create with New, mount Handler (or use
// ListenAndServe), stop with Shutdown.
type Server struct {
	cfg     Config
	reg     *Registry
	metrics *serverMetrics
	pool    *pool
	// plans caches compiled solve plans by fingerprint; nil when
	// Config.PlanCacheBytes is negative (caching disabled).
	plans *PlanCache
	// sessions owns the live streaming sessions (see internal/session);
	// sessionOpen/sessionClosed back the irserved_sessions gauge because
	// store hooks fire under the store lock and must not call back into it.
	sessions      *session.Store
	sessionOpen   atomic.Int64
	sessionClosed atomic.Int64
	mux           *http.ServeMux
	draining      atomic.Bool
	inflight      sync.WaitGroup
	shutOnce      sync.Once
	// base parents every request ctx; Shutdown cancels it when its own ctx
	// ends before the drain does.
	base       context.Context
	cancelBase context.CancelFunc

	// testHook, when non-nil, runs on the worker goroutine before each
	// solve — tests use it to hold workers busy deterministically.
	testHook func()
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg.setDefaults()
	s := &Server{cfg: cfg, reg: NewRegistry()}
	s.base, s.cancelBase = context.WithCancel(context.Background())
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, cfg.Procs, cfg.Tenants,
		func(tenant string) { s.metrics.tenantShed.Inc(s.shedLabel(tenant)) })
	s.metrics = newServerMetrics(s.reg,
		func() float64 { return float64(s.pool.depth()) },
		cfg.QueueDepth)
	if cfg.PlanCacheBytes > 0 {
		s.plans = NewPlanCache(cfg.PlanCacheBytes, s.metrics.planCacheMetrics())
	}
	s.sessions = session.NewStore(session.StoreConfig{
		TTL:         cfg.SessionTTL,
		MaxBytes:    cfg.SessionBytes,
		MaxSessions: cfg.MaxSessions,
		Hooks: session.Hooks{
			Opened: func() { s.metrics.sessions.Set(s.sessionOpen.Add(1), "open") },
			Closed: func(evicted bool) {
				s.metrics.sessions.Set(s.sessionOpen.Add(-1), "open")
				s.metrics.sessions.Set(s.sessionClosed.Add(1), "closed")
				if evicted {
					s.metrics.sessionEvictions.Inc()
				}
			},
			Bytes: func(total int64) { s.metrics.sessionBytes.Set(total) },
		},
	})
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for _, route := range Routes {
		exec := s.execSolve(route)
		s.mux.HandleFunc("POST "+APIPrefix+route, func(w http.ResponseWriter, r *http.Request) {
			s.handleSolve(w, r, route, exec)
		})
	}
	s.mux.HandleFunc("POST "+APIPrefix+"loop", func(w http.ResponseWriter, r *http.Request) {
		s.handleSolve(w, r, "loop", s.execLoop)
	})
	s.mux.HandleFunc("POST "+ShardPrefix+"solve", func(w http.ResponseWriter, r *http.Request) {
		s.handleSolve(w, r, "shard", s.execShard)
	})
	s.mux.HandleFunc("GET /version", s.handleVersion)
	s.sessionRoutes()
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the metrics registry (the example prints from it).
func (s *Server) Registry() *Registry { return s.reg }

// ListenAndServe serves on cfg.Addr until ctx is cancelled, then drains
// gracefully: readyz flips to 503, in-flight solves finish under their own
// deadlines, and the listener closes. A second ctx cancellation is not
// needed; drain is bounded by the longest per-request deadline.
func (s *Server) ListenAndServe(ctx context.Context) error {
	hs := &http.Server{Addr: s.cfg.Addr, Handler: s.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.MaxTimeout)
	defer cancel()
	err := s.Shutdown(drainCtx)
	if herr := hs.Shutdown(drainCtx); err == nil {
		err = herr
	}
	<-errCh // ListenAndServe has returned http.ErrServerClosed
	return err
}

// Shutdown drains the service: new solve requests are refused with 503,
// and queued and running solves and appends finish under their own
// deadlines. If ctx ends first, Shutdown cancels every in-flight request
// (each answers 503), waits for their handlers to return, and reports the
// interrupted drain. Either way it then closes every session and stops the
// worker pool. Safe to call once; later calls return nil immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.shutOnce.Do(func() {
		defer s.cancelBase()
		s.draining.Store(true)
		s.metrics.ready.Set(0)
		done := make(chan struct{})
		go func() {
			s.inflight.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			err = fmt.Errorf("server: drain interrupted: %w", ctx.Err())
			s.cancelBase()
			<-done
		}
		// Drain the streaming sessions after in-flight appends finished: every
		// open session closes (later appends answer 404) and the idle sweeper
		// stops.
		s.sessions.CloseAll()
		s.sessions.Close()
		s.pool.close()
	})
	return err
}

// ---------------------------------------------------------------- handlers

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeText(w, "healthz", http.StatusOK, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		s.writeText(w, "readyz", http.StatusServiceUnavailable, "draining\n")
		return
	}
	s.writeText(w, "readyz", http.StatusOK, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = s.reg.WriteTo(w)
	s.metrics.requests.Inc("metrics", "200")
}

// runFunc is the closure a pool worker runs for one admitted request.
type runFunc func(ctx context.Context) (any, error)

// execFunc decodes and validates a request body once, returning the closure
// a pool worker will run plus the request's timeout_ms; validation errors
// surface before admission as 4xx.
type execFunc func(body []byte) (run runFunc, timeoutMs int, err error)

// handleSolve is the one path for every solve endpoint and the session
// open: admit with a body over the limit answering 400, timed into
// irserved_solve_seconds.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request, endpoint string, exec execFunc) {
	s.admit(w, r, endpoint, exec, http.StatusBadRequest, func(seconds float64) {
		s.metrics.latency.With(endpoint).Observe(seconds)
	})
}

// admit is the admission path every pooled request takes: the draining
// gate, the body read (a body over MaxRequestBytes answers tooLarge),
// exec's decode, the pool submission under the request's deadline, shed
// handling and the wait, which observe times. It answers the outcome
// itself: the run's value as JSON, or its error by StatusForSolve.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, endpoint string, exec execFunc, tooLarge int, observe func(seconds float64)) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	s.metrics.inflight.Inc()
	defer s.metrics.inflight.Dec()
	start := time.Now()
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		s.writeError(w, endpoint, http.StatusServiceUnavailable, "draining")
		return
	}
	body, werr := ReadBody(w, r, s.cfg.MaxRequestBytes)
	if werr != nil {
		code := http.StatusBadRequest
		if errors.Is(werr, errBodyTooLarge) {
			code = tooLarge
		}
		s.writeError(w, endpoint, code, werr.Error())
		return
	}
	run, timeoutMs, err := exec(body)
	if err != nil {
		s.writeError(w, endpoint, StatusForValidation(err), err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, timeoutMs)
	defer cancel()

	type outcome struct {
		v   any
		err error
	}
	res := make(chan outcome, 1)
	j := &job{ctx: ctx, tenant: tenantOf(r), run: func(jctx context.Context) {
		if err := jctx.Err(); err != nil {
			res <- outcome{err: err}
			return
		}
		if s.testHook != nil {
			s.testHook()
		}
		v, err := run(jctx)
		res <- outcome{v: v, err: err}
	}}
	// shed makes the queued job evictable under priority shedding; the
	// buffered res channel means delivery never blocks the pool.
	j.shed = func() { res <- outcome{err: errShed} }
	if err := s.pool.submit(j); err != nil {
		s.refuse(w, endpoint, err)
		return
	}
	select {
	case out := <-res:
		observe(time.Since(start).Seconds())
		if errors.Is(out.err, errShed) {
			// Evicted from the queue by a higher-priority tenant.
			s.refuse(w, endpoint, out.err)
			return
		}
		if out.err != nil {
			s.writeError(w, endpoint, StatusForSolve(out.err), out.err.Error())
			return
		}
		s.writeBody(w, r, endpoint, http.StatusOK, out.v)
	case <-ctx.Done():
		// Deadline or client disconnect while queued/solving; the worker
		// will observe ctx and abandon the solve.
		observe(time.Since(start).Seconds())
		s.writeError(w, endpoint, StatusForSolve(ctx.Err()), ctx.Err().Error())
	}
}

// ------------------------------------------------------------ direct execs

// execSolve is the exec of one solve route: decode with Decode, then replay.
func (s *Server) execSolve(route string) execFunc {
	return func(body []byte) (runFunc, int, error) {
		req, err := Decode(route, body, s.limits())
		if err != nil {
			return nil, 0, err
		}
		return s.replay(req, nil), req.TimeoutMs, nil
	}
}

// execShard is the exec of the worker role's /v1/shard/solve. A
// coordinator (internal/cluster) cuts a compiled plan's shard domain with
// ir.Plan.Partition and scatters the slices here; the worker compiles — or
// cache-loads, since the body carries the same structure the fingerprint
// hashes — the plan and executes its slice. Shard solves go through the
// same admission pool, deadlines, and load-shedding as whole solves, so a
// worker that also takes direct traffic degrades both honestly rather than
// either silently.
func (s *Server) execShard(body []byte) (runFunc, int, error) {
	req, sh, err := DecodeShard(body, s.limits())
	if err != nil {
		return nil, 0, err
	}
	return s.replay(req, &sh), req.TimeoutMs, nil
}

// replay clamps the request's procs and returns the pool closure every
// solve and shard runs: resolve the plan through the cache (compiling on a
// miss), replay it whole — or shard sh of it — and shape the response.
func (s *Server) replay(req *SolveRequest, sh *ir.Shard) runFunc {
	req.Data.Opts.Procs = s.clampProcs(req.Data.Opts.Procs)
	return func(ctx context.Context) (any, error) {
		start := time.Now()
		if req.Sparse != nil && sh == nil { // whole solves only, as the metric counts
			s.metrics.sparseSolves.Inc("sparse")
		}
		p, err := PlanFor(s.plans, ctx, req.Fingerprint(), req.Compile)
		if err != nil {
			return nil, err
		}
		// The plan holds all the replay needs of the structure, so g and f
		// (2 MiB at 131,072 cells) need not stay live through the solve and
		// the response encode.
		req.Sys = nil
		if sh != nil {
			part, err := req.SolveShard(ctx, p, *sh)
			if err == nil {
				err = checkShardFinite(part)
			}
			if err != nil {
				return nil, err
			}
			return shardResponse(part, time.Since(start)), nil
		}
		sol, err := p.SolveCtx(ctx, req.Data)
		if err == nil {
			err = CheckFinite("values_float", sol.ValuesFloat)
		}
		if err != nil {
			return nil, err
		}
		return req.Response(sol, time.Since(start)), nil
	}
}

// execLoop is the exec of /v1/solve/loop: each parallel leaf of the loop
// is a SolveRequest whose plan comes through the cache, as on every route.
func (s *Server) execLoop(body []byte) (runFunc, int, error) {
	var req LoopRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, 0, fmt.Errorf("bad request body: %v", err)
	}
	if req.Loop == "" {
		return nil, 0, fmt.Errorf("missing \"loop\" source")
	}
	loop, err := ir.ParseLoop(req.Loop)
	if err != nil {
		return nil, 0, err
	}
	c := ir.CompileLoop(loop)
	procs := s.clampProcs(req.Opts.Procs)
	solve := func(ctx context.Context, leaf *lang.Leaf) ([]float64, error) {
		r := &SolveRequest{}
		r.Family, r.Sys, r.Data = ir.LoopLeaf(leaf)
		r.Data.Opts.Procs = procs
		if r.Family == ir.FamilyGeneral {
			r.Bits, r.Terms = s.cfg.MaxExponentBits, s.limits().CompileTerms(r.Sys.N)
		}
		p, err := PlanFor(s.plans, ctx, r.Fingerprint(), r.Compile)
		if err != nil {
			return nil, err
		}
		return ir.LoopValues(ctx, p, r.Data)
	}
	return func(ctx context.Context) (any, error) {
		start := time.Now()
		env := ir.NewEnv()
		env.MaxIters = s.cfg.MaxN
		if req.N != 0 {
			env.Scalars["n"] = float64(req.N)
		}
		for k, v := range req.Scalars {
			env.Scalars[k] = v
		}
		for k, v := range req.Arrays {
			env.Arrays[k] = append([]float64(nil), v...)
		}
		if err := c.Drive(ctx, env, solve); err != nil {
			return nil, err
		}
		if err := checkArraysFinite(env.Arrays); err != nil {
			return nil, err
		}
		return LoopResponse{
			Analysis:  c.Analysis.Describe(),
			Strategy:  c.Strategy(),
			Arrays:    env.Arrays,
			ElapsedMs: ms(start),
		}, nil
	}, req.Opts.TimeoutMs, nil
}

// checkArraysFinite refuses a loop result that JSON cannot carry: the
// first NaN or ±Inf, by array name and then index, wraps ir.ErrNonFinite.
func checkArraysFinite(arrays map[string][]float64) error {
	for _, name := range slices.Sorted(maps.Keys(arrays)) {
		if err := CheckFinite(name, arrays[name]); err != nil {
			return err
		}
	}
	return nil
}

// CheckFinite refuses float values JSON cannot carry: the first NaN or
// ±Inf wraps ir.ErrNonFinite (422), never a 5xx a coordinator's breaker
// would count. Replays, shards, sessions and ircoord's answers all pass it.
func CheckFinite(name string, values []float64) error {
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %s[%d] = %v", ir.ErrNonFinite, name, i, v)
		}
	}
	return nil
}

// checkShardFinite is CheckFinite for a shard's float values, naming the
// first bad value by its index in the whole answer (its owned cell, or its
// offset from the shard's first cell), as the whole solve's check would.
func checkShardFinite(part *ir.ShardSolution) error {
	for i, v := range part.ValuesFloat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			cell := part.Shard.Lo + i
			if part.Cells != nil {
				cell = part.Cells[i]
			}
			return fmt.Errorf("%w: values_float[%d] = %v", ir.ErrNonFinite, cell, v)
		}
	}
	return nil
}

// ---------------------------------------------------------------- plumbing

// limits is the decode bound DecodeSolve applies for this server.
func (s *Server) limits() Limits {
	return Limits{MaxN: s.cfg.MaxN, MaxExponentBits: s.cfg.MaxExponentBits}
}

// clampProcs resolves a client-requested procs count against the server's
// per-solve budget.
func (s *Server) clampProcs(req int) int {
	if req <= 0 || req > s.cfg.Procs {
		return s.cfg.Procs
	}
	return req
}

// requestContext derives the solve ctx: the request's own ctx (cancelled on
// client disconnect) bounded by the effective deadline, and cancelled too
// when an interrupted Shutdown cancels the server's base ctx.
func (s *Server) requestContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	stop := context.AfterFunc(s.base, cancel)
	return ctx, func() {
		stop()
		cancel()
	}
}

// refuse answers an admission failure: 429 + Retry-After for a full queue
// or a spent tenant quota, 503 for draining.
func (s *Server) refuse(w http.ResponseWriter, endpoint string, err error) {
	w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
	if errors.Is(err, errDraining) {
		s.writeError(w, endpoint, http.StatusServiceUnavailable, "draining")
		return
	}
	s.metrics.shed.Inc(endpoint)
	if errors.Is(err, errTenantShed) {
		s.writeError(w, endpoint, http.StatusTooManyRequests,
			"tenant queue quota exceeded, retry later")
		return
	}
	s.writeError(w, endpoint, http.StatusTooManyRequests,
		fmt.Sprintf("admission queue full (capacity %d), retry later", s.cfg.QueueDepth))
}

// shedLabel bounds the irserved_tenant_shed_total label set: configured
// tenants (plus the default one) keep their own label, while
// arbitrary unconfigured X-IR-Tenant values fold into "other" so a client
// inventing tenant names cannot grow the metric series without bound.
func (s *Server) shedLabel(tenant string) string {
	if tenant == DefaultTenant {
		return tenant
	}
	if _, ok := s.cfg.Tenants[tenant]; ok {
		return tenant
	}
	return "other"
}

// tenantOf names the request's admission tenant from the X-IR-Tenant
// header; absent means DefaultTenant.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

func retryAfterSeconds(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// StatusForValidation maps pre-admission errors (all client mistakes) to
// 400, except an unknown session id (404) and sparse-encoding defects — an
// unsorted, duplicated or out-of-range touched-cell list, compact ids off
// the cell list, a wrong-length compact init — which answer 422: the
// request parsed but its sparse encoding is semantically unprocessable.
// Shared with the coordinator front-end, like StatusForSolve.
func StatusForValidation(err error) int {
	switch {
	case errors.Is(err, ir.ErrInvalidSparse):
		return http.StatusUnprocessableEntity
	case errors.Is(err, session.ErrNotFound):
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// StatusForSolve maps the errors of a pooled run — a solve, a shard, a
// session open or append — to HTTP statuses. irserved and the coordinator
// front-end share it, so the two daemons answer every error type alike.
// Defects of the request that only the compile, the replay or the session
// finds (a repeated g in the ordinary family, a Möbius shard's x0 of the
// wrong length, a loop that reads an unbound name or runs more iterations
// than MaxN, an append past MaxN or with H on an ordinary session) are
// client errors too; a session closed or evicted under an append reads as
// gone (404, the post-delete view), and a full session store as 507.
func StatusForSolve(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, session.ErrClosed), errors.Is(err, session.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, session.ErrStoreFull):
		return http.StatusInsufficientStorage
	case errors.Is(err, ir.ErrInvalidSystem), errors.Is(err, moebius.ErrBadSystem),
		errors.Is(err, ir.ErrShard), errors.Is(err, ordinary.ErrGNotDistinct),
		errors.Is(err, moebius.ErrInitLen), errors.Is(err, ir.ErrPlanFamily),
		errors.Is(err, session.ErrLimit),
		errors.Is(err, lang.ErrRange), errors.Is(err, lang.ErrEval), errors.Is(err, lang.ErrLower):
		return http.StatusBadRequest
	case errors.Is(err, ir.ErrNonFinite), errors.Is(err, ir.ErrGrid2DNonFinite),
		errors.Is(err, ir.ErrExponentLimit), errors.Is(err, ir.ErrInvalidSparse),
		errors.Is(err, ir.ErrCompileBudget):
		return http.StatusUnprocessableEntity
	default: // worker panics (parallel.PanicError) included
		return http.StatusInternalServerError
	}
}

// writeBody answers v through WriteBody, packed when r asks for it.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, endpoint string, code int, v any) {
	s.metrics.requests.Inc(endpoint, strconv.Itoa(WriteBody(w, r, code, v)))
}

func (s *Server) writeError(w http.ResponseWriter, endpoint string, code int, msg string) {
	s.writeBody(w, nil, endpoint, code, ErrorResponse{Error: msg, Code: code})
}

func (s *Server) writeText(w http.ResponseWriter, endpoint string, code int, body string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	_, _ = w.Write([]byte(body))
	s.metrics.requests.Inc(endpoint, strconv.Itoa(code))
}

func ms(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
