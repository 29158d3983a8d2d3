package cluster

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
)

// The coordinator's HTTP front-end speaks the same /v1/solve API as a
// single irserved, so clients point at a coordinator without changing a
// line: ordinary, general, linear, moebius and grid2d solves scatter across
// the fleet, /v1/solve/loop answers 501 (loop execution is whole-machine by
// construction), and /healthz, /readyz, /metrics, /version behave as on
// irserved. /v1/cluster/workers reports the fleet view.

func (co *Coordinator) routes() {
	co.mux = http.NewServeMux()
	co.allowed = make(map[string][]string)
	co.handle("GET", "/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	co.handle("GET", "/readyz", func(w http.ResponseWriter, r *http.Request) {
		// The coordinator is ready even with zero workers: solves degrade
		// to local execution rather than failing.
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	co.handle("GET", "/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = co.reg.WriteTo(w)
	})
	co.handle("GET", "/version", func(w http.ResponseWriter, r *http.Request) {
		co.writeBody(w, r, "version", http.StatusOK, server.BuildVersion())
	})
	co.handle("GET", server.ClusterPrefix+"workers", co.handleWorkers)
	co.handle("POST", server.ClusterPrefix+"register", co.handleRegister)
	co.handle("POST", server.ClusterPrefix+"heartbeat", co.handleHeartbeat)
	co.handle("POST", server.ClusterPrefix+"deregister", co.handleDeregister)
	co.sessionRoutes()
	for _, route := range server.Routes {
		co.handle("POST", server.APIPrefix+route, func(w http.ResponseWriter, r *http.Request) {
			co.handleSolve(w, r, route)
		})
	}
	co.handle("POST", server.APIPrefix+"loop", func(w http.ResponseWriter, r *http.Request) {
		co.writeError(w, "loop", http.StatusNotImplemented,
			"loop execution is not distributed; POST /v1/solve/loop to a worker directly")
	})
	co.fallbackRoutes()
}

// handle registers h for "METHOD path" and records the method under the
// path so fallbackRoutes can answer mismatches with the JSON wire error
// schema instead of the mux's plain-text pages.
func (co *Coordinator) handle(method, path string, h http.HandlerFunc) {
	co.mux.HandleFunc(method+" "+path, h)
	co.allowed[path] = append(co.allowed[path], method)
}

// fallbackRoutes closes the plain-text gaps a bare ServeMux leaves: a known
// path hit with the wrong method gets a 405 with an Allow header, and any
// unknown path gets a 404 — both as server.ErrorResponse JSON, the same
// schema every implemented endpoint (and irserved) speaks, so clients never
// need a second error decoder for the coordinator's edges.
func (co *Coordinator) fallbackRoutes() {
	for path, methods := range co.allowed {
		allow := strings.Join(methods, ", ")
		co.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", allow)
			co.writeError(w, "unmatched", http.StatusMethodNotAllowed,
				fmt.Sprintf("method %s not allowed for %s (allow: %s)", r.Method, r.URL.Path, allow))
		})
	}
	co.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		co.writeError(w, "unmatched", http.StatusNotFound,
			fmt.Sprintf("no such endpoint %s (solve endpoints live under %s)", r.URL.Path, server.APIPrefix))
	})
}

// Handler returns the coordinator's HTTP handler.
func (co *Coordinator) Handler() http.Handler { return co.mux }

// drainTimeout bounds how long ListenAndServe lets in-flight requests
// finish after its ctx is cancelled.
const drainTimeout = 30 * time.Second

// ListenAndServe serves the coordinator API on addr until ctx is cancelled,
// then drains: the listener closes and in-flight requests get drainTimeout
// to finish. Requests still running then are cancelled, and answer 503.
func (co *Coordinator) ListenAndServe(ctx context.Context, addr string) error {
	if addr == "" {
		addr = ":http" // as http.Server.ListenAndServe
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return co.serve(ctx, ln, drainTimeout)
}

// serve is ListenAndServe on a bound listener, draining for up to drain.
func (co *Coordinator) serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	hs := &http.Server{Handler: co.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := hs.Shutdown(drainCtx)
	if err != nil {
		// The drain deadline passed: cancel what is still running, and give
		// those handlers as long again to write their error answers before
		// the connections close under them.
		co.cancelBase()
		graceCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if hs.Shutdown(graceCtx) != nil {
			hs.Close()
		}
		err = fmt.Errorf("ircluster: drain interrupted: %w", err)
	}
	<-errCh // Serve has returned http.ErrServerClosed
	co.Close()
	return err
}

// WorkerStatus is one row of GET /v1/cluster/workers.
type WorkerStatus struct {
	// Name is the worker's configured or registered address.
	Name string `json:"name"`
	// Up reports liveness: the last probe for static workers, an unexpired
	// lease for registered ones.
	Up bool `json:"up"`
	// Version is the build the worker reported at registration.
	Version string `json:"version,omitempty"`
	// Dynamic marks a self-registered, lease-governed member.
	Dynamic bool `json:"dynamic,omitempty"`
	// LeaseMs is the time left on a dynamic member's lease.
	LeaseMs int64 `json:"lease_ms,omitempty"`
	// Breaker is the circuit-breaker state: closed, half-open or open.
	Breaker string `json:"breaker"`
}

func (co *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	members := co.memberList()
	out := make([]WorkerStatus, 0, len(members))
	for _, wk := range members {
		wk.mu.Lock()
		st := WorkerStatus{
			Name:    wk.name,
			Up:      wk.up,
			Version: wk.version,
			Dynamic: wk.dynamic,
			Breaker: breakerStateName(wk.br.snapshot()),
		}
		if wk.dynamic {
			if left := time.Until(wk.lease); left > 0 {
				st.LeaseMs = left.Milliseconds()
			}
		}
		wk.mu.Unlock()
		out = append(out, st)
	}
	co.writeBody(w, r, "workers", http.StatusOK, out)
}

// authorizeMember gates the membership endpoints behind the shared cluster
// token when one is configured, answering 401 (and reporting false) on a
// missing or wrong token. Without a token the endpoints are open — the
// deployment must then keep the cluster API on a trusted network, since
// membership writes control where shard payloads are routed.
func (co *Coordinator) authorizeMember(w http.ResponseWriter, r *http.Request, endpoint string) bool {
	if co.cfg.ClusterToken == "" {
		return true
	}
	got := r.Header.Get(server.ClusterTokenHeader)
	if subtle.ConstantTimeCompare([]byte(got), []byte(co.cfg.ClusterToken)) == 1 {
		return true
	}
	co.writeError(w, endpoint, http.StatusUnauthorized,
		"missing or invalid "+server.ClusterTokenHeader+" cluster token")
	return false
}

// handleRegister admits a self-registering worker into the fleet and
// grants it a heartbeat lease.
func (co *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	if !co.authorizeMember(w, r, "register") {
		return
	}
	var req server.RegisterRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		co.writeError(w, "register", http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if req.Addr == "" {
		co.writeError(w, "register", http.StatusBadRequest, "missing \"addr\"")
		return
	}
	lease := co.register(req.Addr, req.Version)
	co.writeBody(w, r, "register", http.StatusOK, server.RegisterResponse{LeaseMs: lease.Milliseconds()})
}

// handleHeartbeat renews a registered worker's lease; unknown members get
// 404 and should re-register.
func (co *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !co.authorizeMember(w, r, "heartbeat") {
		return
	}
	var req server.MemberRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		co.writeError(w, "heartbeat", http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if !co.renew(req.Addr) {
		co.writeError(w, "heartbeat", http.StatusNotFound,
			fmt.Sprintf("unknown member %q, re-register", req.Addr))
		return
	}
	co.writeBody(w, r, "heartbeat", http.StatusOK, server.RegisterResponse{LeaseMs: co.cfg.LeaseTTL.Milliseconds()})
}

// handleDeregister removes a draining worker from the fleet.
func (co *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if !co.authorizeMember(w, r, "deregister") {
		return
	}
	var req server.MemberRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		co.writeError(w, "deregister", http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	co.deregister(req.Addr)
	co.writeBody(w, r, "deregister", http.StatusOK, map[string]string{"status": "ok"})
}

// handleSolve is the path of every solve route: decode, distribute,
// respond.
func (co *Coordinator) handleSolve(w http.ResponseWriter, r *http.Request, route string) {
	start := time.Now()
	body, err := server.ReadBody(w, r, co.maxBody)
	if err != nil {
		co.writeError(w, route, http.StatusBadRequest, err.Error())
		return
	}
	req, err := server.Decode(route, body, co.limits())
	if err != nil {
		co.writeError(w, route, server.StatusForValidation(err), err.Error())
		return
	}
	ctx, cancel := co.requestContext(r, req.TimeoutMs)
	defer cancel()
	sol, err := co.Solve(ctx, req)
	co.metrics.solveLatency.With(route).Observe(time.Since(start).Seconds())
	var apiErr *client.APIError
	switch {
	case errors.As(err, &apiErr): // a worker refused the request itself
		co.writeError(w, route, apiErr.Status, apiErr.Message)
		return
	case err != nil:
		co.writeError(w, route, server.StatusForSolve(err), err.Error())
		return
	}
	co.writeBody(w, r, route, http.StatusOK, req.Response(sol, time.Since(start)))
}

// limits bounds what the front-end's decoders accept.
func (co *Coordinator) limits() server.Limits {
	return server.Limits{MaxN: co.cfg.MaxN, MaxExponentBits: co.cfg.MaxExponentBits}
}

// requestContext bounds a solve by the client's timeout_ms (clamped to two
// minutes, as irserved) or a 30s default, and cancels it too when a drain
// outlasts its deadline and cancels the coordinator's base ctx.
func (co *Coordinator) requestContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	d := 30 * time.Second
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
		if d > 2*time.Minute {
			d = 2 * time.Minute
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	stop := context.AfterFunc(co.base, cancel)
	return ctx, func() {
		stop()
		cancel()
	}
}

// writeBody answers v through server.WriteBody, packed when r asks for it.
func (co *Coordinator) writeBody(w http.ResponseWriter, r *http.Request, endpoint string, code int, v any) {
	co.metrics.requests.Inc(endpoint, strconv.Itoa(server.WriteBody(w, r, code, v)))
}

func (co *Coordinator) writeError(w http.ResponseWriter, endpoint string, code int, msg string) {
	co.writeBody(w, nil, endpoint, code, server.ErrorResponse{Error: msg, Code: code})
}
