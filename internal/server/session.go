package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"indexedrec/internal/moebius"
	"indexedrec/internal/ordinary"
	"indexedrec/internal/session"
	"indexedrec/ir"
)

// Streaming-session endpoints: POST /v1/session opens a live incremental
// solve from an initial system, POST /v1/session/{id}/append folds more
// iterations into it and returns the updated suffix values, GET
// /v1/session/{id} snapshots the full state, DELETE closes it. Sessions
// idle past Config.SessionTTL are evicted; the store is byte-accounted
// against Config.SessionBytes. See internal/session for the state model
// and DESIGN.md §13 for the service contract.

// SessionPrefix is the streaming-session API prefix.
const SessionPrefix = "/v1/session"

// SessionOpenRequest is the body of POST /v1/session. Family selects the
// shape: "ordinary"/"general"/"auto" use System/Op/Mod/Init (exactly like
// the one-shot solve endpoints), "linear"/"moebius" use M/G/F and the
// coefficient arrays (as /v1/solve/linear and /v1/solve/moebius do). The
// initial system may have zero iterations — a session opened empty and fed
// purely by appends.
type SessionOpenRequest struct {
	// Family is "ordinary", "general", "auto", "linear" or "moebius".
	Family string `json:"family"`
	// System, Op, Mod, Init describe an ordinary/general prefix.
	System ir.SystemWire   `json:"system,omitempty"`
	Op     string          `json:"op,omitempty"`
	Mod    int64           `json:"mod,omitempty"`
	Init   json.RawMessage `json:"init,omitempty"`
	// M, G, F, A, B, C, D, X0 describe a linear/Möbius prefix; nil C and D
	// select the affine form, Extended the X[g] += a·X[f] + b rewriting.
	M        int       `json:"m,omitempty"`
	G        ir.Ints   `json:"g,omitempty"`
	F        ir.Ints   `json:"f,omitempty"`
	A        []float64 `json:"a,omitempty"`
	B        []float64 `json:"b,omitempty"`
	C        []float64 `json:"c,omitempty"`
	D        []float64 `json:"d,omitempty"`
	X0       []float64 `json:"x0,omitempty"`
	Extended bool      `json:"extended,omitempty"`
	// Opts carries the open's deadline (timeout_ms). Procs is validated but
	// unused: the opening fold is sequential and compiles no plan.
	Opts ir.OptionsWire `json:"opts,omitempty"`
}

// SessionOpenResponse acknowledges an open with the session's identity.
type SessionOpenResponse struct {
	// ID addresses the session on the append/get/delete endpoints.
	ID string `json:"id"`
	// Family is the resolved solver family.
	Family string `json:"family"`
	// N and M echo the opened system's shape.
	N int `json:"n"`
	M int `json:"m"`
	// Fingerprint is the opened structure's plan fingerprint (the cluster's
	// pinning key).
	Fingerprint string `json:"fingerprint"`
	// ElapsedMs is the server-side open cost: the prefix fold and the
	// fingerprint hash.
	ElapsedMs float64 `json:"elapsed_ms"`
}

// SessionAppendRequest is the body of POST /v1/session/{id}/append: k more
// iterations in the session's family shape. Ordinary/general sessions use
// G, F (and H for general); linear/Möbius sessions use G, F and the
// coefficient rows (nil C/D = affine; an extended session rewrites B
// itself).
type SessionAppendRequest struct {
	G ir.Ints   `json:"g"`
	F ir.Ints   `json:"f"`
	H ir.Ints   `json:"h,omitempty"`
	A []float64 `json:"a,omitempty"`
	B []float64 `json:"b,omitempty"`
	C []float64 `json:"c,omitempty"`
	D []float64 `json:"d,omitempty"`
	// Opts carries the per-append deadline (timeout_ms), mapped exactly
	// like the solve endpoints' deadlines.
	Opts ir.OptionsWire `json:"opts,omitempty"`
}

// SessionAppendResponse reports an applied append: the updated values of
// the cells the batch wrote (aligned with the request's G), the
// concatenated iteration count, and the session's append counter.
type SessionAppendResponse struct {
	N       int   `json:"n"`
	Appends int64 `json:"appends"`
	// Exactly one of the value slices is set, matching the session domain.
	ValuesInt   ir.Int64s `json:"values_int,omitempty"`
	ValuesFloat []float64 `json:"values_float,omitempty"`
	Values      []float64 `json:"values,omitempty"`
	ElapsedMs   float64   `json:"elapsed_ms"`
}

// SessionStateResponse is the body of GET /v1/session/{id}: the full
// current state.
type SessionStateResponse struct {
	ID          string `json:"id"`
	Family      string `json:"family"`
	M           int    `json:"m"`
	N           int    `json:"n"`
	Appends     int64  `json:"appends"`
	Fingerprint string `json:"fingerprint"`
	// Exactly one of the value slices is set, matching the session domain.
	ValuesInt   ir.Int64s `json:"values_int,omitempty"`
	ValuesFloat []float64 `json:"values_float,omitempty"`
	Values      []float64 `json:"values,omitempty"`
}

// sessionRoutes mounts the streaming-session endpoints.
func (s *Server) sessionRoutes() {
	s.mux.HandleFunc("POST "+SessionPrefix, func(w http.ResponseWriter, r *http.Request) {
		s.handleSolve(w, r, "session_open", s.execSessionOpen)
	})
	s.mux.HandleFunc("POST "+SessionPrefix+"/{id}/append", s.handleSessionAppend)
	s.mux.HandleFunc("GET "+SessionPrefix+"/{id}", s.handleSessionGet)
	s.mux.HandleFunc("DELETE "+SessionPrefix+"/{id}", s.handleSessionDelete)
}

// execSessionOpen validates an open request and returns the pool job that
// seeds the session (a sequential fold of the prefix) and admits it into the
// store. An open compiles nothing and never touches the plan cache.
func (s *Server) execSessionOpen(body []byte) (runFunc, int, error) {
	var req SessionOpenRequest
	if err := decodeBody(body, &req, true); err != nil {
		return nil, 0, fmt.Errorf("bad request body: %v", err)
	}
	spec, err := s.sessionSpec(&req)
	if err != nil {
		return nil, 0, err
	}
	return func(ctx context.Context) (any, error) {
		start := time.Now()
		sess, err := session.Open(ctx, *spec)
		if err != nil {
			return nil, err
		}
		id, err := s.sessions.Put(sess)
		if err != nil {
			return nil, err
		}
		return SessionOpenResponse{
			ID:          id,
			Family:      sess.Family().String(),
			N:           sess.N(),
			M:           sess.M(),
			Fingerprint: sess.Fingerprint(),
			ElapsedMs:   ms(start),
		}, nil
	}, req.Opts.TimeoutMs, nil
}

// sessionSpec converts a wire open request into a session.Spec, applying
// server limits.
func (s *Server) sessionSpec(req *SessionOpenRequest) (*session.Spec, error) {
	spec := &session.Spec{
		MaxN:            s.cfg.MaxN,
		MaxExponentBits: s.cfg.MaxExponentBits,
	}
	// A session folds sequentially, so only the wire options' validity
	// matters here; the timeout bounds the open job itself.
	if _, err := req.Opts.Options(); err != nil {
		return nil, err
	}
	switch strings.ToLower(req.Family) {
	case "linear", "moebius":
		if len(req.G) > s.cfg.MaxN {
			return nil, fmt.Errorf("n = %d exceeds the server limit %d", len(req.G), s.cfg.MaxN)
		}
		spec.Family = ir.FamilyMoebius
		spec.M, spec.G, spec.F = req.M, req.G, req.F
		spec.A, spec.B, spec.C, spec.D = req.A, req.B, req.C, req.D
		spec.X0 = req.X0
		if req.Extended {
			if len(req.X0) != req.M {
				return nil, fmt.Errorf("extended form: len(x0) = %d, want m = %d", len(req.X0), req.M)
			}
			b2 := make([]float64, len(req.B))
			for i := range b2 {
				if req.G[i] < 0 || req.G[i] >= req.M {
					return nil, fmt.Errorf("g[%d] = %d out of range [0,%d)", i, req.G[i], req.M)
				}
				b2[i] = req.X0[req.G[i]] + req.B[i]
			}
			spec.B = b2
		}
	case "ordinary", "general", "auto", "":
		switch strings.ToLower(req.Family) {
		case "ordinary":
			spec.Family = ir.FamilyOrdinary
		case "general":
			spec.Family = ir.FamilyGeneral
		default:
			spec.Family = ir.FamilyAuto
		}
		if req.System.N > s.cfg.MaxN || len(req.System.G) > s.cfg.MaxN {
			return nil, fmt.Errorf("n = %d exceeds the server limit %d",
				max(req.System.N, len(req.System.G)), s.cfg.MaxN)
		}
		sys, err := req.System.System()
		if err != nil {
			return nil, err
		}
		spec.System = sys
		spec.Op, spec.Mod = req.Op, req.Mod
		if spec.InitInt, spec.InitFloat, err = decodeInit(req.Op, req.Mod, req.Init); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown family %q (one of ordinary, general, auto, linear, moebius)", req.Family)
	}
	return spec, nil
}

// handleSessionAppend folds a batch into a live session. It mirrors
// handleSolve's admission shape (draining gate, pool submission, deadline
// mapping) with two session-specific twists: an oversized body answers 413
// (the append stream is the one place clients naturally grow payloads into
// the limit) and an unknown or closed session answers 404.
func (s *Server) handleSessionAppend(w http.ResponseWriter, r *http.Request) {
	const endpoint = "session_append"
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
		if strings.Contains(werr.Error(), "exceeds") {
			code = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, endpoint, code, werr.Error())
		return
	}
	id := r.PathValue("id")
	sess, err := s.sessions.Get(id)
	if err != nil {
		s.writeError(w, endpoint, http.StatusNotFound, fmt.Sprintf("unknown session %q", id))
		return
	}
	var req SessionAppendRequest
	if err := decodeBody(body, &req, true); err != nil {
		s.writeError(w, endpoint, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	ctx, cancel := s.requestContext(r, req.Opts.TimeoutMs)
	defer cancel()

	type outcome struct {
		res *session.Result
		err error
	}
	resCh := make(chan outcome, 1)
	j := &job{ctx: ctx, tenant: tenantOf(r), run: func(jctx context.Context) {
		if err := jctx.Err(); err != nil {
			resCh <- outcome{err: err}
			return
		}
		if s.testHook != nil {
			s.testHook()
		}
		res, err := sess.Append(jctx, session.Batch{
			G: req.G, F: req.F, H: req.H,
			A: req.A, B: req.B, C: req.C, D: req.D,
		})
		resCh <- outcome{res: res, err: err}
	}}
	j.shed = func() { resCh <- outcome{err: errShed} }
	if err := s.pool.submit(j); err != nil {
		s.refuse(w, endpoint, err)
		return
	}
	select {
	case out := <-resCh:
		s.metrics.sessionAppendLatency.Observe(time.Since(start).Seconds())
		if errors.Is(out.err, errShed) {
			s.refuse(w, endpoint, out.err)
			return
		}
		if out.err != nil {
			s.writeError(w, endpoint, statusForSession(out.err), out.err.Error())
			return
		}
		s.sessions.Touch(id)
		s.metrics.sessionAppends.Inc()
		s.writeJSON(w, endpoint, http.StatusOK, SessionAppendResponse{
			N:           out.res.N,
			Appends:     sess.Appends(),
			ValuesInt:   out.res.ValuesInt,
			ValuesFloat: out.res.ValuesFloat,
			Values:      out.res.Values,
			ElapsedMs:   ms(start),
		})
	case <-ctx.Done():
		s.metrics.sessionAppendLatency.Observe(time.Since(start).Seconds())
		s.writeError(w, endpoint, StatusForSolve(ctx.Err()), ctx.Err().Error())
	}
}

// handleSessionGet snapshots a session's full state. Read-only, so it
// bypasses the admission pool and stays available during drain.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	const endpoint = "session_get"
	id := r.PathValue("id")
	sess, err := s.sessions.Get(id)
	if err != nil {
		s.writeError(w, endpoint, http.StatusNotFound, fmt.Sprintf("unknown session %q", id))
		return
	}
	vi, vf, vm := sess.Values()
	s.writeJSON(w, endpoint, http.StatusOK, SessionStateResponse{
		ID:          id,
		Family:      sess.Family().String(),
		M:           sess.M(),
		N:           sess.N(),
		Appends:     sess.Appends(),
		Fingerprint: sess.Fingerprint(),
		ValuesInt:   vi,
		ValuesFloat: vf,
		Values:      vm,
	})
}

// handleSessionDelete closes and removes a session; 204 on success, 404
// for unknown IDs.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	const endpoint = "session_delete"
	id := r.PathValue("id")
	if err := s.sessions.Delete(id); err != nil {
		s.writeError(w, endpoint, http.StatusNotFound, fmt.Sprintf("unknown session %q", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
	s.metrics.requests.Inc(endpoint, "204")
}

// statusForSession maps session-append errors to HTTP statuses: a closed
// or evicted session reads as gone (404, matching the post-delete view),
// the iteration bound and validation failures (an ordinary append with H
// among them) are client errors, and everything else follows the solve
// mapping.
func statusForSession(err error) int {
	switch {
	case errors.Is(err, session.ErrClosed), errors.Is(err, session.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, session.ErrLimit), errors.Is(err, ordinary.ErrGNotDistinct),
		errors.Is(err, moebius.ErrInitLen), errors.Is(err, ir.ErrPlanFamily):
		return http.StatusBadRequest
	case errors.Is(err, session.ErrStoreFull):
		return http.StatusInsufficientStorage
	default:
		return StatusForSolve(err)
	}
}
