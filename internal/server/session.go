package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

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

// DecodeSessionOpen reads a POST /v1/session body into the request and the
// solve request its family describes, through the solve routes' own
// decoders, so an open answers every defect as the solve route of its
// family does: ordinary, general and auto (or no family) decode with
// DecodeSolve, linear and moebius with decodeMoebius, which also applies
// the extended rewrite. A session folds a dense system, so a sparse one is
// refused with ir.ErrInvalidSparse, and it keys a general structure with
// lim.MaxExponentBits whatever the opts ask. The returned request is as
// sent, never rewritten: the coordinator replays it on a re-home.
func DecodeSessionOpen(body []byte, lim Limits) (SessionOpenRequest, *SolveRequest, error) {
	var req SessionOpenRequest
	if err := decodeBody(body, &req, true); err != nil {
		return req, nil, fmt.Errorf("bad request body: %v", err)
	}
	var family ir.Family
	switch strings.ToLower(req.Family) {
	case "linear", "moebius":
		r, err := decodeMoebius(&MoebiusRequest{M: req.M, G: req.G, F: req.F,
			A: req.A, B: req.B, C: req.C, D: req.D, X0: req.X0, Opts: req.Opts}, req.Extended, lim)
		return req, r, err
	case "ordinary":
		family = ir.FamilyOrdinary
	case "general":
		family = ir.FamilyGeneral
	case "auto", "":
		family = ir.FamilyAuto
	default:
		return req, nil, fmt.Errorf("unknown family %q (one of ordinary, general, auto, linear, moebius)", req.Family)
	}
	if req.System.IsSparse() {
		_, err := req.System.System() // the dense decode's ErrInvalidSparse
		return req, nil, err
	}
	ow := req.Opts
	ow.MaxExponentBits = 0 // the server's bound keys a session's structure
	r, err := DecodeSolve(family, req.System, req.Op, req.Mod, req.Init, false, ow, lim)
	return req, r, err
}

// execSessionOpen decodes an open with DecodeSessionOpen and returns the
// pool job that seeds the session (a sequential fold of the prefix) and
// admits it into the store. An open compiles nothing and never touches the
// plan cache.
func (s *Server) execSessionOpen(body []byte) (runFunc, int, error) {
	_, req, err := DecodeSessionOpen(body, s.limits())
	if err != nil {
		return nil, 0, err
	}
	// session.Open reads System for ordinary and general, M/G/F for Möbius.
	spec := session.Spec{
		Family: req.Family, MaxN: s.cfg.MaxN, MaxExponentBits: req.Bits,
		System: req.Sys, Op: req.Data.Op, Mod: req.Data.Mod,
		InitInt: req.Data.InitInt, InitFloat: req.Data.InitFloat,
		M: req.Sys.M, G: req.Sys.G, F: req.Sys.F,
		A: req.Data.A, B: req.Data.B, C: req.Data.C, D: req.Data.D, X0: req.Data.X0,
	}
	return func(ctx context.Context) (any, error) {
		start := time.Now()
		sess, err := session.Open(ctx, spec)
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
	}, req.TimeoutMs, nil
}

// handleSessionAppend folds a batch into a live session through the
// admission path every solve takes (admit), with two session-specific
// twists: an oversized body answers 413 (the append stream is the one place
// clients naturally grow payloads into the limit) and an unknown or closed
// session answers 404.
func (s *Server) handleSessionAppend(w http.ResponseWriter, r *http.Request) {
	s.admit(w, r, "session_append", s.execSessionAppend(r.PathValue("id")),
		http.StatusRequestEntityTooLarge, s.metrics.sessionAppendLatency.Observe)
}

// execSessionAppend is the exec of an append to session id: the run folds
// the batch and reports the cells it wrote.
func (s *Server) execSessionAppend(id string) execFunc {
	return func(body []byte) (runFunc, int, error) {
		start := time.Now()
		sess, err := s.sessions.Get(id)
		if err != nil {
			return nil, 0, unknownSession(id)
		}
		var req SessionAppendRequest
		if err := decodeBody(body, &req, true); err != nil {
			return nil, 0, fmt.Errorf("bad request body: %v", err)
		}
		return func(ctx context.Context) (any, error) {
			res, err := sess.Append(ctx, session.Batch{
				G: req.G, F: req.F, H: req.H,
				A: req.A, B: req.B, C: req.C, D: req.D,
			})
			if err == nil {
				err = CheckFinite("values_float", res.ValuesFloat)
			}
			if err != nil {
				return nil, err
			}
			s.sessions.Touch(id)
			s.metrics.sessionAppends.Inc()
			return SessionAppendResponse{
				N:           res.N,
				Appends:     sess.Appends(),
				ValuesInt:   res.ValuesInt,
				ValuesFloat: res.ValuesFloat,
				Values:      res.Values,
				ElapsedMs:   ms(start),
			}, nil
		}, req.Opts.TimeoutMs, nil
	}
}

// unknownSession is the 404 of an id the store does not hold.
type unknownSession string

func (id unknownSession) Error() string { return fmt.Sprintf("unknown session %q", string(id)) }

// Is makes the error a session.ErrNotFound for the status mappings.
func (unknownSession) Is(target error) bool { return target == session.ErrNotFound }

// handleSessionGet snapshots a session's full state. Read-only, so it
// bypasses the admission pool and stays available during drain.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	const endpoint = "session_get"
	id := r.PathValue("id")
	sess, err := s.sessions.Get(id)
	if err != nil {
		s.writeError(w, endpoint, http.StatusNotFound, unknownSession(id).Error())
		return
	}
	vi, vf, vm := sess.Values()
	if err := CheckFinite("values_float", vf); err != nil {
		s.writeError(w, endpoint, StatusForSolve(err), err.Error())
		return
	}
	s.writeBody(w, r, endpoint, http.StatusOK, SessionStateResponse{
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
		s.writeError(w, endpoint, http.StatusNotFound, unknownSession(id).Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
	s.metrics.requests.Inc(endpoint, "204")
}
