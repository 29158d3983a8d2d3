package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"

	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
)

// Streaming sessions through the coordinator: the front-end speaks the same
// /v1/session API as a single irserved. It decodes each open as a worker
// does (server.DecodeSessionOpen), answering a defect itself, pins the
// session to one worker by rendezvous rank on the decoded request's plan
// fingerprint (a stable key, so one structure's streams and its one-shot
// solves land on the same worker), and keeps the open request plus the
// ordered append log as the session's recovery snapshot.
// When the pinned worker dies, sheds, or forgot the session (restart, idle
// eviction), the coordinator re-homes the stream: it replays the open and
// every logged append — the fold is deterministic, so the rebuilt state is
// bit-identical — onto the next-ranked live worker, then applies the new
// append exactly once. An append is never blind-retried against an existing
// remote session, so a failure after the worker applied the batch can never
// double-apply it.

// streamEntry is the coordinator's record of one proxied session.
type streamEntry struct {
	// fp is the rendezvous pinning key: the opened structure's plan
	// fingerprint.
	fp string

	// mu serializes appends (and re-homes) for this session, keeping the
	// replay log an exact prefix-ordered history.
	mu       chan struct{} // 1-buffered; acquired by receive, released by send
	w        *worker
	remoteID string
	open     server.SessionOpenRequest
	log      []server.SessionAppendRequest
}

func (e *streamEntry) lock()   { <-e.mu }
func (e *streamEntry) unlock() { e.mu <- struct{}{} }

// sessionRoutes mounts the session pass-through endpoints.
func (co *Coordinator) sessionRoutes() {
	co.handle("POST", server.SessionPrefix, co.handleSessionOpen)
	co.handle("POST", server.SessionPrefix+"/{id}/append", co.handleSessionAppend)
	co.handle("GET", server.SessionPrefix+"/{id}", co.handleSessionGet)
	co.handle("DELETE", server.SessionPrefix+"/{id}", co.handleSessionDelete)
}

func newSessionID() (string, error) {
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(buf[:]), nil
}

// writeSessionErr renders a pass-through failure: worker APIErrors keep
// their status and message, anything else is a coordinator-side 502.
func (co *Coordinator) writeSessionErr(w http.ResponseWriter, endpoint string, err error) {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		co.writeError(w, endpoint, apiErr.Status, apiErr.Message)
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		co.writeError(w, endpoint, http.StatusGatewayTimeout, err.Error())
		return
	}
	co.writeError(w, endpoint, http.StatusBadGateway, err.Error())
}

func (co *Coordinator) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	const endpoint = "session_open"
	body, err := server.ReadBody(w, r, co.maxBody)
	if err != nil {
		co.writeError(w, endpoint, http.StatusBadRequest, err.Error())
		return
	}
	// A defect the decode finds is answered here, as a worker would, and
	// never reaches the fleet.
	req, spec, err := server.DecodeSessionOpen(body, co.limits())
	if err != nil {
		co.writeError(w, endpoint, server.StatusForValidation(err), err.Error())
		return
	}
	fp := spec.Fingerprint()
	ctx, cancel := co.requestContext(r, req.Opts.TimeoutMs)
	defer cancel()
	ranked := rankWorkers(co.alive(), fp, 0)
	if len(ranked) == 0 {
		co.writeError(w, endpoint, http.StatusServiceUnavailable, ErrNoWorkers.Error())
		return
	}
	var lastErr error
	for _, wk := range ranked {
		settle, ok := wk.br.allow()
		if !ok {
			continue
		}
		resp, err := wk.client.OpenSession(ctx, req)
		if err == nil {
			settle(outcomeSuccess)
			id, err := newSessionID()
			if err != nil {
				co.writeError(w, endpoint, http.StatusInternalServerError, err.Error())
				return
			}
			e := &streamEntry{
				fp: fp, mu: make(chan struct{}, 1),
				w: wk, remoteID: resp.ID, open: req,
			}
			e.unlock()
			co.smu.Lock()
			co.sessions[id] = e
			co.metrics.sessions.Set(int64(len(co.sessions)))
			co.smu.Unlock()
			resp.ID = id
			co.writeBody(w, r, endpoint, http.StatusOK, resp)
			return
		}
		if !retryable(err) {
			settle(outcomeAbandoned)
			co.writeSessionErr(w, endpoint, err)
			return
		}
		settle(outcomeFailure)
		co.noteFailure(wk, err)
		lastErr = err
	}
	if lastErr == nil {
		lastErr = ErrNoWorkers
	}
	co.writeSessionErr(w, endpoint, lastErr)
}

// entry looks up a proxied session by its public ID.
func (co *Coordinator) entry(id string) *streamEntry {
	co.smu.Lock()
	defer co.smu.Unlock()
	return co.sessions[id]
}

// rehome rebuilds the session on the best-ranked live worker by replaying
// its open request and full append log; e is locked by the caller. The
// failed worker is skipped unless the failure was a remote 404 (the worker
// is alive but forgot the session — replaying onto it is fine).
func (co *Coordinator) rehome(ctx context.Context, e *streamEntry, skip *worker) error {
	var lastErr error
candidates:
	for _, wk := range rankWorkers(co.alive(), e.fp, 0) {
		if wk == skip {
			continue
		}
		settle, ok := wk.br.allow()
		if !ok {
			continue
		}
		resp, err := wk.client.OpenSession(ctx, e.open)
		if err != nil {
			settle(outcomeFailure)
			co.noteFailure(wk, err)
			lastErr = err
			continue
		}
		for _, b := range e.log {
			if _, err := wk.client.Append(ctx, resp.ID, b); err != nil {
				settle(outcomeFailure)
				co.noteFailure(wk, err)
				lastErr = err
				continue candidates
			}
		}
		settle(outcomeSuccess)
		e.w, e.remoteID = wk, resp.ID
		co.metrics.sessionRehomes.Inc()
		co.cfg.Logger.Printf("ircluster: session re-homed to worker %s (%d appends replayed)", wk.name, len(e.log))
		return nil
	}
	if lastErr == nil {
		lastErr = ErrNoWorkers
	}
	return lastErr
}

// remoteGone reports a worker response that means the worker no longer
// holds the session (restart, idle eviction) even though it is healthy.
func remoteGone(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound
}

func (co *Coordinator) handleSessionAppend(w http.ResponseWriter, r *http.Request) {
	const endpoint = "session_append"
	e := co.entry(r.PathValue("id"))
	if e == nil {
		co.writeError(w, endpoint, http.StatusNotFound, fmt.Sprintf("unknown session %q", r.PathValue("id")))
		return
	}
	body, err := server.ReadBody(w, r, co.maxBody)
	if err != nil {
		co.writeError(w, endpoint, http.StatusBadRequest, err.Error())
		return
	}
	var req server.SessionAppendRequest
	if err := server.UnmarshalBody(body, &req); err != nil {
		co.writeError(w, endpoint, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	ctx, cancel := co.requestContext(r, req.Opts.TimeoutMs)
	defer cancel()
	e.lock()
	defer e.unlock()

	// First try the pinned worker; any worker-attributable failure (or a
	// healthy worker that forgot the session) triggers a re-home with
	// replay, after which the batch is applied exactly once on the rebuilt
	// state.
	if e.w.isUp() {
		resp, err := e.w.client.Append(ctx, e.remoteID, req)
		if err == nil {
			e.log = append(e.log, req)
			co.writeBody(w, r, endpoint, http.StatusOK, resp)
			return
		}
		if !retryable(err) && !remoteGone(err) {
			co.writeSessionErr(w, endpoint, err)
			return
		}
		co.noteFailure(e.w, err)
		skip := e.w
		if remoteGone(err) {
			skip = nil
		}
		if err := co.rehome(ctx, e, skip); err != nil {
			co.writeSessionErr(w, endpoint, err)
			return
		}
	} else if err := co.rehome(ctx, e, nil); err != nil {
		co.writeSessionErr(w, endpoint, err)
		return
	}
	resp, err := e.w.client.Append(ctx, e.remoteID, req)
	if err != nil {
		co.writeSessionErr(w, endpoint, err)
		return
	}
	e.log = append(e.log, req)
	co.writeBody(w, r, endpoint, http.StatusOK, resp)
}

func (co *Coordinator) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	const endpoint = "session_get"
	id := r.PathValue("id")
	e := co.entry(id)
	if e == nil {
		co.writeError(w, endpoint, http.StatusNotFound, fmt.Sprintf("unknown session %q", id))
		return
	}
	ctx, cancel := co.requestContext(r, 0)
	defer cancel()
	e.lock()
	defer e.unlock()
	if !e.w.isUp() || e.remoteID == "" {
		if err := co.rehome(ctx, e, nil); err != nil {
			co.writeSessionErr(w, endpoint, err)
			return
		}
	}
	resp, err := e.w.client.GetSession(ctx, e.remoteID)
	if err != nil && (retryable(err) || remoteGone(err)) {
		co.noteFailure(e.w, err)
		skip := e.w
		if remoteGone(err) {
			skip = nil
		}
		if rerr := co.rehome(ctx, e, skip); rerr != nil {
			co.writeSessionErr(w, endpoint, rerr)
			return
		}
		resp, err = e.w.client.GetSession(ctx, e.remoteID)
	}
	if err != nil {
		co.writeSessionErr(w, endpoint, err)
		return
	}
	resp.ID = id
	co.writeBody(w, r, endpoint, http.StatusOK, resp)
}

func (co *Coordinator) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	const endpoint = "session_delete"
	id := r.PathValue("id")
	co.smu.Lock()
	e := co.sessions[id]
	if e != nil {
		delete(co.sessions, id)
		co.metrics.sessions.Set(int64(len(co.sessions)))
	}
	co.smu.Unlock()
	if e == nil {
		co.writeError(w, endpoint, http.StatusNotFound, fmt.Sprintf("unknown session %q", id))
		return
	}
	// Best-effort remote close: the worker's own idle TTL collects the
	// session anyway if this misses.
	ctx, cancel := co.requestContext(r, 0)
	defer cancel()
	e.lock()
	_ = e.w.client.CloseSession(ctx, e.remoteID)
	e.unlock()
	w.WriteHeader(http.StatusNoContent)
	co.metrics.requests.Inc(endpoint, "204")
}
