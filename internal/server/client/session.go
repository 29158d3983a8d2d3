package client

import (
	"context"
	"net/http"

	"indexedrec/internal/server"
)

// Streaming-session wrappers: OpenSession starts an incremental solve,
// Append folds more iterations into it (returning the written cells'
// updated values), GetSession snapshots the full state, CloseSession ends
// it. Session IDs are only valid against the server (or coordinator) that
// issued them.

// OpenSession starts a streaming session on the server.
func (c *Client) OpenSession(ctx context.Context, req server.SessionOpenRequest) (*server.SessionOpenResponse, error) {
	var out server.SessionOpenResponse
	if err := c.do(ctx, http.MethodPost, server.SessionPrefix, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Append folds a batch of iterations into a session and returns the
// updated values of the cells the batch wrote.
func (c *Client) Append(ctx context.Context, id string, req server.SessionAppendRequest) (*server.SessionAppendResponse, error) {
	var out server.SessionAppendResponse
	if err := c.do(ctx, http.MethodPost, server.SessionPrefix+"/"+id+"/append", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// GetSession snapshots a session's full current state.
func (c *Client) GetSession(ctx context.Context, id string) (*server.SessionStateResponse, error) {
	var out server.SessionStateResponse
	if err := c.do(ctx, http.MethodGet, server.SessionPrefix+"/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CloseSession ends a session; appends after this answer 404.
func (c *Client) CloseSession(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, server.SessionPrefix+"/"+id, nil, nil)
}
