// Package client is the Go client for the irserved solve service: typed
// wrappers over the HTTP JSON API with the same request/response shapes the
// server defines (internal/server, ir wire types). Stdlib only.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"indexedrec/internal/server"
)

// Client talks to one irserved instance.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080" (no trailing
	// slash).
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Tenant, when non-empty, is sent as the X-IR-Tenant header so the
	// server accounts this client's solves under that tenant's admission
	// quota and fair-queueing weight.
	Tenant string
	// ClusterToken, when non-empty, is sent as the X-IR-Cluster-Token
	// header; coordinators started with a registration token require it on
	// the membership endpoints (register/heartbeat/deregister).
	ClusterToken string
}

// New returns a client for the given base URL.
func New(base string) *Client { return &Client{Base: base} }

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// APIError is a non-2xx response from the server.
type APIError struct {
	Status int
	// RetryAfter is the server's backoff hint on 429/503 responses
	// (zero when absent).
	RetryAfter time.Duration
	Message    string
}

// Error formats the failure with its HTTP status and server message.
func (e *APIError) Error() string {
	return fmt.Sprintf("irserved: HTTP %d: %s", e.Status, e.Message)
}

// IsShed reports whether the server shed this request (queue full) or is
// draining — the cases a caller should back off and retry.
func (e *APIError) IsShed() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// do sends reqBody to path with the given method and decodes the response
// into out. A nil reqBody sends no payload; a nil out discards the response
// body (2xx only). A wire type travels packed (server.AppendPacked) unless
// its value has only a JSON form, and every request asks for a packed
// answer; anything else is JSON (server.AppendBody). server.UnmarshalBody
// reads the answer in whichever encoding the server chose, so the results
// are json.Unmarshal's either way.
func (c *Client) do(ctx context.Context, method, path string, reqBody, out any) error {
	var rd io.Reader
	ctype := server.PackedType
	if reqBody != nil {
		payload, ok := server.AppendPacked(nil, reqBody)
		if !ok {
			var err error
			ctype = "application/json"
			if payload, err = server.AppendBody(nil, reqBody); err != nil {
				return fmt.Errorf("irserved client: encoding request: %w", err)
			}
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", ctype)
	}
	req.Header.Set("Accept", server.PackedType+", application/json")
	if c.Tenant != "" {
		req.Header.Set(server.TenantHeader, c.Tenant)
	}
	if c.ClusterToken != "" {
		req.Header.Set(server.ClusterTokenHeader, c.ClusterToken)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := readResponse(resp)
	if err != nil {
		return fmt.Errorf("irserved client: reading response: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			apiErr.RetryAfter = time.Duration(ra) * time.Second
		}
		var er server.ErrorResponse
		if json.Unmarshal(body, &er) == nil && er.Error != "" {
			apiErr.Message = er.Error
		} else {
			apiErr.Message = string(body)
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	if err := server.UnmarshalBody(body, out); err != nil {
		return fmt.Errorf("irserved client: decoding response: %w", err)
	}
	return nil
}

// maxResponseBytes caps what the client reads of one response.
const maxResponseBytes = 64 << 20

// readResponse reads a response body of at most maxResponseBytes, through
// server.ReadDeclared when the server declared its length.
func readResponse(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxResponseBytes {
		return server.ReadDeclared(resp.Body, n)
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
}

// SolveOrdinary solves an ordinary system on the server.
func (c *Client) SolveOrdinary(ctx context.Context, req server.OrdinaryRequest) (*server.OrdinaryResponse, error) {
	var out server.OrdinaryResponse
	if err := c.do(ctx, http.MethodPost, server.APIPrefix+"ordinary", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SolveGeneral solves a general system on the server.
func (c *Client) SolveGeneral(ctx context.Context, req server.GeneralRequest) (*server.GeneralResponse, error) {
	var out server.GeneralResponse
	if err := c.do(ctx, http.MethodPost, server.APIPrefix+"general", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SolveLinear solves an affine recurrence. The response's BatchSize is
// always 1, kept for wire compatibility.
func (c *Client) SolveLinear(ctx context.Context, req server.LinearRequest) (*server.MoebiusResponse, error) {
	var out server.MoebiusResponse
	if err := c.do(ctx, http.MethodPost, server.APIPrefix+"linear", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SolveMoebius solves a fractional-linear recurrence; its response has the
// shape SolveLinear's does.
func (c *Client) SolveMoebius(ctx context.Context, req server.MoebiusRequest) (*server.MoebiusResponse, error) {
	var out server.MoebiusResponse
	if err := c.do(ctx, http.MethodPost, server.APIPrefix+"moebius", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SolveGrid2D solves a 2-D recurrence grid (edit distance, Smith–Waterman,
// linear grids) by server-side anti-diagonal wavefronts.
func (c *Client) SolveGrid2D(ctx context.Context, req server.Grid2DRequest) (*server.Grid2DResponse, error) {
	var out server.Grid2DResponse
	if err := c.do(ctx, http.MethodPost, server.APIPrefix+"grid2d", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SolveLoop ships DSL loop source for server-side classify-and-execute.
func (c *Client) SolveLoop(ctx context.Context, req server.LoopRequest) (*server.LoopResponse, error) {
	var out server.LoopResponse
	if err := c.do(ctx, http.MethodPost, server.APIPrefix+"loop", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// get fetches a text endpoint.
func (c *Client) get(ctx context.Context, path string) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return 0, "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	return resp.StatusCode, string(body), err
}

// getJSON fetches a JSON endpoint into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	code, body, err := c.get(ctx, path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return &APIError{Status: code, Message: body}
	}
	if err := json.Unmarshal([]byte(body), out); err != nil {
		return fmt.Errorf("irserved client: decoding response: %w", err)
	}
	return nil
}

// Healthz reports whether the server process is up.
func (c *Client) Healthz(ctx context.Context) error {
	code, body, err := c.get(ctx, "/healthz")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return &APIError{Status: code, Message: body}
	}
	return nil
}

// Readyz reports whether the server is accepting solves (false during
// graceful drain).
func (c *Client) Readyz(ctx context.Context) (bool, error) {
	code, _, err := c.get(ctx, "/readyz")
	if err != nil {
		return false, err
	}
	return code == http.StatusOK, nil
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	code, body, err := c.get(ctx, "/metrics")
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", &APIError{Status: code, Message: body}
	}
	return body, nil
}
