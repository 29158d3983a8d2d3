package client

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"

	"indexedrec/internal/server"
)

// Connection reuse. A coordinator fires many small shard requests at the
// same few workers; the stdlib default of two idle connections per host
// forces most of them through fresh TCP handshakes under fan-out. One
// shared transport with a deeper idle pool keeps the scatter path on warm
// connections without every caller tuning http.Transport by hand.

// SharedTransport returns the process-wide HTTP transport for irserved
// clients: keep-alives on, a per-host idle pool sized for coordinator
// fan-out, and bounded dial/TLS handshake times. All clients built with
// NewPooled share it, so connections to a worker are reused across client
// values.
func SharedTransport() *http.Transport {
	sharedOnce.Do(func() {
		d := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
		shared = &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
			DialContext:         d.DialContext,
			TLSHandshakeTimeout: 10 * time.Second,
		}
	})
	return shared
}

var (
	sharedOnce sync.Once
	shared     *http.Transport
)

// NewPooled returns a client on the shared keep-alive transport with a
// per-request timeout (0 means no client-side cap; the server still applies
// its own deadline). Use this for coordinators and anything else that talks
// to the same hosts repeatedly.
func NewPooled(base string, timeout time.Duration) *Client {
	return &Client{
		Base: base,
		HTTP: &http.Client{Transport: SharedTransport(), Timeout: timeout},
	}
}

// SolveShard executes one shard of a plan on a worker (the worker role's
// POST /v1/shard/solve).
func (c *Client) SolveShard(ctx context.Context, req server.ShardRequest) (*server.ShardResponse, error) {
	var out server.ShardResponse
	if err := c.do(ctx, http.MethodPost, server.ShardPrefix+"solve", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Version fetches the server's build identification (GET /version).
func (c *Client) Version(ctx context.Context) (*server.VersionResponse, error) {
	var out server.VersionResponse
	if err := c.getJSON(ctx, "/version", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Register announces a worker to a coordinator (POST /v1/cluster/register)
// and returns the granted membership lease.
func (c *Client) Register(ctx context.Context, req server.RegisterRequest) (*server.RegisterResponse, error) {
	var out server.RegisterResponse
	if err := c.do(ctx, http.MethodPost, server.ClusterPrefix+"register", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Heartbeat renews a registered worker's membership lease. A 404 APIError
// means the coordinator no longer knows the worker (lease expired or the
// coordinator restarted); the caller should Register again.
func (c *Client) Heartbeat(ctx context.Context, addr string) (*server.RegisterResponse, error) {
	var out server.RegisterResponse
	if err := c.do(ctx, http.MethodPost, server.ClusterPrefix+"heartbeat", server.MemberRequest{Addr: addr}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Deregister removes a draining worker from the coordinator's fleet.
func (c *Client) Deregister(ctx context.Context, addr string) error {
	return c.do(ctx, http.MethodPost, server.ClusterPrefix+"deregister", server.MemberRequest{Addr: addr}, nil)
}
