package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"indexedrec/internal/server"
	"indexedrec/ir"
)

// TestShutdownCancelsOnDrainExpiry holds a solve in flight on a worker that
// never answers, then shuts the coordinator down with a short drain. The
// shutdown must return promptly, cancelling the solve rather than waiting
// out its 30 s request deadline, and the client must get a non-2xx answer.
func TestShutdownCancelsOnDrainExpiry(t *testing.T) {
	co, workers, down := newFleet(t, 1, nil)
	defer down()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	hold := func(w http.ResponseWriter, r *http.Request) bool {
		if !strings.HasPrefix(r.URL.Path, server.ShardPrefix) {
			return false
		}
		select {
		case entered <- struct{}{}:
		default:
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
		return true
	}
	workers[0].respond.Store(&hold)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- co.serve(ctx, ln, 100*time.Millisecond) }()

	body, _ := json.Marshal(server.OrdinaryRequest{
		System: ir.SystemWire{M: 5, G: []int{1, 2, 3, 4}, F: []int{0, 1, 2, 3}},
		Op:     "int64-add",
		Init:   json.RawMessage(`[1, 2, 3, 4, 5]`),
	})
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+server.APIPrefix+"ordinary", "application/json", bytes.NewReader(body))
		if err != nil {
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the solve never reached the worker")
	}

	start := time.Now()
	cancel()
	select {
	case err := <-served:
		if err == nil {
			t.Error("an interrupted drain reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not return after its drain deadline")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("shutdown took %v with a 100ms drain", d)
	}
	if code := <-status; code < 300 {
		t.Errorf("in-flight solve answered %d, want a non-2xx status", code)
	}
}
