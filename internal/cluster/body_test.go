package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"indexedrec/internal/server"
)

// rawPost sends a hand-made HTTP/1.1 POST to ts: the extra header lines,
// then body as written (halving the connection afterwards when closeWrite
// is set, so a short body ends). It returns the status and error message.
func rawPost(t *testing.T, ts *httptest.Server, path, header, body string, closeWrite bool) (int, string) {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The server must answer without waiting for a body it refuses.
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n%s\r\n%s", path, header, body); err != nil {
		t.Fatal(err)
	}
	if closeWrite {
		_ = conn.(*net.TCPConn).CloseWrite()
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var er server.ErrorResponse
	_ = json.Unmarshal(data, &er)
	return resp.StatusCode, er.Error
}

// chunked frames s as one chunk of a chunked body.
func chunked(s string) string {
	return fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(s), s)
}

// TestRequestBodyLimits holds irserved and ircoord to one body rule: a
// declared length over the limit answers 400 "request body exceeds N
// bytes" before any body is read, a chunked body is read up to the limit,
// and a body shorter than its declared length answers 400.
func TestRequestBodyLimits(t *testing.T) {
	const limit = 1024
	worker := server.New(server.Config{MaxRequestBytes: limit})
	irserved := httptest.NewServer(worker.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = worker.Shutdown(ctx)
		irserved.Close()
	}()
	co, _, down := newFleet(t, 1, nil)
	defer down()
	co.maxBody = limit
	ircoord := httptest.NewServer(co.Handler())
	defer ircoord.Close()

	valid := `{"system":{"m":3,"n":2,"g":[1,2],"f":[0,1]},"op":"int64-add","init":[1,2,3]}`
	exceeds := fmt.Sprintf("request body exceeds %d bytes", limit)
	cases := []struct {
		name, header, body string
		closeWrite         bool
		code               int
		msg                string
	}{
		{"declared over limit, nothing sent", "Content-Length: 1073741824\r\n", "", false, 400, exceeds},
		{"chunked within limit", "Transfer-Encoding: chunked\r\n", chunked(valid), false, 200, ""},
		{"chunked over limit", "Transfer-Encoding: chunked\r\n", chunked(valid + strings.Repeat(" ", limit)), false, 400, exceeds},
		{"shorter than declared", "Content-Length: 100\r\n", valid[:10], true, 400, "unexpected EOF"},
		{"declared exactly", fmt.Sprintf("Content-Length: %d\r\n", len(valid)), valid, false, 200, ""},
	}
	for _, d := range []struct {
		name string
		ts   *httptest.Server
	}{{"irserved", irserved}, {"ircoord", ircoord}} {
		for _, tc := range cases {
			t.Run(d.name+"/"+tc.name, func(t *testing.T) {
				code, msg := rawPost(t, d.ts, server.APIPrefix+"ordinary", tc.header, tc.body, tc.closeWrite)
				if code != tc.code || !strings.Contains(msg, tc.msg) {
					t.Fatalf("HTTP %d %q, want %d containing %q", code, msg, tc.code, tc.msg)
				}
			})
		}
	}
}
