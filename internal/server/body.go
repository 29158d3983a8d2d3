package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// HTTP plumbing both daemons share: one body reader with one size limit
// rule, and one response writer over the wire codec.

// firstBodyBytes is the buffer ReadBody starts a declared-length body in.
// The buffer doubles, up to the declared length, only as bytes arrive, so a
// client that declares a large body and sends little of it holds at most
// about twice what it sent.
const firstBodyBytes = 64 << 10

// ReadBody reads a request body of at most limit bytes. A declared
// Content-Length over the limit is refused before anything is read; a
// declared length caps the buffer, which grows geometrically as the body
// arrives and ends exactly that long. Chunked bodies read through
// io.ReadAll, and every body through http.MaxBytesReader. Every failure is
// a client error: "request body exceeds N bytes", or the read error.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, bodyTooLarge(limit)
	}
	rd := http.MaxBytesReader(w, r.Body, limit)
	defer rd.Close()
	var body []byte
	var err error
	if n := r.ContentLength; n >= 0 {
		body, err = ReadDeclared(rd, n)
	} else {
		body, err = io.ReadAll(rd)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, bodyTooLarge(limit)
		}
		return nil, fmt.Errorf("reading request body: %v", err)
	}
	return body, nil
}

// errBodyTooLarge is the error of a body over the limit.
var errBodyTooLarge = errors.New("request body exceeds")

func bodyTooLarge(limit int64) error {
	return fmt.Errorf("%w %d bytes", errBodyTooLarge, limit)
}

// ReadDeclared reads exactly n bytes from r. The buffer starts at
// firstBodyBytes and doubles, capped at n, each time it fills, so it never
// holds more than about twice what has arrived, and a body that arrives
// whole ends in a buffer of exactly n. A body that ends early is an
// io.ErrUnexpectedEOF.
func ReadDeclared(r io.Reader, n int64) ([]byte, error) {
	body := make([]byte, 0, min(n, firstBodyBytes))
	for int64(len(body)) < n {
		if len(body) == cap(body) {
			grown := make([]byte, len(body), min(n, 2*int64(cap(body))))
			copy(grown, body)
			body = grown
		}
		k, err := r.Read(body[len(body):cap(body)])
		body = body[:len(body)+k]
		if err == io.EOF && int64(len(body)) < n {
			return nil, io.ErrUnexpectedEOF
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
	}
	return body, nil
}

// WriteBody answers with code and v, with its Content-Length set, and
// returns the status it wrote. Both daemons write every JSON or packed
// response through it. v is packed (PackedType) when r is non-nil, its
// Accept header names PackedType and v has a packed form (AppendPacked);
// otherwise it is JSON, newline-terminated, as a json.Encoder writes it.
// Error bodies are never wire types, so they are always JSON. If v cannot
// be encoded (a non-finite float has no form on either wire) the answer is
// a 500 ErrorResponse that names the encoding error instead.
func WriteBody(w http.ResponseWriter, r *http.Request, code int, v any) int {
	var body []byte
	ok := false
	if r != nil && acceptsPacked(r) {
		body, ok = AppendPacked(nil, v)
	}
	ctype := PackedType
	if !ok {
		var err error
		ctype = "application/json"
		if body, err = AppendBody(nil, v); err != nil {
			code = http.StatusInternalServerError
			body, _ = AppendBody(nil, ErrorResponse{Error: "encoding the response: " + err.Error(), Code: code})
		}
		body = append(body, '\n')
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("Content-Type", ctype)
	w.WriteHeader(code)
	_, _ = w.Write(body)
	return code
}

// acceptsPacked reports whether r's Accept header names PackedType.
func acceptsPacked(r *http.Request) bool {
	for _, v := range r.Header.Values("Accept") {
		for part := range strings.SplitSeq(v, ",") {
			mt, _, _ := strings.Cut(part, ";")
			if strings.EqualFold(strings.TrimSpace(mt), PackedType) {
				return true
			}
		}
	}
	return false
}
