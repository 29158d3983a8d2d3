package server

import (
	"bytes"
	"io"
	"testing"
)

// TestReadDeclared reads declared lengths on both sides of firstBodyBytes
// and of its doublings, whole and cut short by one byte.
func TestReadDeclared(t *testing.T) {
	for _, n := range []int{0, 1, firstBodyBytes, firstBodyBytes + 1, 4*firstBodyBytes + 4096} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 7)
		}
		got, err := ReadDeclared(bytes.NewReader(body), int64(n))
		if err != nil || !bytes.Equal(got, body) || cap(got) != n {
			t.Fatalf("n = %d: %d bytes (cap %d), err %v", n, len(got), cap(got), err)
		}
		if n == 0 {
			continue
		}
		if _, err := ReadDeclared(bytes.NewReader(body[:n-1]), int64(n)); err != io.ErrUnexpectedEOF {
			t.Fatalf("n = %d cut by one: err %v, want an unexpected EOF", n, err)
		}
	}
}

// trickle hands out its bytes a few at a time and checks that the reader
// never offers it more room than max(firstBodyBytes, bytes already sent):
// the buffer holds at most about twice what has arrived.
type trickle struct {
	t    *testing.T
	left int
	sent int
	step int
}

func (r *trickle) Read(p []byte) (int, error) {
	if len(p) > max(firstBodyBytes, r.sent) {
		r.t.Fatalf("offered %d bytes of room after %d arrived", len(p), r.sent)
	}
	if r.left == 0 {
		return 0, io.EOF
	}
	k := min(len(p), r.step, r.left)
	r.left -= k
	r.sent += k
	return k, nil
}

// TestReadDeclaredGrowsAsBytesArrive declares 8,000,000 bytes (under
// irserved's default limit) and sends none, then some, of them: the buffer
// must follow what arrives, not what was declared.
func TestReadDeclaredGrowsAsBytesArrive(t *testing.T) {
	const declared = 8_000_000
	for _, sent := range []int{0, 1000, 300_000} {
		r := &trickle{t: t, left: sent, step: 4093}
		if _, err := ReadDeclared(r, declared); err != io.ErrUnexpectedEOF {
			t.Fatalf("%d of %d bytes sent: err %v, want an unexpected EOF", sent, declared, err)
		}
	}
	r := &trickle{t: t, left: declared, step: 1 << 16}
	if got, err := ReadDeclared(r, declared); err != nil || len(got) != declared || cap(got) != declared {
		t.Fatalf("whole body: %d bytes (cap %d), err %v", len(got), cap(got), err)
	}
}
