package server

import (
	"context"
	"testing"
	"time"
)

// fuzzServer is a small-limit server whose exec paths the decoder fuzzers
// drive directly, without HTTP.
func fuzzServer(f *testing.F) *Server {
	s := New(Config{MaxN: 1 << 10, Workers: 1, Procs: 2})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// checkExec runs one body through exec and, when it validates, its solve:
// an error from either must map to a 4xx, never a 5xx, and nothing may
// panic.
func checkExec(t *testing.T, exec execFunc, body []byte) {
	t.Helper()
	run, _, err := exec(body)
	if err != nil {
		if c := StatusForValidation(err); c < 400 || c > 499 {
			t.Fatalf("%q: validation HTTP %d for %v", body, c, err)
		}
		return
	}
	if _, err := run(context.Background()); err != nil {
		if c := StatusForSolve(err); c < 400 || c > 499 {
			t.Fatalf("%q: solve HTTP %d for %v", body, c, err)
		}
	}
}

// FuzzDecodeMoebius feeds raw bodies to the linear (plain and extended) and
// moebius endpoints' decode and solve.
func FuzzDecodeMoebius(f *testing.F) {
	for _, s := range []string{
		`{"m":3,"g":[1,2],"f":[0,1],"a":[1,1],"b":[1,1],"x0":[1,0,0]}`,
		`{"m":3,"g":[1,2],"f":[0,1],"a":[2,0.5],"b":[1,-1],"x0":[1,2,3],"extended":true}`,
		`{"m":2,"g":[1],"f":[0],"a":[1],"b":[0],"c":[1],"d":[1],"x0":[1,0]}`,
		`{"m":2,"g":[1],"f":[0],"a":[1e308],"b":[1e308],"x0":[1e308,0],"opts":{"procs":2}}`,
		`{"m":2,"g":[1],"f":[0],"a":[0],"b":[1],"c":[0],"d":[0],"x0":[1,0]}`,
		`{"m":3,"g":[1,1],"f":[0,0],"a":[1,1],"b":[1,1],"x0":[1,0,0]}`,
		`{"m":2,"g":[5],"f":[0],"a":[1],"b":[1],"x0":[1,0]}`,
		`{"m":2,"g":[1],"f":[0],"a":[1,2],"b":[1],"x0":[1]}`,
		`{"m":-1,"g":[],"f":[],"x0":[]}`,
		`{"m":2,"g":[1],"f":[null],"a":[1],"b":[1],"x0":[1,0]}`,
		`{"m":2,"g":[1],"f":[0],"a":[1],"b":[1],"x0":[1,0],"opts":{"procs":-1}}`,
		// The extended rewrite once indexed b and x0 before validating and
		// panicked on this body.
		`{"m":3,"g":[0],"X0":[0,0,0],"eXtended":true}`,
		`null`, `{`, `[]`,
	} {
		for e := range uint8(3) {
			f.Add(e, []byte(s))
		}
	}
	s := fuzzServer(f)
	execs := []execFunc{s.execMoebius("linear"), s.execMoebius("moebius")}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		checkExec(t, execs[int(endpoint)%len(execs)], body)
	})
}

// FuzzExecShard feeds raw /v1/shard/solve bodies, of every family, to the
// worker role's decode and shard solve.
func FuzzExecShard(f *testing.F) {
	for _, s := range []string{
		`{"family":"ordinary","system":{"m":9,"g":[1,2,3,4,5,6,7,8],"f":[0,1,2,3,4,5,6,7]},"shard":{"lo":0,"hi":1},"op":"int64-add","init":[1,2,3,4,5,6,7,8,9]}`,
		`{"family":"ordinary","system":{"m":9,"g":[1,2],"f":[0,1]},"shard":{"lo":0,"hi":5},"op":"int64-add","init":[1,2,3,4,5,6,7,8,9]}`,
		`{"family":"general","system":{"m":3,"g":[1,2],"f":[0,0],"h":[1,1]},"shard":{"lo":0,"hi":3},"op":"mul-mod","mod":7,"init":[1,2,3]}`,
		`{"family":"general","system":{"m":9,"n":1,"g":[1],"f":[0],"cells":[2,5]},"shard":{"lo":1,"hi":2},"op":"float64-add","init":[1.5,2]}`,
		`{"family":"moebius","system":{"m":3,"g":[1,2],"f":[0,1]},"shard":{"lo":0,"hi":1},"a":[1,1],"b":[1,1],"x0":[1,0,0]}`,
		`{"family":"moebius","system":{"m":2,"g":[1],"f":[0]},"shard":{"lo":0,"hi":1},"a":[1],"b":[1],"c":[1],"d":[0],"x0":[0,0]}`,
		`{"family":"moebius","system":{"m":2,"g":[1],"f":[0]},"shard":{"lo":0,"hi":9},"a":[1],"x0":[0,0]}`,
		`{"family":"grid2d","shard":{"lo":0,"hi":2},"grid":{"rows":2,"cols":2,"semiring":"minplus","a":[1,1,1,1],"b":[1,1,1,1],"north":[1,2],"west":[1,2]}}`,
		`{"family":"grid2d","shard":{"lo":0,"hi":1},"grid":{"rows":2,"cols":2,"north":[1,2],"west":[1,2]}}`,
		`{"family":"grid2d","shard":{"lo":0,"hi":0}}`,
		`{"family":"scan","shard":{"lo":0,"hi":1}}`,
		`{"family":"ordinary","shard":{"lo":-1,"hi":0}}`,
		// A repeated ordinary g and a Möbius shard without x0 once failed
		// their solves with unmapped errors, answering 500.
		`{"family":"ordinary","system":{"m":9,"g":[1,1],"f":[0,0]},"op":"int64-add","init":[0,0,0,0,0,0,0,0,0]}`,
		`{"family":"moebius","system":{"m":10},"shard":{"lo":0,"hi":0}}`,
		`null`, `{`, `[]`,
	} {
		f.Add([]byte(s))
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkExec(t, s.execShard, body)
	})
}
