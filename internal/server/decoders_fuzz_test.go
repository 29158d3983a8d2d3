package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
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
// panic. It returns the solve's result, nil on an error.
func checkExec(t *testing.T, exec execFunc, body []byte) any {
	t.Helper()
	run, _, err := exec(body)
	if err != nil {
		if c := StatusForValidation(err); c < 400 || c > 499 {
			t.Fatalf("%q: validation HTTP %d for %v", body, c, err)
		}
		return nil
	}
	v, err := run(context.Background())
	if err != nil {
		if c := StatusForSolve(err); c < 400 || c > 499 {
			t.Fatalf("%q: solve HTTP %d for %v", body, c, err)
		}
	}
	return v
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
	execs := []execFunc{s.execSolve("linear"), s.execSolve("moebius")}
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

// FuzzDecodeGrid2D feeds raw /v1/solve/grid2d bodies to the grid decode
// and wavefront solve.
func FuzzDecodeGrid2D(f *testing.F) {
	for _, s := range []string{
		`{"system":{"rows":2,"cols":3,"semiring":"minplus","a":[1,1,1,1,1,1],"b":[1,1,1,1,1,1],"diag":[0,1,0,1,0,1],"north":[1,2,3],"west":[1,2]},"opts":{}}`,
		`{"system":{"rows":2,"cols":2,"a":[0.5,0.5,0.5,0.5],"c":[1,-1,2.5e-3,0],"north":[1,2],"west":[1,2],"northwest":-0.5},"opts":{"procs":2}}`,
		`{"system":{"rows":1,"cols":1,"semiring":"maxplus","b":[2],"north":[0],"west":[-1e308]}}`,
		`{"system":{"rows":1,"cols":2,"a":[1e300,1e300],"north":[1e300,1e300],"west":[1e300]}}`,
		`{"system":{"rows":2,"cols":2,"north":[1,2],"west":[1,2]}}`,
		`{"system":{"rows":1,"cols":2,"a":[1],"north":[1,2],"west":[1]}}`,
		`{"system":{"rows":64,"cols":64,"a":[],"north":[],"west":[]}}`,
		`{"system":{"rows":-1,"cols":3,"a":[1,1,1]}}`,
		`{"system":{"rows":9223372036854775807,"cols":2,"a":[1]}}`,
		`{"system":{"rows":1,"cols":1,"semiring":"tropical","a":[1],"north":[0],"west":[0]}}`,
		`{"system":{"rows":1,"cols":1,"a":[null],"north":[0],"west":[0]}}`,
		`{"system":{"rows":1,"cols":1,"a":[1],"north":null,"west":[0]},"opts":{"timeout_ms":-1}}`,
		`{"system":null}`, `null`, `{`, `[]`,
	} {
		f.Add([]byte(s))
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkExec(t, s.execSolve("grid2d"), body)
	})
}

// FuzzLoopRoute feeds raw /v1/solve/loop bodies to the loop route's decode
// and execution: every loop form, nests, and ranges from the client's "n"
// or literal bounds, which MaxN (1,024 here) bounds at every level before
// anything is tabulated.
func FuzzLoopRoute(f *testing.F) {
	for _, s := range []string{
		`{"loop":"for i = 1 to n do X[i] := X[i-1] + X[i]","n":8,"arrays":{"X":[1,1,1,1,1,1,1,1,1]}}`,
		`{"loop":"for i = 1 to n do X[i] := A[i]*X[i-1] + B[i]","n":3,"arrays":{"X":[1,0,0,0],"A":[0,2,2,2],"B":[0,1,1,1]}}`,
		`{"loop":"for i = 1 to n do X[i] := X[i] + 2*X[i-1] + 1","n":3,"arrays":{"X":[1,1,1,1]}}`,
		`{"loop":"for i = 1 to n do X[i] := (2*X[i-1] + 1)/(X[i-1] + 3)","n":4,"arrays":{"X":[1,0,0,0,0]}}`,
		`{"loop":"for i = 0 to 3 do X[G[i]] := X[G[i]] + B[i]","arrays":{"X":[0,0],"G":[0,1,0,1],"B":[1,2,3,4]}}`,
		`{"loop":"for i = 1 to 4 do X[i] := X[i-1] * X[H[i]]","arrays":{"X":[2,1,1,1,1],"H":[0,0,1,2,3]}}`,
		`{"loop":"for i = 0 to 3 do X[i] := Y[i] * s","scalars":{"s":2},"arrays":{"X":[0,0,0,0],"Y":[1,2,3,4]}}`,
		`{"loop":"for j = 1 to 3 do for i = 1 to 4 do X[i] := X[i] + X[i-1]","arrays":{"X":[1,1,1,1,1]}}`,
		`{"loop":"for i = 1 to 3 do begin X[i] := X[i-1] + 1; Y[i] := Y[i-1] * 2 end","arrays":{"X":[0,0,0,0],"Y":[1,0,0,0]}}`,
		`{"loop":"for i = 0 to 2 do X[i] := 1/0","arrays":{"X":[0,0,0]}}`,
		`{"loop":"for i = 1 to n do X[i] := X[i-1] + 1","n":1025,"arrays":{"X":[0]}}`,
		`{"loop":"for i = 0 to 9223372036854775807 do X[i] := 1","arrays":{"X":[0]}}`,
		`{"loop":"for j = 1 to 64 do for i = 1 to 32 do X[0] := X[0] + 1","arrays":{"X":[0]}}`,
		`{"loop":"for i = 1 to 3 do X[i] := Y[i]","arrays":{"X":[0]}}`,
		`{"loop":"for i = 1 to 3 do X[i] := X[i-1] + 1"}`,
		`{"loop":"for i = 1 to 2.5 do X[i] := 1","arrays":{"X":[0,0,0]},"opts":{"procs":-1}}`,
		`{"loop":"for i = 1 to"}`, `{"loop":""}`, `{}`, `null`, `{`,
	} {
		f.Add([]byte(s))
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		if v := checkExec(t, s.execLoop, body); v != nil {
			// A 2xx must be a body JSON can carry, not an empty answer.
			if _, err := AppendBody(nil, v); err != nil {
				t.Fatalf("%q: the 2xx result does not encode: %v", body, err)
			}
		}
	})
}

// FuzzSessionRoutes feeds a raw open body to POST /v1/session and a raw
// append body to POST /v1/session/{id}/append, against the fuzzed open's
// session when it opens and otherwise against a fresh session of the
// family kind selects. Every answer must be a 2xx or a 4xx.
func FuzzSessionRoutes(f *testing.F) {
	bases := []string{
		`{"family":"ordinary","system":{"m":8,"n":2,"g":[1,2],"f":[0,1]},"op":"int64-add","init":[1,0,0,0,0,0,0,0]}`,
		`{"family":"general","system":{"m":4,"n":2,"g":[1,1],"f":[0,0],"h":[1,1]},"op":"mul-mod","mod":7,"init":[2,3,0,0]}`,
		`{"family":"linear","m":8,"g":[1],"f":[0],"a":[0.5],"b":[1],"x0":[1,0,0,0,0,0,0,0]}`,
		`{"family":"moebius","m":8,"g":[1],"f":[0],"a":[1],"b":[1],"c":[0.25],"d":[1],"x0":[1,0,0,0,0,0,0,0]}`,
	}
	for i, open := range append(bases,
		`{"family":"linear","m":3,"g":[1,2],"f":[0,1],"a":[2,0.5],"b":[1,-1],"x0":[1,2,3],"extended":true}`,
		`{"family":"auto","system":{"m":3,"n":1,"g":[1],"f":[0]},"op":"float64-add","init":[0.5,1e-7,-0]}`,
		`{"family":"linear","m":2,"x0":[1,2],"c":[]}`, `{"family":"quantum"}`, `{"family":"linear","m":-1}`, `null`, `{`,
		// An ordinary open with H != G once answered 500, and an extended
		// open with b longer than g panicked in the rewrite.
		`{"family":"ordinary","system":{"m":3,"n":1,"g":[0],"f":[1],"h":[2]},"op":"int64-add","init":[1,2,3]}`,
		`{"family":"linear","m":3,"g":[1],"f":[0],"a":[1],"b":[1,2],"x0":[1,0,0],"extended":true}`,
	) {
		for _, app := range []string{
			`{"g":[3],"f":[2]}`, `{"g":[2],"f":[1],"h":[2]}`, `{"g":[2],"f":[1],"a":[1],"b":[0.5]}`,
			`{"g":[2],"f":[1],"a":[1],"b":[1],"c":[0]}`, `{"g":[2],"f":[1],"a":[1],"b":[1],"c":[1],"d":[-1]}`,
			`{"g":[1],"f":[0],"a":[1],"b":[1]}`, `{"g":[99],"f":[0],"a":[1],"b":[1]}`, `{"g":[2],"f":[1],"a":[1e308],"b":[1e308]}`,
			`{"g":[2],"f":[1],"opts":{"timeout_ms":-1}}`, `{"g":null,"f":null}`, `{}`, `null`, `{`,
		} {
			f.Add(uint8(i), []byte(open), []byte(app))
		}
	}
	s := fuzzServer(f)
	h := s.Handler()
	post := func(t *testing.T, path string, body []byte) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code/100 != 2 && rec.Code/100 != 4 {
			t.Fatalf("POST %s %q: HTTP %d: %s", path, body, rec.Code, rec.Body.Bytes())
		}
		if rec.Code/100 != 2 {
			return nil
		}
		return rec.Body.Bytes()
	}
	f.Fuzz(func(t *testing.T, kind uint8, open, app []byte) {
		resp := post(t, SessionPrefix, open)
		if resp == nil {
			resp = post(t, SessionPrefix, []byte(bases[int(kind)%len(bases)]))
		}
		var opened SessionOpenResponse
		if err := UnmarshalBody(resp, &opened); err != nil {
			t.Fatalf("open response %s: %v", resp, err)
		}
		defer s.sessions.Delete(opened.ID)
		post(t, SessionPrefix+"/"+opened.ID+"/append", app)
	})
}
