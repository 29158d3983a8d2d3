package server

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"indexedrec/internal/parallel"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

// TestNullElementRejected: a null inside an integer array answers 400 on
// every endpoint that decodes one, where encoding/json alone would read it
// as 0 and solve a different system. A null init element, or a fractional
// one, keeps its 400 and its "init[i] = ..." message.
func TestNullElementRejected(t *testing.T) {
	_, ts, down := newTestServer(t, Config{})
	defer down()
	sys := `{"m":3,"n":2,"g":[1,null],"f":[0,1]}`
	cases := []struct {
		name, path, body, msg string
	}{
		{"ordinary g", APIPrefix + "ordinary", `{"system":` + sys + `,"op":"int64-add","init":[1,2,3]}`, "system.g"},
		{"general h", APIPrefix + "general", `{"system":{"m":3,"n":2,"g":[1,2],"f":[0,1],"h":[null,2]},"op":"int64-add","init":[1,2,3]}`, "system.h"},
		{"sparse cells", APIPrefix + "ordinary", `{"system":{"m":9,"n":1,"g":[1],"f":[0],"cells":[2,null]},"op":"int64-add","init":[1,2]}`, "system.cells"},
		{"shard g", ShardPrefix + "solve", `{"family":"ordinary","system":` + sys + `,"shard":{"lo":0,"hi":1},"op":"int64-add","init":[1,2,3]}`, "system.g"},
		{"linear f", APIPrefix + "linear", `{"m":2,"g":[1],"f":[null],"a":[1],"b":[1],"x0":[1,0]}`, "LinearRequest.f"},
		{"init null", APIPrefix + "ordinary", `{"system":{"m":3,"n":2,"g":[1,2],"f":[0,1]},"op":"int64-add","init":[1,null,3]}`, "init[1] = null is not an int64"},
		{"init fraction", APIPrefix + "general", `{"system":{"m":3,"n":2,"g":[1,2],"f":[0,1]},"op":"int64-add","init":[1, 2.5,3]}`, "init[1] = 2.5 is not an int64"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var er ErrorResponse
			err = json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(er.Error, tc.msg) {
				t.Errorf("HTTP %d %q (%v), want 400 naming %q", resp.StatusCode, er.Error, err, tc.msg)
			}
		})
	}
}

// refSystem, refOrdinary and refGeneral mirror the request types with
// plain []int fields, so encoding/json's reflection decodes them.
type refSystem struct {
	M     int     `json:"m"`
	N     int     `json:"n"`
	G     refInts `json:"g"`
	F     refInts `json:"f"`
	H     refInts `json:"h"`
	Cells refInts `json:"cells"`
}

type refOrdinary struct {
	System refSystem       `json:"system"`
	Op     string          `json:"op"`
	Mod    int64           `json:"mod"`
	Init   json.RawMessage `json:"init"`
	Opts   ir.OptionsWire  `json:"opts"`
}

type refGeneral struct {
	System     refSystem       `json:"system"`
	Op         string          `json:"op"`
	Mod        int64           `json:"mod"`
	Init       json.RawMessage `json:"init"`
	WithPowers bool            `json:"with_powers"`
	Opts       ir.OptionsWire  `json:"opts"`
}

var errNullElement = errors.New("null element")

// refInts decodes as a plain []int through encoding/json, plus the wire's
// null-element rule.
type refInts []int

func (r *refInts) UnmarshalJSON(b []byte) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	for _, e := range raw {
		if string(e) == "null" {
			return errNullElement
		}
	}
	var v []int
	err := json.Unmarshal(b, &v)
	*r = v
	return err
}

// refInitInt is the json.Number decode of an integer init array, plus the
// null-element rule; a quoted number, which json.Number would take, is
// rejected like in every other integer array.
func refInitInt(raw json.RawMessage) ([]int64, error) {
	var elems []json.RawMessage
	if err := json.Unmarshal(raw, &elems); err != nil {
		return nil, err
	}
	var vals []json.Number
	if err := json.Unmarshal(raw, &vals); err != nil {
		return nil, err
	}
	out := make([]int64, len(vals))
	for i, v := range vals {
		x, err := v.Int64()
		if err != nil || elems[i][0] == 'n' || elems[i][0] == '"' {
			return nil, errors.New("not an int64")
		}
		out[i] = x
	}
	return out, nil
}

// refDecode is the reference for DecodeSolveBody: the mirror structs, the
// json.Number init decode, then the shared DecodeSolve validation on the
// reference-decoded arrays.
func refDecode(family ir.Family, body []byte, lim Limits) (*SolveRequest, error) {
	var req refGeneral
	var err error
	if family == ir.FamilyOrdinary {
		var o refOrdinary
		err = json.Unmarshal(body, &o)
		req = refGeneral{System: o.System, Op: o.Op, Mod: o.Mod, Init: o.Init, Opts: o.Opts}
	} else {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		return nil, err
	}
	var initInt []int64
	iop, opErr := ir.IntOpByName(req.Op, req.Mod)
	intDomain := opErr == nil && iop != nil && len(req.Init) > 0
	if intDomain {
		if initInt, err = refInitInt(req.Init); err != nil {
			return nil, err
		}
	}
	s := req.System
	w := ir.SystemWire{M: s.M, N: s.N, G: []int(s.G), F: []int(s.F), H: []int(s.H), Cells: []int(s.Cells)}
	r, err := DecodeSolve(family, w, req.Op, req.Mod, req.Init, req.WithPowers, req.Opts, lim)
	if err == nil && intDomain {
		r.Data.InitInt = initInt
	}
	return r, err
}

// FuzzDecodeSolveBody feeds raw ordinary and general bodies to the one
// decoder behind /v1/solve/{ordinary,general}: it must never panic, every
// error must map to a 4xx, and it must accept exactly what the reference
// decode accepts, with the same result.
func FuzzDecodeSolveBody(f *testing.F) {
	for _, s := range []string{
		`{"system":{"m":3,"n":2,"g":[1,2],"f":[0,1]},"op":"int64-add","init":[1,2,3]}`,
		`{"system":{"m":3,"g":[1,2],"f":[0,0],"h":[1,1]},"op":"mul-mod","mod":7,"init":[1,2,3],"with_powers":true}`,
		`{"system":{"m":9,"n":1,"g":[1],"f":[0],"cells":[2,5]},"op":"int64-add","init":[1,2]}`,
		`{"system":{"m":2,"g":[1],"f":[0]},"op":"float-add","init":[1.5,2]}`,
		`{"system":{"m":3,"n":2,"g":[1,null],"f":[0,1]},"op":"int64-add","init":[1,2,3]}`,
		`{"system":{"m":3,"n":2,"g":[1,2],"f":[0,1]},"op":"int64-add","init":[1,null,3]}`,
		`{"system":{"m":3,"n":2,"g":[1,2],"f":[0,1]},"op":"int64-add","init":["1",2,3]}`,
		`{"system":{"m":3,"n":2,"g":[1,2],"f":[0,1]},"op":"int64-add","init":[1,2.5,3]}`,
		`{"system":{"m":2,"g":[1e0],"f":[0]},"op":"int64-add","init":[1,2],"opts":{"procs":2,"timeout_ms":5}}`,
		`{"system":{"m":2,"g":[1],"f":[0]},"system":{"g":[1],"f":[-0]},"op":"int64-add","init":null}`,
		`{"system":null,"op":"int64-add","init":[]}`,
		`{"system":{"m":0},"op":"int64-add","init":null}`,
		`{"system":{"m":2,"g":[9223372036854775808],"f":[0]},"op":"int64-add","init":[1,2]}`,
		`{"System":{"M":2,"G":[1],"F":[0]},"OP":"int64-add","Init":[1,2]}`,
		`[]`, `null`, `{`,
	} {
		f.Add(false, []byte(s))
		f.Add(true, []byte(s))
	}
	lim := Limits{MaxN: 1 << 12, MaxExponentBits: 64}
	f.Fuzz(func(t *testing.T, general bool, body []byte) {
		family := ir.FamilyOrdinary
		if general {
			family = ir.FamilyGeneral
		}
		got, err := DecodeSolveBody(family, body, lim)
		if err != nil {
			if c := StatusForValidation(err); c < 400 || c > 499 {
				t.Fatalf("%s: HTTP %d for %v", body, c, err)
			}
		}
		want, wantErr := refDecode(family, body, lim)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s %q: err %v, reference err %v", family, body, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %q:\n got %+v\nwant %+v", family, body, got, want)
		}
	})
}

// ordinaryBody131k is served-ordinary-131k's request body: a 131,072-cell
// RandomOrdinary system with int64-add init.
func ordinaryBody131k(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 17
	sys := workload.RandomOrdinary(rng, n, n)
	init, err := json.Marshal(workload.InitInt64(rng, n, 1_000_000))
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(OrdinaryRequest{System: ir.WireFromSystem(sys), Op: "int64-add", Init: init})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// Decode budget for the 131,072-cell body: a constant allocation count
// (each integer array is sized once, from its comma count) and the bytes of
// its three 1 MiB arrays (g, f and init) plus a tenth, so a copy of init
// (0.9 MB, as a json.RawMessage once held it) breaks the budget. The
// reflection decode took 131,179 allocations and 24.7 MB per decode.
const (
	decodeAllocBudget = 64
	decodeBytesBudget = 3_460_000
)

// TestDecodeSolveBodyAllocBudget gates the JSON wire's decode cost on the
// served-ordinary-131k body.
func TestDecodeSolveBodyAllocBudget(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	body := ordinaryBody131k(t)
	lim := Limits{MaxN: 4 << 20, MaxExponentBits: 64}
	decode := func() {
		if _, err := DecodeSolveBody(ir.FamilyOrdinary, body, lim); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		decode()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("DecodeSolveBody on a %d-byte body: %d allocs, %d B per decode", len(body), allocs, bytes)
	if allocs > decodeAllocBudget || bytes > decodeBytesBudget {
		t.Fatalf("%d allocs and %d B per decode, budget %d allocs and %d B", allocs, bytes, decodeAllocBudget, decodeBytesBudget)
	}
}

func BenchmarkDecodeSolveBody(b *testing.B) {
	body := ordinaryBody131k(b)
	lim := Limits{MaxN: 4 << 20, MaxExponentBits: 64}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeSolveBody(ir.FamilyOrdinary, body, lim); err != nil {
			b.Fatal(err)
		}
	}
}

// wireEncodings are the two body encodings the wire benchmarks compare:
// JSON, as curl and AppendBody write it, and the packed form the typed
// client sends. Each appends v or fails the benchmark.
var wireEncodings = []struct {
	name   string
	append func(b *testing.B, v any) []byte
}{
	{"json", func(b *testing.B, v any) []byte {
		out, err := AppendBody(nil, v)
		if err != nil {
			b.Fatal(err)
		}
		return out
	}},
	{"packed", func(b *testing.B, v any) []byte {
		out, ok := AppendPacked(nil, v)
		if !ok {
			b.Fatalf("%T has no packed form", v)
		}
		return out
	}},
}

// BenchmarkSolveWireRoundTrip runs the four wire steps of one
// served-ordinary-131k solve, as a client and irserved take them, in each
// encoding: client encode, server decode, response encode, client decode.
// The solve itself is left out; the response carries the init values.
// request_B and response_B report the body sizes.
func BenchmarkSolveWireRoundTrip(b *testing.B) {
	body := ordinaryBody131k(b)
	var req OrdinaryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		b.Fatal(err)
	}
	lim := Limits{MaxN: 4 << 20, MaxExponentBits: 64}
	for _, enc := range wireEncodings {
		b.Run(enc.name, func(b *testing.B) {
			var reqBytes, respBytes int
			b.ReportAllocs()
			for b.Loop() {
				payload := enc.append(b, req)
				sr, err := DecodeSolveBody(ir.FamilyOrdinary, payload, lim)
				if err != nil {
					b.Fatal(err)
				}
				out := enc.append(b, OrdinaryResponse{ValuesInt: sr.Data.InitInt, Rounds: 1, Combines: int64(sr.Sys.N), ElapsedMs: 1.25})
				var resp OrdinaryResponse
				if err := UnmarshalBody(out, &resp); err != nil {
					b.Fatal(err)
				}
				if len(resp.ValuesInt) != sr.Sys.M {
					b.Fatalf("%d values, want %d", len(resp.ValuesInt), sr.Sys.M)
				}
				reqBytes, respBytes = len(payload), len(out)
			}
			b.ReportMetric(float64(reqBytes), "request_B")
			b.ReportMetric(float64(respBytes), "response_B")
		})
	}
}

// BenchmarkSessionOpenWire runs the wire steps of served-session-append's
// set-up in each encoding: the client encodes a linear session open with a
// 65,537-float x0 drawn from [-1, 1), and the server decodes it. request_B
// reports the body size.
func BenchmarkSessionOpenWire(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	req := SessionOpenRequest{Family: "linear", M: 65537, X0: make([]float64, 65537)}
	for i := range req.X0 {
		req.X0[i] = 2*rng.Float64() - 1
	}
	for _, enc := range wireEncodings {
		b.Run(enc.name, func(b *testing.B) {
			var reqBytes int
			b.ReportAllocs()
			for b.Loop() {
				payload := enc.append(b, req)
				var got SessionOpenRequest
				if err := decodeBody(payload, &got, true); err != nil || len(got.X0) != req.M {
					b.Fatalf("decode: %v, %d floats", err, len(got.X0))
				}
				reqBytes = len(payload)
			}
			b.ReportMetric(float64(reqBytes), "request_B")
		})
	}
}
