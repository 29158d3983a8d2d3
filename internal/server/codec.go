package server

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"sync/atomic"

	"indexedrec/internal/jsonwire"
	"indexedrec/ir"
)

// The one-pass codec of the ordinary/general solve wire. Requests and
// responses decode in one left-to-right walk over the body (jsonwire.Walker)
// and encode with one append, instead of encoding/json's validation pass,
// skip passes and reflection. The bytes on the wire do not change:
//
//   - A decode takes the walk only when the body is canonical: exact keys,
//     each at most once, strings of printable ASCII without escapes, no null
//     values and no other grammar than the walk knows. For any other body the
//     walk declines, and encoding/json decodes it as it always has, under the
//     same type names, so every accepted result and every error message is
//     encoding/json's.
//   - An encode appends exactly what json.Marshal writes. Where the appender
//     does not cover a value (an init that is not a compact number array, a
//     non-finite float, power traces) it calls json.Marshal for that body.

// fallbacks counts decodes that declined the walk; tests read it to prove
// that canonical bodies never do.
var fallbacks atomic.Int64

// Method-free views of the wire types: the fallback decodes through them
// so encoding/json neither recurses into UnmarshalJSON nor changes the type
// names its errors quote.
type (
	ordinaryRequestFields  = OrdinaryRequest
	generalRequestFields   = GeneralRequest
	ordinaryResponseFields = OrdinaryResponse
	generalResponseFields  = GeneralResponse
)

// UnmarshalJSON decodes an ordinary request as json.Unmarshal does, in one
// walk over a canonical body. Init is a copy, as json.Unmarshaler requires.
func (r *OrdinaryRequest) UnmarshalJSON(b []byte) error {
	return r.unmarshal(b, true)
}

// unmarshal is UnmarshalJSON; with copyInit false, a walked Init aliases b,
// for a caller that owns b and never changes it.
func (r *OrdinaryRequest) unmarshal(b []byte, copyInit bool) error {
	saved := *r
	if walkRequest(b, &r.System, &r.Op, &r.Mod, &r.Init, nil, &r.Opts, copyInit) {
		return nil
	}
	*r = saved
	fallbacks.Add(1)
	type OrdinaryRequest ordinaryRequestFields
	return json.Unmarshal(b, (*OrdinaryRequest)(r))
}

// UnmarshalJSON decodes a general request as json.Unmarshal does (see
// OrdinaryRequest.UnmarshalJSON).
func (r *GeneralRequest) UnmarshalJSON(b []byte) error {
	return r.unmarshal(b, true)
}

// unmarshal is UnmarshalJSON; with copyInit false, a walked Init aliases b.
func (r *GeneralRequest) unmarshal(b []byte, copyInit bool) error {
	saved := *r
	if walkRequest(b, &r.System, &r.Op, &r.Mod, &r.Init, &r.WithPowers, &r.Opts, copyInit) {
		return nil
	}
	*r = saved
	fallbacks.Add(1)
	type GeneralRequest generalRequestFields
	return json.Unmarshal(b, (*GeneralRequest)(r))
}

// walkRequest reads an ordinary (withPowers nil) or general request body
// into the given fields, reporting false if the body is not canonical.
// Init is copied out of b when copyInit is set, and aliases it otherwise.
func walkRequest(b []byte, sys *ir.SystemWire, op *string, mod *int64, init *json.RawMessage, withPowers *bool, opts *ir.OptionsWire, copyInit bool) bool {
	w := jsonwire.NewWalker(b)
	var seen uint
	for key := range w.Object() {
		switch string(key) {
		case "system":
			once(w, &seen, 1<<0)
			walkSystem(w, sys)
		case "op":
			once(w, &seen, 1<<1)
			*op = w.Text()
		case "mod":
			once(w, &seen, 1<<2)
			*mod = w.Int(64)
		case "init":
			once(w, &seen, 1<<3)
			*init = w.NumberArray()
			if copyInit {
				*init = bytes.Clone(*init)
			}
		case "opts":
			once(w, &seen, 1<<4)
			walkOptions(w, opts)
		case "with_powers":
			if withPowers == nil {
				w.Fail()
				break
			}
			once(w, &seen, 1<<5)
			*withPowers = w.Bool()
		default:
			w.Fail()
		}
	}
	return w.Done()
}

func walkSystem(w *jsonwire.Walker, sys *ir.SystemWire) {
	var seen uint
	for key := range w.Object() {
		switch string(key) {
		case "m":
			once(w, &seen, 1<<0)
			sys.M = int(w.Int(strconv.IntSize))
		case "n":
			once(w, &seen, 1<<1)
			sys.N = int(w.Int(strconv.IntSize))
		case "g":
			once(w, &seen, 1<<2)
			sys.G = jsonwire.IntArray[int](w, strconv.IntSize)
		case "f":
			once(w, &seen, 1<<3)
			sys.F = jsonwire.IntArray[int](w, strconv.IntSize)
		case "h":
			once(w, &seen, 1<<4)
			sys.H = jsonwire.IntArray[int](w, strconv.IntSize)
		case "cells":
			once(w, &seen, 1<<5)
			sys.Cells = jsonwire.IntArray[int](w, strconv.IntSize)
		default:
			w.Fail()
		}
	}
}

func walkOptions(w *jsonwire.Walker, o *ir.OptionsWire) {
	var seen uint
	for key := range w.Object() {
		switch string(key) {
		case "procs":
			once(w, &seen, 1<<0)
			o.Procs = int(w.Int(strconv.IntSize))
		case "max_exponent_bits":
			once(w, &seen, 1<<1)
			o.MaxExponentBits = int(w.Int(strconv.IntSize))
		case "timeout_ms":
			once(w, &seen, 1<<2)
			o.TimeoutMs = int(w.Int(strconv.IntSize))
		default:
			w.Fail()
		}
	}
}

// once fails the walk on a repeated key: encoding/json merges repeats, which
// the walk leaves to it.
func once(w *jsonwire.Walker, seen *uint, bit uint) {
	if *seen&bit != 0 {
		w.Fail()
	}
	*seen |= bit
}

// UnmarshalJSON decodes an ordinary response as json.Unmarshal does, in one
// walk over a canonical body.
func (r *OrdinaryResponse) UnmarshalJSON(b []byte) error {
	saved := *r
	if walkResponse(b, &r.ValuesInt, &r.ValuesFloat, &r.Cells, &r.Rounds, &r.Combines, nil, &r.ElapsedMs) {
		return nil
	}
	*r = saved
	fallbacks.Add(1)
	type OrdinaryResponse ordinaryResponseFields
	return json.Unmarshal(b, (*OrdinaryResponse)(r))
}

// UnmarshalJSON decodes a general response as json.Unmarshal does, in one
// walk over a canonical body without power traces.
func (r *GeneralResponse) UnmarshalJSON(b []byte) error {
	saved := *r
	if walkResponse(b, &r.ValuesInt, &r.ValuesFloat, &r.Cells, nil, nil, &r.CAPRounds, &r.ElapsedMs) {
		return nil
	}
	*r = saved
	fallbacks.Add(1)
	type GeneralResponse generalResponseFields
	return json.Unmarshal(b, (*GeneralResponse)(r))
}

// walkResponse reads an ordinary (capRounds nil) or general (rounds and
// combines nil) response body into the given fields, reporting false if
// the body is not canonical.
func walkResponse(b []byte, valuesInt *ir.Int64s, valuesFloat *[]float64, cells *ir.Ints, rounds *int, combines *int64, capRounds *int, elapsedMs *float64) bool {
	w := jsonwire.NewWalker(b)
	var seen uint
	for key := range w.Object() {
		switch string(key) {
		case "values_int":
			once(w, &seen, 1<<0)
			*valuesInt = jsonwire.IntArray[int64](w, 64)
		case "values_float":
			once(w, &seen, 1<<1)
			*valuesFloat = w.Floats()
		case "cells":
			once(w, &seen, 1<<2)
			*cells = jsonwire.IntArray[int](w, strconv.IntSize)
		case "rounds":
			once(w, &seen, 1<<3)
			walkInt(w, rounds)
		case "combines":
			once(w, &seen, 1<<4)
			if combines == nil {
				w.Fail()
				break
			}
			*combines = w.Int(64)
		case "cap_rounds":
			once(w, &seen, 1<<5)
			walkInt(w, capRounds)
		case "elapsed_ms":
			once(w, &seen, 1<<6)
			*elapsedMs = w.Float()
		default:
			w.Fail()
		}
	}
	return w.Done()
}

// walkInt reads an int into dst, failing the walk when the type has no
// such field (dst nil).
func walkInt(w *jsonwire.Walker, dst *int) {
	if dst == nil {
		w.Fail()
		return
	}
	*dst = int(w.Int(strconv.IntSize))
}

// AppendJSON appends the request as json.Marshal encodes it.
func (r OrdinaryRequest) AppendJSON(dst []byte) ([]byte, error) {
	if !canAppendInit(r.Init) {
		return appendMarshal(dst, r)
	}
	dst = appendRequest(dst, &r.System, r.Op, r.Mod, r.Init)
	return appendOptions(dst, r.Opts), nil
}

// AppendJSON appends the request as json.Marshal encodes it.
func (r GeneralRequest) AppendJSON(dst []byte) ([]byte, error) {
	if !canAppendInit(r.Init) {
		return appendMarshal(dst, r)
	}
	dst = appendRequest(dst, &r.System, r.Op, r.Mod, r.Init)
	if r.WithPowers {
		dst = append(dst, `,"with_powers":true`...)
	}
	return appendOptions(dst, r.Opts), nil
}

// canAppendInit reports whether json.Marshal would copy init unchanged:
// absent (null) or a compact number array. Any other init is compacted,
// escaped or refused by json.Marshal itself.
func canAppendInit(init json.RawMessage) bool {
	return init == nil || jsonwire.IsCompactNumberArray(init)
}

// appendRequest appends a request's fields up to and including init,
// leaving the object open.
func appendRequest(dst []byte, sys *ir.SystemWire, op string, mod int64, init json.RawMessage) []byte {
	dst = slices.Grow(dst, jsonwire.IntsLen(sys.G)+jsonwire.IntsLen(sys.F)+jsonwire.IntsLen(sys.H)+
		jsonwire.IntsLen(sys.Cells)+len(init)+6*len(op)+160)
	dst = append(dst, `{"system":{"m":`...)
	dst = strconv.AppendInt(dst, int64(sys.M), 10)
	dst = append(dst, `,"n":`...)
	dst = strconv.AppendInt(dst, int64(sys.N), 10)
	dst = append(dst, `,"g":`...)
	dst = jsonwire.AppendInts(dst, sys.G)
	dst = append(dst, `,"f":`...)
	dst = jsonwire.AppendInts(dst, sys.F)
	if len(sys.H) > 0 {
		dst = append(dst, `,"h":`...)
		dst = jsonwire.AppendInts(dst, sys.H)
	}
	if len(sys.Cells) > 0 {
		dst = append(dst, `,"cells":`...)
		dst = jsonwire.AppendInts(dst, sys.Cells)
	}
	dst = append(dst, `},"op":`...)
	dst = jsonwire.AppendString(dst, op)
	if mod != 0 {
		dst = append(dst, `,"mod":`...)
		dst = strconv.AppendInt(dst, mod, 10)
	}
	dst = append(dst, `,"init":`...)
	if init == nil {
		return append(dst, "null"...)
	}
	return append(dst, init...)
}

// appendOptions appends the opts field and closes the request object.
func appendOptions(dst []byte, o ir.OptionsWire) []byte {
	dst = append(dst, `,"opts":{`...)
	sep := ""
	for _, f := range [...]struct {
		key string
		v   int
	}{{"procs", o.Procs}, {"max_exponent_bits", o.MaxExponentBits}, {"timeout_ms", o.TimeoutMs}} {
		if f.v != 0 {
			dst = append(dst, sep...)
			dst = append(dst, '"')
			dst = append(dst, f.key...)
			dst = append(dst, `":`...)
			dst = strconv.AppendInt(dst, int64(f.v), 10)
			sep = ","
		}
	}
	return append(dst, "}}"...)
}

// AppendJSON appends the response as json.Marshal encodes it.
func (r OrdinaryResponse) AppendJSON(dst []byte) ([]byte, error) {
	out, ok := appendValues(dst, r.ValuesInt, r.ValuesFloat, r.Cells)
	if ok {
		out = append(out, `"rounds":`...)
		out = strconv.AppendInt(out, int64(r.Rounds), 10)
		out = append(out, `,"combines":`...)
		out = strconv.AppendInt(out, r.Combines, 10)
		out, ok = appendElapsed(out, r.ElapsedMs)
	}
	if !ok {
		return appendMarshal(dst, r)
	}
	return out, nil
}

// AppendJSON appends the response as json.Marshal encodes it; a response
// with power traces is encoded by json.Marshal.
func (r GeneralResponse) AppendJSON(dst []byte) ([]byte, error) {
	ok := len(r.Powers) == 0
	out := dst
	if ok {
		out, ok = appendValues(dst, r.ValuesInt, r.ValuesFloat, r.Cells)
	}
	if ok {
		out = append(out, `"cap_rounds":`...)
		out = strconv.AppendInt(out, int64(r.CAPRounds), 10)
		out, ok = appendElapsed(out, r.ElapsedMs)
	}
	if !ok {
		return appendMarshal(dst, r)
	}
	return out, nil
}

// appendValues opens a response object and appends its non-empty value
// arrays, each followed by a comma; ok is false for a non-finite float.
func appendValues(dst []byte, valuesInt ir.Int64s, valuesFloat []float64, cells ir.Ints) ([]byte, bool) {
	dst = slices.Grow(dst, jsonwire.IntsLen(valuesInt)+24*len(valuesFloat)+jsonwire.IntsLen(cells)+128)
	dst = append(dst, '{')
	if len(valuesInt) > 0 {
		dst = append(dst, `"values_int":`...)
		dst = append(jsonwire.AppendInts(dst, valuesInt), ',')
	}
	if len(valuesFloat) > 0 {
		dst = append(dst, `"values_float":`...)
		var ok bool
		if dst, ok = jsonwire.AppendFloats(dst, valuesFloat); !ok {
			return dst, false
		}
		dst = append(dst, ',')
	}
	if len(cells) > 0 {
		dst = append(dst, `"cells":`...)
		dst = append(jsonwire.AppendInts(dst, cells), ',')
	}
	return dst, true
}

// appendElapsed appends the closing elapsed_ms field.
func appendElapsed(dst []byte, ms float64) ([]byte, bool) {
	dst = append(dst, `,"elapsed_ms":`...)
	dst, ok := jsonwire.AppendFloat(dst, ms)
	return append(dst, '}'), ok
}

// appendMarshal appends json.Marshal's encoding of v.
func appendMarshal(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	if dst == nil {
		return b, nil
	}
	return append(dst, b...), nil
}

// jsonAppender is a wire type with a one-pass encoder.
type jsonAppender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// AppendBody appends v as json.Marshal encodes it, through the one-pass
// encoder of the ordinary/general wire types and json.Marshal for the rest.
func AppendBody(dst []byte, v any) ([]byte, error) {
	if a, ok := v.(jsonAppender); ok {
		return a.AppendJSON(dst)
	}
	return appendMarshal(dst, v)
}

// UnmarshalBody decodes a whole response body into v as json.Unmarshal
// does, taking the one-pass walk for the ordinary/general responses.
func UnmarshalBody(b []byte, v any) error {
	switch v := v.(type) {
	case *OrdinaryResponse:
		return v.UnmarshalJSON(b)
	case *GeneralResponse:
		return v.UnmarshalJSON(b)
	}
	return json.Unmarshal(b, v)
}
