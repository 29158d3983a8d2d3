package server

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync/atomic"

	"indexedrec/internal/jsonwire"
)

// The one-pass codec of the solve, session and shard wire. Bodies of the
// wire types below decode in one left-to-right walk (jsonwire.Decode) and
// encode with one append (jsonwire.Append), both driven by a field table
// built once from each type's json tags, instead of encoding/json's
// validation pass, skip passes and reflection. The bytes on the wire do not
// change:
//
//   - A decode takes the walk only when the body is canonical: exact keys,
//     each at most once, strings of printable ASCII without escapes, null
//     only for a slice, and no other grammar than the walk knows. For any
//     other body the walk declines, and encoding/json decodes it as it
//     always has, so every accepted result and every error message is
//     encoding/json's.
//   - An encode appends exactly what json.Marshal writes. Where the table
//     does not cover a value (an init that is not a compact number array, a
//     non-finite float, power traces) json.Marshal encodes that body.
//
// The loop route's map-typed bodies stay with encoding/json.
//
// The same tables also drive the packed binary form (jsonwire.AppendPacked
// and DecodePacked): index maps as zigzag varints, floats as their raw
// bits, no keys. A packed body starts with jsonwire.PackedMagic, which no
// JSON body can start with, so every decoder here takes either encoding
// from the bytes alone. The typed client sends packed bodies and asks for
// packed answers with an Accept header naming PackedType; WriteBody answers
// packed only then, and JSON otherwise.

// fallbacks counts decodes of wire types that declined the walk; tests read
// it to prove that canonical bodies never do.
var fallbacks atomic.Int64

// wireTypes are the types the one-pass codec carries.
var wireTypes = map[reflect.Type]bool{}

func init() {
	for _, v := range []any{
		OrdinaryRequest{}, OrdinaryResponse{}, GeneralRequest{}, GeneralResponse{},
		LinearRequest{}, MoebiusRequest{}, MoebiusResponse{}, Grid2DRequest{}, Grid2DResponse{},
		SessionOpenRequest{}, SessionOpenResponse{}, SessionAppendRequest{}, SessionAppendResponse{},
		SessionStateResponse{}, ShardRequest{}, ShardResponse{},
	} {
		wireTypes[reflect.TypeOf(v)] = true
	}
}

// isWireType reports whether v is a wire type or a non-nil pointer to one.
func isWireType(v any) bool {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer && !rv.IsNil() {
		rv = rv.Elem()
	}
	return rv.IsValid() && wireTypes[rv.Type()]
}

// AppendBody appends v as json.Marshal encodes it, through the one-pass
// encoder for the wire types and json.Marshal for the rest.
func AppendBody(dst []byte, v any) ([]byte, error) {
	if isWireType(v) {
		if out, ok := jsonwire.Append(dst, v); ok {
			return out, nil
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	if dst == nil {
		return b, nil
	}
	return append(dst, b...), nil
}

// PackedType is the media type of a packed body.
const PackedType = "application/x-ir-packed"

// AppendPacked appends v's packed form. ok is false, with dst unchanged,
// when v is not a wire type or holds a value only JSON carries (power
// traces) or no encoding carries (a non-finite float); the caller then
// writes JSON with AppendBody.
func AppendPacked(dst []byte, v any) (out []byte, ok bool) {
	if !isWireType(v) {
		return dst, false
	}
	return jsonwire.AppendPacked(dst, v)
}

// UnmarshalBody decodes a whole body into v: a packed body (one that
// starts with jsonwire.PackedMagic) with jsonwire.DecodePacked, anything
// else as json.Unmarshal does, taking the one-pass walk for a pointer to a
// wire type. A json.RawMessage field is a copy, as with json.Unmarshal.
func UnmarshalBody(b []byte, v any) error {
	return decodeBody(b, v, false)
}

// decodeBody is UnmarshalBody; with alias set, a walked json.RawMessage
// field aliases b, for a caller that owns b and never changes it.
func decodeBody(b []byte, v any, alias bool) error {
	wire := isWireType(v) && reflect.TypeOf(v).Kind() == reflect.Pointer
	if jsonwire.IsPacked(b) {
		if !wire {
			return fmt.Errorf("a packed body, but %T has no packed form", v)
		}
		return jsonwire.DecodePacked(b, v, alias)
	}
	if !wire {
		return json.Unmarshal(b, v)
	}
	if jsonwire.Decode(b, v, alias) {
		return nil
	}
	fallbacks.Add(1)
	return json.Unmarshal(b, v)
}
