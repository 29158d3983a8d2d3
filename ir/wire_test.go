package ir_test

import (
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"indexedrec/ir"
)

var errNullElement = errors.New("null element")

// refInts is the reference decode of an integer array: json.Unmarshal into
// a plain slice, plus the null-element rule, which encoding/json cannot
// express (it leaves a zero in a null element's place).
func refInts[T int | int64](b []byte) ([]T, error) {
	var v []T
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, err
	}
	var raw []json.RawMessage
	if json.Unmarshal(b, &raw) == nil && slices.ContainsFunc(raw, func(e json.RawMessage) bool { return string(e) == "null" }) {
		return nil, errNullElement
	}
	return v, nil
}

// sameDecode fails t unless got/gotErr and want/wantErr agree on accept or
// reject and, on accept, on nil-ness and every value.
func sameDecode[T int | int64](t *testing.T, how string, b []byte, got, want []T, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s(%q): err %v, reference err %v", how, b, gotErr, wantErr)
	}
	if gotErr == nil && ((got == nil) != (want == nil) || !slices.Equal(got, want)) {
		t.Fatalf("%s(%q) = %#v, reference %#v", how, b, got, want)
	}
}

// FuzzWireInts checks ir.Ints and ir.Int64s against encoding/json's own
// decode into []int and []int64, both through json.Unmarshal and by calling
// UnmarshalJSON directly on unvalidated bytes, and checks that the named
// types marshal byte for byte like the plain slices.
func FuzzWireInts(f *testing.F) {
	for _, s := range []string{
		`null`, `[]`, `[null]`, `[-0]`, `[01]`, `[1,]`, `[1e2]`, `[1.0]`, `[ 1 , 2 ]`,
		`["1"]`, `[[1]]`, `[9223372036854775807]`, `[9223372036854775808]`,
		`[-9223372036854775808]`, `[-9223372036854775809]`, `[12345678901234567890]`,
		` [1,2,3] `, `[1]x`, `5`, `"x"`, `{}`, `[1 2]`, `[-]`, `[1.]`, `[1e]`, `[true]`,
		``, `[1,null]`, "[\t-7\r\n]", `nullx`, `[0.5e-3]`, `[-01]`, `[`, `[1`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		wantInt, wantIntErr := refInts[int](b)
		var viaJSON ir.Ints
		err := json.Unmarshal(b, &viaJSON)
		sameDecode(t, "json.Unmarshal Ints", b, viaJSON, wantInt, err, wantIntErr)
		var direct ir.Ints
		err = direct.UnmarshalJSON(b)
		sameDecode(t, "Ints.UnmarshalJSON", b, direct, wantInt, err, wantIntErr)

		wantI64, wantI64Err := refInts[int64](b)
		var viaJSON64 ir.Int64s
		err = json.Unmarshal(b, &viaJSON64)
		sameDecode(t, "json.Unmarshal Int64s", b, viaJSON64, wantI64, err, wantI64Err)
		var direct64 ir.Int64s
		err = direct64.UnmarshalJSON(b)
		sameDecode(t, "Int64s.UnmarshalJSON", b, direct64, wantI64, err, wantI64Err)

		if wantIntErr == nil {
			named, _ := json.Marshal(ir.Ints(wantInt))
			plain, _ := json.Marshal(wantInt)
			if string(named) != string(plain) {
				t.Fatalf("Marshal(Ints) = %s, Marshal([]int) = %s", named, plain)
			}
		}
		if wantI64Err == nil {
			named, _ := json.Marshal(ir.Int64s(wantI64))
			plain, _ := json.Marshal(wantI64)
			if string(named) != string(plain) {
				t.Fatalf("Marshal(Int64s) = %s, Marshal([]int64) = %s", named, plain)
			}
		}
	})
}

// TestWireIntsErrors pins the error forms: a rejected element is a
// *json.UnmarshalTypeError naming the value, at the element's offset, and
// json.Unmarshal adds the struct field path to it.
func TestWireIntsErrors(t *testing.T) {
	for _, tc := range []struct {
		in, value string
		offset    int64
	}{
		{`[1,null]`, "null", 3},
		{`[1, 2.5]`, "number 2.5", 4},
		{`[1e2]`, "number 1e2", 1},
		{`[9223372036854775808]`, "number 9223372036854775808", 1},
		{`["1"]`, "string", 1},
		{`[[1]]`, "array", 1},
		{`[true]`, "bool", 1},
	} {
		var v ir.Int64s
		err := v.UnmarshalJSON([]byte(tc.in))
		var te *json.UnmarshalTypeError
		if !errors.As(err, &te) || te.Value != tc.value || te.Offset != tc.offset || te.Type.String() != "int64" {
			t.Errorf("%s: err %#v, want a type error on %q at %d", tc.in, err, tc.value, tc.offset)
		}
	}
	var w ir.SystemWire
	err := json.Unmarshal([]byte(`{"m":3,"g":[1,null],"f":[0,1]}`), &w)
	if err == nil || !strings.Contains(err.Error(), "SystemWire.g") || !strings.Contains(err.Error(), "null") {
		t.Errorf("null element in g: err %v, want a type error naming SystemWire.g", err)
	}
	var v ir.Ints
	if err := v.UnmarshalJSON([]byte(`[1 2]`)); err == nil || !strings.Contains(err.Error(), "offset 3") {
		t.Errorf("[1 2]: err %v, want a syntax error at offset 3", err)
	}
}
