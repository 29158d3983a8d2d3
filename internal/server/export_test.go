package server

import (
	"errors"
	"reflect"

	"indexedrec/internal/jsonwire"
)

// OnePassFallbacks reports how many wire decodes so far declined the
// one-pass walk and went through encoding/json.
func OnePassFallbacks() int64 { return fallbacks.Load() }

// PackedToJSON re-encodes a packed body as the JSON AppendBody writes for
// the same value, finding its wire type by the schema hash in its header.
func PackedToJSON(b []byte) ([]byte, error) {
	for typ := range wireTypes {
		v := reflect.New(typ)
		if jsonwire.DecodePacked(b, v.Interface(), false) == nil {
			return AppendBody(nil, v.Interface())
		}
	}
	return nil, errors.New("no wire type reads this packed body")
}
