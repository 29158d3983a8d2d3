package server

// OnePassFallbacks reports how many wire decodes so far declined the
// one-pass walk and went through encoding/json.
func OnePassFallbacks() int64 { return fallbacks.Load() }
