package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one operation share Req; Parent is the enclosing span's
// ID (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return ms(time.Since(t.t0)) }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: now, Parent: parent, Req: req})
	return len(t.spans)
}

// end closes the span start returned and reports its duration in ms.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].dur()
}

// durations returns the durations of every closed span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTime summarises spans per name: count, median duration, and total
// self time — a span's duration minus the part its children cover.
type selfRow struct {
	Name    string
	Count   int
	P50     float64
	SelfSum float64
}

func (t *tracer) selfTimes() []selfRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.dur()
		}
	}
	durs := make(map[string][]float64)
	self := make(map[string]float64)
	for _, s := range t.spans {
		durs[s.Name] = append(durs[s.Name], s.dur())
		self[s.Name] += max(0, s.dur()-child[s.ID])
	}
	rows := make([]selfRow, 0, len(durs))
	for name, d := range durs {
		rows = append(rows, selfRow{Name: name, Count: len(d), P50: median(d), SelfSum: self[name]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfSum > rows[j].SelfSum })
	return rows
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// phaseOrder is the order a hot served request flows through the layers
// (compilation is skipped on a plan-cache hit); the summary lists the
// layer-phase medians in this order, then the remainder of the served round
// trip they do not explain.
var phaseOrder = []string{
	"client.encode", "server.decode", "server.validate", "ir.fingerprint",
	"ordinary.solve", "gir.solve", "moebius.solve",
	"grid2d.solve", "session.append", "server.encode", "client.decode",
}

// writeSummary writes the self-time table and, for served workloads, the
// round-trip breakdown: each named phase's p50, then the p50 over samples of
// the phases' sum (in a mix the kinds' phases differ, so the p50s alone do
// not add up), which plus server.unattributed is the round-trip p50.
func writeSummary(w io.Writer, name string, tr *tracer, layer map[string]float64) {
	fmt.Fprintf(w, "# %s: self time per span name\n", name)
	fmt.Fprintf(w, "%-28s %8s %12s %14s\n", "span", "count", "p50_ms", "self_total_ms")
	for _, r := range tr.selfTimes() {
		fmt.Fprintf(w, "%-28s %8d %12.4f %14.3f\n", r.Name, r.Count, r.P50, r.SelfSum)
	}
	rt := layer["client.roundtrip_p50_ms"]
	if rt == 0 {
		return
	}
	fmt.Fprintf(w, "\n# %s: served round trip p50 by layer (layer-phase p50s)\n", name)
	for _, p := range phaseOrder {
		if v := layer[p+"_ms"]; v != 0 {
			fmt.Fprintf(w, "  %-26s %12.4f ms\n", p, v)
		}
	}
	unattributed := layer["server.unattributed_ms"]
	fmt.Fprintf(w, "%-28s %12.4f ms\n", "named phases (p50 of sums)", rt-unattributed)
	fmt.Fprintf(w, "%-28s %12.4f ms\n", "+ server.unattributed", unattributed)
	fmt.Fprintf(w, "%-28s %12.4f ms\n", "= client.roundtrip p50", rt)
}

// writeTrace writes DIR/<workload>.spans.jsonl and DIR/<workload>.summary.txt.
func writeTrace(dir, name string, tr *tracer, layer map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tr.writeSpans(filepath.Join(dir, name+".spans.jsonl")); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name+".summary.txt"))
	if err != nil {
		return err
	}
	writeSummary(f, name, tr, layer)
	return f.Close()
}
