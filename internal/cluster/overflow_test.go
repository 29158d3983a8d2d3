package cluster

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"indexedrec/internal/parallel"
	"indexedrec/internal/server"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

// TestOverflowRefusedKeepsFleet: an ordinary or general float solve whose
// values overflow answers 422 on irserved and through a 2-worker
// coordinator, and so does the snapshot of a session over the same system.
// A shard's 422 counts against no breaker and is the coordinator's answer,
// never replayed locally, so right after ten such bodies the fleet serves a
// valid request on its workers, not by local fallback.
func TestOverflowRefusedKeepsFleet(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co, workers, down := newFleet(t, 2, nil)
		front := httptest.NewServer(co.Handler())
		defer down()
		defer front.Close()
		const system = `"system":{"m":2,"n":1,"g":[1],"f":[0]},"op":"float64-add","init":[1e308,1e308]`
		overflow := json.RawMessage("{" + system + "}")
		refused := func(what string, code int, data []byte) {
			t.Helper()
			if code != http.StatusUnprocessableEntity || !strings.Contains(string(data), "values_float[1] = +Inf") {
				t.Fatalf("%s: HTTP %d: %s", what, code, data)
			}
		}
		for _, base := range []string{workers[0].ts.URL, front.URL} {
			for _, route := range []string{"ordinary", "general"} {
				code, data := postFront(t, base+server.APIPrefix+route, overflow)
				refused(route+" via "+base, code, data)
			}
			code, data := postFront(t, base+server.SessionPrefix, json.RawMessage(`{"family":"ordinary",`+system+"}"))
			if code != http.StatusOK {
				t.Fatalf("session open via %s: HTTP %d: %s", base, code, data)
			}
			var opened server.SessionOpenResponse
			if err := json.Unmarshal(data, &opened); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Get(base + server.SessionPrefix + "/" + opened.ID)
			if err != nil {
				t.Fatal(err)
			}
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			refused("session snapshot via "+base, resp.StatusCode, data)
		}

		for i := 0; i < 10; i++ {
			code, data := postFront(t, front.URL+server.APIPrefix+"ordinary", overflow)
			refused("repeat", code, data)
		}
		// The workers' 422s are the coordinator's answers: none of the 12
		// overflow solves replayed its plan locally.
		fallbacks, shards := co.metrics.fallbacks.Value(), co.metrics.shards.Value()
		if fallbacks != 0 {
			t.Errorf("%d local fallbacks after the refused bodies, want 0", fallbacks)
		}
		code, data := postFront(t, front.URL+server.APIPrefix+"ordinary",
			json.RawMessage(`{"system":{"m":3,"n":2,"g":[1,2],"f":[0,1]},"op":"float64-add","init":[1,2,3]}`))
		if code != http.StatusOK || !strings.Contains(string(data), `"values_float":[1,3,6]`) {
			t.Fatalf("valid solve: HTTP %d: %s", code, data)
		}
		if co.metrics.fallbacks.Value() != fallbacks || co.metrics.shards.Value() == shards {
			t.Fatalf("valid solve ran locally: fallbacks %d -> %d, shards %d -> %d",
				fallbacks, co.metrics.fallbacks.Value(), shards, co.metrics.shards.Value())
		}
		for _, w := range co.alive() {
			if st := w.br.snapshot(); st != breakerClosed {
				t.Errorf("worker %s: breaker state %d after the refused bodies", w.name, st)
			}
		}
		if n := co.metrics.breakerOpens.Value(); n != 0 {
			t.Errorf("%d breaker opens", n)
		}
	}()
	leak()
}

// TestScatterCompileBudgetCoordinator: the coordinator compiles a general
// plan itself before it scatters, under the same term budget as irserved,
// so the 251 KB Scatter(16384, 1) body answers 422 within a second, and no
// worker or local fallback sees it.
func TestScatterCompileBudgetCoordinator(t *testing.T) {
	co, _, down := newFleet(t, 2, nil)
	front := httptest.NewServer(co.Handler())
	defer down()
	defer front.Close()
	s := workload.Scatter(rand.New(rand.NewSource(1)), 16384, 1)
	init, _ := json.Marshal(make([]int64, s.M))
	start := time.Now()
	code, data := postFront(t, front.URL+server.APIPrefix+"general",
		server.GeneralRequest{System: ir.WireFromSystem(s), Op: "int64-add", Init: init})
	if code != http.StatusUnprocessableEntity || !strings.Contains(string(data), "compile budget") {
		t.Fatalf("HTTP %d: %s", code, data)
	}
	// Race instrumentation slows the pass several times over; the time
	// bound holds for the plain build.
	if d := time.Since(start); d > time.Second && !parallel.RaceEnabled {
		t.Errorf("refused after %v, want under 1s", d)
	}
	if n, m := co.metrics.fallbacks.Value(), co.metrics.shards.Value(); n != 0 || m != 0 {
		t.Errorf("%d local fallbacks and %d shards for a refused compile", n, m)
	}
}
