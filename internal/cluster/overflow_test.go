package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"indexedrec/internal/server"
)

// TestOverflowRefusedKeepsFleet: an ordinary or general float solve whose
// values overflow answers 422 on irserved and through a 2-worker
// coordinator, and so does the snapshot of a session over the same system.
// A shard's 422 counts against no breaker, so right after ten such bodies
// the fleet serves a valid request on its workers, not by local fallback.
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
		fallbacks, shards := co.metrics.fallbacks.Value(), co.metrics.shards.Value()
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
