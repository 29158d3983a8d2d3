// Service: run the irserved solve service in-process, hit it with a burst
// of concurrent clients that share one loop structure, and watch every
// request replay the one compiled plan the first request cached.
//
//	go run ./examples/service
//
// Every client posts the chain X[i] := a·X[i-1] + 1 over the same index
// maps with its own ratio a. The structure-only half of the solve — the
// Möbius shadow rewrite and the pointer-jumping schedule over 2x2 matrices
// — depends only on those maps, so the server compiles it once, caches it
// by fingerprint, and every later request pays only the numeric replay.
// The program checks each answer against its closed form and exits non-zero
// if any differs or the cache compiled more plans than there are workers.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
)

func main() {
	// An in-process service on a loopback port: same wiring as cmd/irserved,
	// minus the flags. Two workers bound the concurrent misses: the first
	// request on each worker may compile before any plan is cached.
	const workers = 2
	s := server.New(server.Config{Workers: workers, QueueDepth: 256})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("irserved listening on %s\n\n", base)

	c := client.New(base)
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		log.Fatal(err)
	}

	// 48 concurrent clients, one structure (n = 12), each with its own
	// ratio a: X[0] = 1, X[i] = a·X[i-1] + 1, closed form checkable in O(n).
	const clients, n = 48, 12
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			a := 1 + float64(k%3)
			req := server.LinearRequest{M: n + 1, X0: make([]float64, n+1)}
			req.X0[0] = 1
			for i := 0; i < n; i++ {
				req.G = append(req.G, i+1)
				req.F = append(req.F, i)
				req.A = append(req.A, a)
				req.B = append(req.B, 1)
			}
			out, err := c.SolveLinear(ctx, req)
			if err != nil {
				errs <- fmt.Errorf("client %d: %v", k, err)
				return
			}
			want := 1.0
			for i := 0; i <= n; i++ {
				if math.Abs(out.Values[i]-want) > 1e-9*want {
					errs <- fmt.Errorf("client %d: X[%d] = %v, want %v", k, i, out.Values[i], want)
					return
				}
				want = a*want + 1
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		log.Fatal(err)
	}
	fmt.Printf("solved %d chains, all matching their closed forms, in %v\n",
		clients, time.Since(start).Round(time.Millisecond))

	// The plan cache, as the scrape endpoint reports it.
	text, err := c.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	hits := metric(text, "irserved_plan_cache_hits_total")
	misses := metric(text, "irserved_plan_cache_misses_total")
	fmt.Printf("plan cache: %d hits, %d misses for %d requests on one structure\n", hits, misses, clients)
	if misses < 1 || misses > workers || hits+misses != clients {
		log.Fatalf("plan cache: want 1..%d misses and %d lookups in all", workers, clients)
	}

	// Graceful drain: stop admitting, finish in-flight work, then exit.
	shCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Shutdown(shCtx); err != nil {
		log.Fatal(err)
	}
	hs.Shutdown(shCtx)
	fmt.Println("\ndrained and shut down cleanly")
}

// metric reads an unlabelled counter's value from a /metrics page.
func metric(text, name string) int {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	log.Fatalf("/metrics has no %s sample", name)
	return 0
}
