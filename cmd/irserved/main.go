// Command irserved is the solve service daemon: an HTTP JSON API over the
// hardened solver runtime with admission control (bounded queue, 429 load
// shedding), an LRU cache of compiled solve plans keyed by loop structure
// (linear/Möbius requests replay it like every other family), a worker pool
// sized off GOMAXPROCS, and Prometheus metrics.
//
//	irserved                                  # serve on :8080
//	irserved -addr 127.0.0.1:9090 -queue 512 -workers 2
//	irserved -addr 127.0.0.1:9090 -coordinator-url http://coord:8070
//	irserved -coordinator -workers-list host1:8080,host2:8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/solve/linear -d \
//	  '{"m":4,"g":[1,2,3],"f":[0,1,2],"a":[1,1,1],"b":[1,1,1],"x0":[1,0,0,0]}'
//
// Endpoints: POST /v1/solve/{ordinary,general,linear,moebius,loop}, POST
// /v1/shard/solve (the worker role of a cluster; see internal/cluster), the
// streaming-session lifecycle POST /v1/session, POST
// /v1/session/{id}/append, GET/DELETE /v1/session/{id} (idle sessions are
// evicted after -session-ttl), and GET /healthz, /readyz (503 while
// draining), /metrics (Prometheus text), /version. SIGINT/SIGTERM trigger a graceful drain: readiness flips,
// in-flight solves finish under their deadlines, then the process exits 0.
//
// With -coordinator-url the worker joins an ircoord fleet elastically: it
// registers its -advertise address (derived from -addr when that has a
// concrete host), heartbeats to hold its membership lease, and deregisters
// during the graceful drain so the coordinator stops routing to it at once;
// -cluster-token carries the fleet's shared registration token when the
// coordinator requires one.
//
// Per-tenant admission is configured with -tenants: requests carrying an
// X-IR-Tenant header are fair-queued by weight, bounded by their quota, and
// may evict queued work of lower-priority tenants when the queue fills.
//
// With -coordinator the process serves the ircluster coordinator instead:
// solves scatter across the -workers-list fleet (see also cmd/ircoord,
// the standalone coordinator daemon with the full flag set).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the -pprof-addr listener
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"indexedrec/internal/cluster"
	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
)

func main() {
	// Last-resort guard: any failure path a specific check misses still
	// exits non-zero with a one-line message instead of a crash dump.
	defer func() {
		if r := recover(); r != nil {
			fail("internal error: %v", r)
		}
	}()
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		queue       = flag.Int("queue", 256, "admission queue depth (full queue sheds with 429)")
		workers     = flag.Int("workers", 0, "solve workers (0 = GOMAXPROCS/2)")
		procs       = flag.Int("procs", 0, "goroutines per solve (0 = GOMAXPROCS/workers)")
		timeout     = flag.Duration("timeout", 30*time.Second, "default per-request solve deadline")
		maxTimeout  = flag.Duration("max-timeout", 2*time.Minute, "cap on client-requested deadlines")
		maxN        = flag.Int("max-n", 4<<20, "max iterations per request")
		planCache   = flag.Int64("plan-cache", 0, "compiled-plan cache budget in bytes (0 = 64 MiB default, negative disables)")
		coordinator = flag.Bool("coordinator", false, "run as an ircluster coordinator instead of a worker")
		workerList  = flag.String("workers-list", "", "comma-separated worker addresses (coordinator mode)")
		probeEvery  = flag.Duration("probe-interval", 5*time.Second, "worker health-probe period (coordinator mode)")
		coordURL    = flag.String("coordinator-url", "", "register with this ircoord and heartbeat a membership lease (worker mode)")
		advertise   = flag.String("advertise", "", "address the coordinator dials back (default derived from -addr)")
		heartbeat   = flag.Duration("heartbeat", 0, "lease heartbeat period (0 = a third of the granted lease)")
		clusterTok  = flag.String("cluster-token", "", "shared membership token: sent when registering, required of workers in coordinator mode")
		tenants     = flag.String("tenants", "", "per-tenant admission, name:weight:priority:max-queued[,...] (e.g. paid:4:10:0,free:1:0:8)")
		sessionTTL  = flag.Duration("session-ttl", 5*time.Minute, "evict streaming sessions idle this long (negative disables)")
		sessionMem  = flag.Int64("session-bytes", 256<<20, "resident-byte budget across streaming sessions (negative disables)")
		maxSessions = flag.Int("max-sessions", 1024, "max concurrently open streaming sessions (negative disables)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables)")
		showVersion = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	servePprof(*pprofAddr)

	if *showVersion {
		v := server.BuildVersion()
		fmt.Printf("irserved %s %s rev %s\n", v.Version, v.Go, v.Revision)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *coordinator {
		co := cluster.New(cluster.Config{
			Workers:       splitList(*workerList),
			ProbeInterval: *probeEvery,
			ClusterToken:  *clusterTok,
			MaxN:          *maxN,
			PlanCacheBytes: func() int64 {
				if *planCache != 0 {
					return *planCache
				}
				return 64 << 20
			}(),
		})
		fmt.Printf("irserved: coordinating %d workers on %s\n", len(splitList(*workerList)), *addr)
		if err := co.ListenAndServe(ctx, *addr); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail("%v", err)
		}
		fmt.Println("irserved: coordinator stopped, bye")
		return
	}

	tenantCfg, err := parseTenants(*tenants)
	if err != nil {
		fail("%v", err)
	}
	s := server.New(server.Config{
		Addr:           *addr,
		QueueDepth:     *queue,
		Workers:        *workers,
		Procs:          *procs,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxN:           *maxN,
		PlanCacheBytes: *planCache,
		Tenants:        tenantCfg,
		SessionTTL:     *sessionTTL,
		SessionBytes:   *sessionMem,
		MaxSessions:    *maxSessions,
	})
	regDone := runRegistrar(ctx, *coordURL, *advertise, *addr, *clusterTok, *heartbeat)
	fmt.Printf("irserved: listening on %s\n", *addr)
	if err := s.ListenAndServe(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail("%v", err)
	}
	<-regDone
	fmt.Println("irserved: drained, bye")
}

// runRegistrar enrolls this worker with an ircoord fleet when
// -coordinator-url is set: it registers the advertise address, heartbeats
// the membership lease until ctx ends (SIGINT/SIGTERM), then deregisters so
// the drain removes the worker from routing immediately. The returned
// channel closes once deregistration finished; it is already closed when no
// coordinator is configured.
func runRegistrar(ctx context.Context, coordURL, advertise, addr, token string, heartbeat time.Duration) <-chan struct{} {
	done := make(chan struct{})
	if coordURL == "" {
		close(done)
		return done
	}
	adv := advertise
	if adv == "" {
		host, port, err := net.SplitHostPort(addr)
		if err != nil || host == "" || host == "0.0.0.0" || host == "::" {
			fail("cannot derive an advertise address from -addr %q; pass -advertise host:port", addr)
		}
		adv = net.JoinHostPort(host, port)
	}
	v := server.BuildVersion()
	reg := client.NewRegistrar(client.RegistrarConfig{
		Coordinator: coordURL,
		Advertise:   adv,
		Version:     fmt.Sprintf("%s go %s", v.Version, v.Go),
		Token:       token,
		Interval:    heartbeat,
	})
	go func() {
		defer close(done)
		reg.Run(ctx)
	}()
	return done
}

// parseTenants decodes the -tenants flag: comma-separated
// name:weight:priority:max-queued entries, where trailing fields may be
// omitted.
func parseTenants(s string) (map[string]server.TenantConfig, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string]server.TenantConfig)
	for _, entry := range splitList(s) {
		parts := strings.Split(entry, ":")
		if parts[0] == "" || len(parts) > 4 {
			return nil, fmt.Errorf("bad -tenants entry %q (want name:weight:priority:max-queued)", entry)
		}
		var cfg server.TenantConfig
		var err error
		for i, field := range []*int{nil, &cfg.Weight, &cfg.Priority, &cfg.MaxQueued} {
			if i == 0 || i >= len(parts) || parts[i] == "" {
				continue
			}
			if *field, err = strconv.Atoi(parts[i]); err != nil {
				return nil, fmt.Errorf("bad -tenants entry %q: %v", entry, err)
			}
		}
		out[parts[0]] = cfg
	}
	return out, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "irserved: "+format+"\n", args...)
	os.Exit(1)
}

// servePprof exposes the net/http/pprof endpoints (registered on the default
// mux by the blank import) on their own listener, kept off the service
// address so profiling is never publicly routable by accident.
func servePprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "irserved: pprof listener: %v\n", err)
		}
	}()
	fmt.Printf("irserved: pprof on http://%s/debug/pprof/\n", addr)
}

// splitList parses a comma-separated address list, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
