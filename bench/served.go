package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"

	"indexedrec/internal/server/client"
)

// irserved is a running irserved child process on a loopback port.
type irserved struct {
	cmd       *exec.Cmd
	exited    chan struct{}
	transport *http.Transport
	client    *client.Client
}

// startIrserved execs the binary with default flags on a free loopback port
// and returns once /readyz answers 200. clients caps the pooled transport's
// connections.
func startIrserved(path string, clients int) (*irserved, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(path, "-addr", addr)
	cmd.Stderr = os.Stderr
	// Kill the server if the benchmark itself dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting irserved: %w", err)
	}
	s := &irserved{cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant: stop decides when it ends
		close(s.exited)
	}()
	s.transport = &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, IdleConnTimeout: time.Minute}
	s.client = &client.Client{Base: "http://" + addr, HTTP: &http.Client{Transport: s.transport}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(bg, time.Second)
		ok, _ := s.client.Readyz(ctx)
		cancel()
		if ok {
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, errors.New("irserved exited before it was ready")
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("irserved not ready after 30s")
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop drains the server with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than ten seconds.
func (s *irserved) stop() {
	s.transport.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *irserved) pid() int { return s.cmd.Process.Pid }

// scrape reads the server's metric totals.
func (s *irserved) scrape() (map[string]float64, error) {
	text, err := s.client.Metrics(bg)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return promTotals(text), nil
}

// servedSample is one timed operation.
type servedSample struct {
	kind string
	lat  float64 // ms, client call to decoded response
	seq  float64 // ms, the loop on the same input, run right after
	err  error
}

// keySet records the distinct structures sent to the server.
type keySet struct {
	mu   sync.Mutex
	keys map[string]bool
}

func (k *keySet) add(key string) {
	k.mu.Lock()
	k.keys[key] = true
	k.mu.Unlock()
}

// send runs one operation: untimed before hook, the timed client call, the
// oracle check, the sequential loop on the same input (timed beside the
// call, so both see the same host load), and the untimed after hook.
func send(ctx context.Context, c *client.Client, in servedInput, tr *tracer, req int) servedSample {
	s := servedSample{kind: in.kind()}
	root := tr.start("op."+s.kind, 0, req)
	defer tr.end(root)
	if err := in.before(ctx, c); err != nil {
		s.err = err
		return s
	}
	id := tr.start("client.roundtrip", root, req)
	t := time.Now()
	resp, err := in.call(ctx, c)
	s.lat = ms(time.Since(t))
	tr.end(id)
	if err == nil {
		id = tr.start("verify", root, req)
		err = in.check(resp)
		tr.end(id)
	}
	if err == nil {
		id = tr.start("core.seq", root, req)
		s.seq = timeLoop(in.loop)
		tr.end(id)
	}
	if aerr := in.after(ctx, c); err == nil {
		err = aerr
	}
	s.err = err
	return s
}

// runServed measures a served workload against a fresh irserved: set-up
// repeated, a closed loop of clients for the window, and in the traced run
// the server's counter deltas and the layer phase.
func runServed(cfg config, set *servedSet, res *result) error {
	clients := cfg.clients
	keys := &keySet{keys: make(map[string]bool)}
	var srv *irserved
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var setups []float64
	for r := 0; r < cfg.sizes.setupRepeats; r++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		t := time.Now()
		var err error
		if srv, err = startIrserved(cfg.irserved, clients); err != nil {
			return err
		}
		for _, in := range set.warm(0) {
			if s := send(bg, srv.client, in, nil, 0); s.err != nil {
				return fmt.Errorf("set-up %s request: %w", in.kind(), s.err)
			}
			keys.add(in.key())
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	res.setup = median(setups)
	if v, err := srv.client.Version(bg); err == nil {
		res.version = v
	}
	// Warm the plans' arenas for concurrent replays before the clock starts.
	var wg sync.WaitGroup
	warmErrs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, in := range set.warm(c) {
				if s := send(bg, srv.client, in, nil, 0); s.err != nil && warmErrs[c] == nil {
					warmErrs[c] = s.err
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(warmErrs...); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	next := make([]int, clients)
	var reqID sync.Mutex
	lastReq := 0
	// window runs every client in a closed loop until the deadline (or its
	// sequence ends) and returns the samples and the window's length.
	window := func(tr *tracer, seconds float64) ([]servedSample, float64) {
		ctx, cancel := context.WithTimeout(bg, time.Duration(seconds*float64(time.Second))+2*time.Minute)
		defer cancel()
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		per := make([][]servedSample, clients)
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					in := set.next(c, next[c])
					if in == nil {
						return
					}
					next[c]++
					keys.add(in.key())
					reqID.Lock()
					lastReq++
					id := lastReq
					reqID.Unlock()
					per[c] = append(per[c], send(ctx, srv.client, in, tr, id))
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		var all []servedSample
		for _, ss := range per {
			all = append(all, ss...)
		}
		return all, elapsed
	}

	// untraced measures a window with tracing off: samples, server CPU and
	// the server's resident set.
	untraced := func(seconds float64) (*result, error) {
		r := &result{}
		cpu0, err := procCPU(srv.pid())
		if err != nil {
			return nil, err
		}
		stop := sampleRSS(srv.pid())
		samples, elapsed := window(nil, seconds)
		if r.mem, err = stop(); err != nil {
			return nil, err
		}
		cpu1, err := procCPU(srv.pid())
		if err != nil {
			return nil, err
		}
		r.addServed(samples, elapsed)
		r.cpuMs = ms(cpu1 - cpu0)
		return r, nil
	}
	if !cfg.trace {
		r, err := untraced(cfg.seconds)
		if err != nil {
			return err
		}
		res.merge(r)
		return nil
	}

	// Traced run: half the window untraced, half traced, with the server's
	// counters scraped around both; then the layer phase without traffic.
	before, err := srv.scrape()
	if err != nil {
		return err
	}
	plain, err := untraced(cfg.seconds / 2)
	if err != nil {
		return err
	}
	samples, tracedS := window(cfg.tracer, cfg.seconds/2)
	after, err := srv.scrape()
	if err != nil {
		return err
	}
	traced := &result{}
	traced.addServed(samples, tracedS)
	res.merge(plain)
	res.merge(traced)
	res.untracedLayer(plain)
	res.overhead(plain.throughput(), traced.throughput())
	res.serverDeltas(before, after, len(keys.keys), plain.attempted+traced.attempted)
	res.roundTrips(samples)
	srv.stop()
	srv = nil

	l := newLayerRun(cfg.tracer)
	for _, in := range set.layer {
		res.addLayer(l.sample(in))
	}
	l.metrics(res.layer)
	res.layer["server.unattributed_ms"] = res.layer["client.roundtrip_p50_ms"] - median(l.paths)
	return nil
}

// serverDeltas derives the server-side per-layer counts from /metrics
// differences over the window. Compiles per structure uses the
// instance's lifetime miss count: the instance is fresh, so every compile it
// ever ran is counted, set-up included.
func (r *result) serverDeltas(before, after map[string]float64, structures, ops int) {
	d := func(name string) float64 { return after[name] - before[name] }
	perKop := func(v float64) float64 { return v * 1000 / float64(max(ops, 1)) }
	if n := d("irserved_solve_seconds_count") + d("irserved_session_append_seconds_count"); n > 0 {
		r.layer["server.handler_ms"] = (d("irserved_solve_seconds_sum") + d("irserved_session_append_seconds_sum")) * 1000 / n
	}
	if n := d("irserved_plan_cache_hits_total") + d("irserved_plan_cache_misses_total"); n > 0 {
		r.layer["server.plan_hit_ratio"] = d("irserved_plan_cache_hits_total") / n
	}
	r.layer["server.compiles_per_structure"] = after["irserved_plan_cache_misses_total"] / float64(max(structures, 1))
	r.layer["server.evictions_per_kop"] = perKop(d("irserved_plan_cache_evictions_total"))
	if n := d("irserved_batch_size_count"); n > 0 {
		r.layer["server.batch_size_mean"] = d("irserved_batch_size_sum") / n
	}
	r.layer["server.shed_per_kop"] = perKop(d("irserved_shed_total"))
}

// roundTrips records the traced half's client round-trip p50, overall and
// per request kind.
func (r *result) roundTrips(ss []servedSample) {
	byKind := make(map[string][]float64)
	var all []float64
	for _, s := range ss {
		if s.err == nil {
			byKind[s.kind] = append(byKind[s.kind], s.lat)
			all = append(all, s.lat)
		}
	}
	r.layer["client.roundtrip_p50_ms"] = median(all)
	for _, k := range []string{"linear", "ordinary", "sparse", "general", "grid2d"} {
		r.layer["client.roundtrip_p50_ms."+k] = median(byKind[k])
	}
}
