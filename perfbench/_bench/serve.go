package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/mutls"
	"repro/mutls/pool"
)

// shape is one request kind of the serve-mixed mix: a served kernel at a
// size inside its clamps.
type shape struct {
	kernel string
	size   bench.Size
	weight int
}

// serveShapes is the request menu. The seed draws the sequence; the menu
// and its weights are fixed, so every seed offers the same mix.
var serveShapes = []shape{
	{"x3p1", bench.Size{N: 20_000}, 1},
	{"x3p1", bench.Size{N: 60_000}, 1},
	{"mandelbrot", bench.Size{N: 64, M: 600}, 1},
	{"mandelbrot", bench.Size{N: 128, M: 1000}, 1},
	{"matmult", bench.Size{N: 32}, 1},
	{"matmult", bench.Size{N: 64}, 1},
}

const (
	// serveConns is how many keep-alive connections the generator uses;
	// with the pool's two runtimes the server never queues or sheds, so
	// any backlog builds in the generator, where it is timed.
	serveConns = 2
	// serveRate is the fixed offered rate, in requests per second.
	serveRate = 200.0
	// latencyLimit is the p99 latency limit of the capacity ladder.
	latencyLimit = 100 * time.Millisecond
	// warmFor is the set-up's warm-up at the fixed rate.
	warmFor = 500 * time.Millisecond
)

// serveLadder is the fixed rate ladder, in requests per second: coarse
// well below the capacity of a 2-core host, then 40 req/s apart around it
// so the capacity does not jump between distant rungs from run to run.
var serveLadder = []float64{250, 350, 430, 470, 510, 550, 590, 630, 670, 710, 750}

// opHeader and spanHeader carry a traced request's op and client span id
// to the server-side spans.
const (
	opHeader   = "X-Perfbench-Op"
	spanHeader = "X-Perfbench-Span"
)

// server is an in-process internal/serve server at examples/server's
// defaults (2 runtimes, 4 CPUs per lease, host budget GOMAXPROCS, Virtual
// timing) behind a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
	tr     *tracer
}

func startServer(tr *tracer) (*server, error) {
	opts := serve.Options{Pool: pool.Options{Runtimes: 2, Runtime: mutls.Options{CPUs: 4}}}
	reg := &goroutineOps{ops: map[uint64][2]int{}}
	if tr != nil {
		opts.Kernels = tracedKernels(serve.DefaultKernels(), tr, reg)
	}
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tracedHandler(h, tr, reg)
	}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: h},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		tr:     tr,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     serveConns,
				MaxIdleConnsPerHost: serveConns,
				DisableCompression:  true,
			},
		},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the pool down and waits for both.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout leaves Close to drop the stragglers
	s.hs.Close()
	<-s.served
	s.srv.Close()
}

// sender sends requests to s, checked against refs.
func (s *server) sender(refs []uint64) func(r req, res *reqResult) {
	return func(r req, res *reqResult) { s.send(r, res, refs) }
}

// send issues one request and checks the response against the
// benchmark's own reference checksum for its shape.
func (s *server) send(r req, res *reqResult, refs []uint64) {
	sh := serveShapes[r.shape]
	url := fmt.Sprintf("%s/run?kernel=%s&n=%d&m=%d&steps=%d", s.url, sh.kernel, sh.size.N, sh.size.M, sh.size.Steps)
	hreq, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		res.err = err
		return
	}
	op := r.idx + 1
	var rt int
	if s.tr != nil {
		rt = s.tr.begin(op, 0, "http.RoundTrip")
		hreq.Header.Set(opHeader, strconv.Itoa(op))
		hreq.Header.Set(spanHeader, strconv.Itoa(rt))
	}
	resp, err := s.client.Do(hreq)
	if err != nil {
		s.tr.end(rt)
		res.err = fmt.Errorf("%s: %w", url, err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.tr.end(rt)
	if err != nil {
		res.err = fmt.Errorf("%s: %w", url, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	var rr serve.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		res.err = fmt.Errorf("%s: %w", url, err)
		return
	}
	want := fmt.Sprintf("%#x", refs[r.shape])
	switch {
	case !rr.Verified:
		res.err = fmt.Errorf("%s: response not verified", url)
	case rr.Kernel != sh.kernel || rr.Size != sh.size:
		res.err = fmt.Errorf("%s: served %s %+v", url, rr.Kernel, rr.Size)
	case rr.Checksum != want:
		res.err = fmt.Errorf("%s: checksum %s, reference %s", url, rr.Checksum, want)
	}
	res.serverMs = float64(rr.WallNS) / 1e6
	res.degraded = rr.Degraded
}

// goroutineOps maps a handler's goroutine to its traced op and handler
// span, so the wrapped kernels, which run on that goroutine but see no
// request, can parent their spans.
type goroutineOps struct {
	mu  sync.Mutex
	ops map[uint64][2]int
}

func (g *goroutineOps) set(op, span int) {
	g.mu.Lock()
	g.ops[goid()] = [2]int{op, span}
	g.mu.Unlock()
}

func (g *goroutineOps) clear() {
	g.mu.Lock()
	delete(g.ops, goid())
	g.mu.Unlock()
}

func (g *goroutineOps) current() (op, span int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	v := g.ops[goid()]
	return v[0], v[1]
}

// goid parses the current goroutine's id from its stack header
// ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

// tracedHandler records a span around the service's handler.
func tracedHandler(next http.Handler, tr *tracer, reg *goroutineOps) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.Atoi(r.Header.Get(opHeader))
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		id := tr.begin(op, parent, "serve.Handler")
		reg.set(op, id)
		next.ServeHTTP(w, r)
		reg.clear()
		tr.end(id)
	})
}

// tracedKernels wraps each served kernel's two versions in spans.
func tracedKernels(ks map[string]serve.Kernel, tr *tracer, reg *goroutineOps) map[string]serve.Kernel {
	out := make(map[string]serve.Kernel, len(ks))
	for name, k := range ks {
		w := *k.Workload
		spec, seq := w.Spec, w.Seq
		w.Spec = func(t *mutls.Thread, s bench.Size, o bench.SpecOptions) uint64 {
			op, parent := reg.current()
			id := tr.begin(op, parent, "serve.kernel")
			defer tr.end(id)
			return spec(t, s, o)
		}
		w.Seq = func(t *mutls.Thread, s bench.Size) uint64 {
			op, parent := reg.current()
			id := tr.begin(op, parent, "serve.seq")
			defer tr.end(id)
			return seq(t, s)
		}
		k.Workload = &w
		out[name] = k
	}
	return out
}

// shapeKernel is a shape as a kernel of the in-process rigs.
func shapeKernel(sh shape) kernel {
	return kernel{serve.DefaultKernels()[sh.kernel].Workload, sh.size}
}

// shapeRefs computes the benchmark's own sequential reference checksum of
// every shape.
func shapeRefs(corrupt bool) ([]uint64, error) {
	var refs []uint64
	for _, sh := range serveShapes {
		k := shapeKernel(sh)
		rt, err := mutls.New(mutls.Options{CPUs: 1, HeapBytes: k.w.HeapBytes(k.size)})
		if err != nil {
			return nil, err
		}
		var sum uint64
		_, err = rt.Run(func(t *mutls.Thread) { sum = k.w.Seq(t, k.size) })
		rt.Close()
		if err != nil {
			return nil, fmt.Errorf("%v reference: %w", k, err)
		}
		if corrupt {
			sum ^= 1
		}
		refs = append(refs, sum)
	}
	return refs, nil
}

func shapeWeights() []int {
	w := make([]int, len(serveShapes))
	for i, sh := range serveShapes {
		w[i] = sh.weight
	}
	return w
}

// warm sends every shape once, so the server's sequential-reference cache
// holds them all, then offers the fixed rate for warmFor.
func (s *server) warm(seed uint64, refs []uint64, o *outcome) {
	for i := range serveShapes {
		var res reqResult
		s.send(req{shape: i}, &res, refs)
		o.check(res.err)
	}
	for _, res := range openLoop(schedule(seed, 0xa0, serveRate, warmFor, shapeWeights()), serveConns, s.sender(refs)) {
		o.check(res.err)
	}
}

// rung is one rate of the ladder.
type rung struct {
	Rate    float64 `json:"rate"`
	Sent    int     `json:"sent"`
	P99Ms   float64 `json:"p99_ms"`
	Beyond  int     `json:"p99_beyond"`
	Growing bool    `json:"growing_backlog"`
	Meets   bool    `json:"meets_slo"`
}

// measureRung summarizes one rate: its p99 from the due time (a failed
// request counts as missing the limit) and whether the backlog grew.
func measureRung(rate float64, dur time.Duration, results []reqResult) rung {
	lat := latencies(results)
	p99, beyond := percentile(lat, 99)
	due := make([]time.Duration, len(results))
	done := make([]time.Duration, len(results))
	for i, r := range results {
		due[i], done[i] = r.due, r.done
	}
	const samples = 10
	growing := growingBacklog(backlogSeries(due, done, dur, samples), dur/samples, rate, serveConns)
	return rung{
		Rate: rate, Sent: len(results), P99Ms: p99, Beyond: beyond, Growing: growing,
		Meets: !growing && p99 <= ms(latencyLimit),
	}
}

// latencies are the requests' latencies in ms; a failed request reads
// +Inf, so it counts as missing any limit.
func latencies(results []reqResult) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = ms(r.latency())
		if r.err != nil {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// maxRateSLO is the highest ladder rate that meets the limit. Between it
// and the first rate that misses, it interpolates on p99 (a rate whose
// backlog grows counts as reaching the limit at once), so a capacity
// between two rungs reads between them rather than jumping.
func maxRateSLO(rungs []rung) float64 {
	best := 0.0
	for i, r := range rungs {
		if r.Meets {
			best = r.Rate
			continue
		}
		if i == 0 {
			return 0
		}
		prev := rungs[i-1]
		if r.Growing || math.IsInf(r.P99Ms, 1) || r.P99Ms <= prev.P99Ms {
			return best
		}
		frac := (ms(latencyLimit) - prev.P99Ms) / (r.P99Ms - prev.P99Ms)
		return best + frac*(r.Rate-prev.Rate)
	}
	return best
}

// runServeMixed offers a fixed open-loop rate to the server, then climbs
// the ladder until a rate misses the latency limit.
func runServeMixed(cfg config, o *outcome) error {
	var s *server
	var refs []uint64
	setupS, err := repeatSetup(cfg.setups, func() (func(), error) {
		var err error
		if refs, err = shapeRefs(cfg.corrupt); err != nil {
			return nil, err
		}
		if s, err = startServer(nil); err != nil {
			return nil, err
		}
		s.warm(cfg.seed, refs, o)
		return s.stop, nil
	})
	if err != nil {
		return err
	}
	defer s.stop()
	o.e2e["setup_s"] = setupS
	o.prov["offered_rps"] = serveRate
	o.prov["ladder_rps"] = serveLadder
	o.prov["latency_limit_ms"] = ms(latencyLimit)
	o.prov["connections"] = serveConns

	heap := startHeapSampler()
	if cfg.trace {
		err := serveTraced(cfg, s, refs, o)
		heap.finish()
		return err
	}
	fixed := openLoop(schedule(cfg.seed, 0xf1, serveRate, cfg.seconds/2, shapeWeights()), serveConns, s.sender(refs))
	var late []float64
	for _, r := range fixed {
		o.check(r.err)
		late = append(late, ms(r.late()))
	}
	o.info["fixed_requests"] = len(fixed)
	o.prov["gen_late_ms_p99"], _ = percentile(late, 99)
	o.prov["gen_late_ms_max"] = maxOf(late)
	serveE2E(fixed, o)

	var rungs []rung
	for i, rate := range serveLadder {
		dur := cfg.seconds / 12
		results := openLoop(schedule(cfg.seed, 0x1a0+uint64(i), rate, dur, shapeWeights()), serveConns, s.sender(refs))
		for _, r := range results {
			o.check(r.err)
		}
		rg := measureRung(rate, dur, results)
		rungs = append(rungs, rg)
		if !rg.Meets {
			break
		}
	}
	o.e2e["heap_peak_mb"] = heap.finish()
	o.e2e["max_rps_slo"] = maxRateSLO(rungs)
	o.prov["ladder"] = rungs
	return nil
}

// serveTraced offers the fixed rate in four legs that alternate between
// the untraced server and a second one whose handler and kernels record
// spans, so a drift in the host's speed falls on both sides of the
// tracing overhead.
func serveTraced(cfg config, s *server, refs []uint64, o *outcome) error {
	tr := newTracer()
	ts, err := startServer(tr)
	if err != nil {
		return err
	}
	defer ts.stop()
	ts.warm(cfg.seed, refs, o)
	p0 := ts.srv.Pool().Stats()
	spans0 := len(tr.snapshot())
	var untraced, traced []reqResult
	var goc goCounters
	for i := uint64(0); i < 4; i++ {
		sched := schedule(cfg.seed, 0xf0+i, serveRate, cfg.seconds/4, shapeWeights())
		if i%2 == 1 {
			traced = append(traced, openLoop(sched, serveConns, ts.sender(refs))...)
			continue
		}
		g0 := readGo()
		untraced = append(untraced, openLoop(sched, serveConns, s.sender(refs))...)
		goc.add(readGo().sub(g0))
	}
	p1 := ts.srv.Pool().Stats()
	for _, results := range [][]reqResult{untraced, traced} {
		for _, r := range results {
			o.check(r.err)
		}
	}
	o.spans = tr.snapshot()[spans0:]
	goc.perOp(len(untraced), o.layer)
	serveLayers(untraced, traced, o.spans, p0, p1, o.layer)
	return serveKernelLegs(cfg, o)
}

// serveE2E derives the end-to-end metrics of the fixed-rate leg. The
// server-side times split by grant: a request granted speculative CPUs
// runs the speculative path, a degraded one (0 CPUs) runs in order, so
// per shape the degraded median over the granted median is the speedup
// speculation gives a served request.
func serveE2E(fixed []reqResult, o *outcome) {
	lat := latencies(fixed)
	o.e2e["latency_ms_p50"] = median(lat)
	p99, beyond := percentile(lat, 99)
	o.e2e["latency_ms_p99"] = p99
	o.info["fixed_p99_beyond"] = beyond
	o.info["fixed_p99_tail_ok"] = tailSupported(len(lat), 99)
	o.e2e["vet_s_p50"] = median(lat) / 1e3

	granted := make([][]float64, len(serveShapes))
	degraded := make([][]float64, len(serveShapes))
	for _, r := range fixed {
		switch {
		case r.err != nil:
		case r.degraded:
			degraded[r.shape] = append(degraded[r.shape], r.serverMs)
		default:
			granted[r.shape] = append(granted[r.shape], r.serverMs)
		}
	}
	var speedups, p50s, p90s, seqs []float64
	var info []map[string]any
	for i := range serveShapes {
		g, d := granted[i], degraded[i]
		p90, _ := percentile(g, 90)
		info = append(info, map[string]any{
			"shape": shapeKernel(serveShapes[i]).String(), "granted": len(g), "degraded": len(d),
			"granted_ms_p50": median(g), "granted_ms_p90": p90, "degraded_ms_p50": median(d),
		})
		if len(g) > 0 {
			p50s = append(p50s, median(g))
			p90s = append(p90s, p90)
		}
		if len(d) > 0 {
			seqs = append(seqs, median(d))
		}
		if len(g) > 0 && len(d) > 0 {
			speedups = append(speedups, median(d)/median(g))
		}
	}
	o.info["shapes"] = info
	o.e2e["speedup"] = geomean(speedups)
	o.e2e["spec_ms_p50"] = geomean(p50s)
	o.e2e["spec_ms_p90"] = geomean(p90s)
	o.e2e["seq_ms_p50"] = geomean(seqs)
}

// serveLayers derives the service, pool and generator layers of the
// traced leg from its spans and the pool's counters.
func serveLayers(untraced, traced []reqResult, spans []span, p0, p1 pool.Stats, layer map[string]float64) {
	self := selfTimes(spans)
	var handler, handlerSelf, kernel, transport []float64
	for _, sp := range spans {
		switch sp.Name {
		case "serve.Handler":
			handler = append(handler, ms(sp.dur()))
			handlerSelf = append(handlerSelf, ms(self[sp.ID]))
		case "serve.kernel":
			kernel = append(kernel, ms(sp.dur()))
		case "serve.seq":
			layer["serve.seq_misses"]++
		case "http.RoundTrip":
			transport = append(transport, ms(self[sp.ID]))
		}
	}
	layer["serve.handler_ms_p50"] = median(handler)
	layer["serve.handler_ms_p99"], _ = percentile(handler, 99)
	layer["serve.kernel_ms_p50"] = median(kernel)
	layer["serve.self_ms_p50"] = median(handlerSelf)
	layer["serve.transport_ms_p50"] = median(transport)

	n := float64(len(traced))
	acquired := float64(p1.Acquired - p0.Acquired)
	layer["pool.acquired"] = acquired / n
	layer["pool.rejected"] = float64(p1.Rejected-p0.Rejected) / n
	if acquired > 0 {
		layer["pool.degraded_share"] = float64(p1.Degraded-p0.Degraded) / acquired
	}
	layer["pool.max_claimed_cpus"] = float64(p1.MaxClaimedCPUs)

	var late []float64
	for _, r := range append(append([]reqResult(nil), untraced...), traced...) {
		late = append(late, ms(r.late()))
	}
	layer["gen.late_ms_p99"], _ = percentile(late, 99)
	layer["gen.late_ms_max"] = maxOf(late)
	layer["trace.overhead_pct"] = (median(latencies(traced))/median(latencies(untraced)) - 1) * 100
}

// serveKernelLegs measures the runtime layers of the served work, which
// the server does not expose per request: every shape runs in-process on
// runtimes configured like a granted lease (2 speculative CPUs, Real
// timing so the phase ledgers are in nanoseconds), followed by the same
// 0-CPU and Virtual-timing legs as the kernel workloads.
func serveKernelLegs(cfg config, o *outcome) error {
	var kernels []kernel
	for _, sh := range serveShapes {
		kernels = append(kernels, shapeKernel(sh))
	}
	rigs, err := setupRigs(kernels, 2, mutls.Real, cfg.corrupt, o)
	if err != nil {
		return err
	}
	defer closeRigs(rigs)
	leg := cfg
	leg.seconds = time.Second
	closedLoop(leg, rigs, newTracer(), o)
	inproc := map[string]float64{}
	kernelE2E(rigs, inproc)
	kernelLayers(rigs, o.layer)
	if err := kernelLegs(rigs, inproc["speedup"], o); err != nil {
		return fmt.Errorf("in-process leg: %w", err)
	}
	return nil
}
