// Load driver for the speculation service: a wrk-style closed-loop
// generator that hammers a serve.Server over HTTP with a fixed number of
// concurrent clients, verifies every response, and reports goodput, shed
// rate and latency percentiles as a JSON document — the serving-side
// counterpart of the wall-clock suite.
package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// LoadConfig parameterizes one load run.
type LoadConfig struct {
	// Concurrency is the number of closed-loop clients (each issues its
	// next request as soon as the previous response arrives). Default 8.
	Concurrency int `json:"concurrency"`
	// Requests is the total request count across all clients. Default
	// 100×Concurrency.
	Requests int `json:"requests"`
	// Targets are the request paths (with query), rotated round-robin
	// across requests. Default {"/run"}.
	Targets []string `json:"targets"`
	// Timeout bounds each request. Default 30s.
	Timeout time.Duration `json:"-"`
	// MaxRetries is the per-request retry budget for transient 503 sheds:
	// each shed response is retried after a capped exponential backoff
	// with jitter, honoring the server's Retry-After when present. A shed
	// that survives the budget still counts as Overloaded (backpressure,
	// not failure). Default 3; negative disables retrying.
	MaxRetries int `json:"max_retries"`
	// RetryBase is the first backoff interval; it doubles per attempt up
	// to 32x. Default 25ms.
	RetryBase time.Duration `json:"-"`
}

func (c LoadConfig) defaults() LoadConfig {
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Requests <= 0 {
		c.Requests = 100 * c.Concurrency
	}
	if len(c.Targets) == 0 {
		c.Targets = []string{"/run"}
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	return c
}

// LoadReport is the load run's JSON document.
type LoadReport struct {
	Suite       string   `json:"suite"`
	Concurrency int      `json:"concurrency"`
	Requests    int      `json:"requests"`
	Targets     []string `json:"targets"`

	// OK counts verified 200 responses; Degraded those among them served
	// sequentially under budget exhaustion; Overloaded counts 503 sheds
	// (backpressure working as designed, not a failure); Errors counts
	// transport failures, unexpected statuses and malformed bodies; and
	// Unverified counts 200 responses whose body did not claim a verified
	// checksum — the acceptance criterion is Errors == Unverified == 0.
	OK         int64 `json:"ok"`
	Degraded   int64 `json:"degraded"`
	Overloaded int64 `json:"overloaded"`
	Errors     int64 `json:"errors"`
	Unverified int64 `json:"unverified"`
	// Retries counts 503 sheds that were retried (and so don't appear in
	// Overloaded unless every attempt shed).
	Retries int64 `json:"retries"`

	// WallNS is the whole run's wall time. GoodputRPS counts verified 200
	// responses (OK, degraded included) per second over it — the served
	// work. ThroughputRPS counts every final response per second, the 503
	// sheds that exhausted their retries included, so it overstates the
	// served work whenever the pool sheds. ShedRate is the share of
	// attempts (retries included) answered with a 503 shed.
	WallNS        int64   `json:"wall_ns"`
	ThroughputRPS float64 `json:"throughput_rps"`
	GoodputRPS    float64 `json:"goodput_rps"`
	ShedRate      float64 `json:"shed_rate"`

	// Latency percentiles over OK responses only, nanoseconds.
	LatencyP50NS int64 `json:"latency_p50_ns"`
	LatencyP90NS int64 `json:"latency_p90_ns"`
	LatencyP99NS int64 `json:"latency_p99_ns"`
	LatencyMaxNS int64 `json:"latency_max_ns"`

	Host WallclockHost `json:"host"`

	// ErrorSamples holds up to 5 distinct error strings for diagnosis.
	ErrorSamples []string `json:"error_samples,omitempty"`
}

// loadBody is the subset of serve.RunResponse the driver verifies.
// Declared locally so the harness depends only on the wire format.
type loadBody struct {
	Verified bool `json:"verified"`
	Degraded bool `json:"degraded"`
}

// RunLoad drives baseURL with cfg and aggregates the report. client may
// be nil for http.DefaultClient. The context cancels the whole run.
func RunLoad(ctx context.Context, client *http.Client, baseURL string, cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.defaults()
	if client == nil {
		client = http.DefaultClient
	}
	rep := &LoadReport{
		Suite:       "mutls-load",
		Concurrency: cfg.Concurrency,
		Requests:    cfg.Requests,
		Targets:     cfg.Targets,
		Host: WallclockHost{
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
		},
	}

	// Workers count into local atomics; the totals land in the report's
	// plain fields only after wg.Wait, so every LoadReport access after
	// that is single-writer (no mixed atomic/plain traffic on rep).
	var next, okN, degradedN, overloadedN, unverifiedN, errorsN, retriesN atomic.Int64
	var errMu sync.Mutex
	errSeen := make(map[string]bool)
	sample := func(err string) {
		errMu.Lock()
		if !errSeen[err] && len(rep.ErrorSamples) < 5 {
			errSeen[err] = true
			rep.ErrorSamples = append(rep.ErrorSamples, err)
		}
		errMu.Unlock()
	}

	latencies := make([][]int64, cfg.Concurrency)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Requests || ctx.Err() != nil {
					return
				}
				target := cfg.Targets[i%len(cfg.Targets)]
				lat, outcome, err := loadRetried(ctx, client, baseURL+target, cfg, &retriesN)
				switch outcome {
				case loadOK:
					okN.Add(1)
					latencies[w] = append(latencies[w], lat)
				case loadDegraded:
					okN.Add(1)
					degradedN.Add(1)
					latencies[w] = append(latencies[w], lat)
				case loadOverloaded:
					overloadedN.Add(1)
				case loadUnverified:
					unverifiedN.Add(1)
				case loadError:
					errorsN.Add(1)
					sample(err.Error())
				}
			}
		}(w)
	}
	wg.Wait()
	rep.OK = okN.Load()
	rep.Degraded = degradedN.Load()
	rep.Overloaded = overloadedN.Load()
	rep.Unverified = unverifiedN.Load()
	rep.Errors = errorsN.Load()
	rep.Retries = retriesN.Load()
	rep.WallNS = time.Since(start).Nanoseconds()

	var all []int64
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if n := len(all); n > 0 {
		pct := func(p float64) int64 {
			i := int(p * float64(n-1))
			return all[i]
		}
		rep.LatencyP50NS = pct(0.50)
		rep.LatencyP90NS = pct(0.90)
		rep.LatencyP99NS = pct(0.99)
		rep.LatencyMaxNS = all[n-1]
	}
	if rep.WallNS > 0 {
		secs := float64(rep.WallNS) / 1e9
		rep.ThroughputRPS = float64(rep.OK+rep.Overloaded) / secs
		rep.GoodputRPS = float64(rep.OK) / secs
	}
	// Every retry answers one shed attempt; every request ends in exactly
	// one final outcome.
	sheds := rep.Overloaded + rep.Retries
	if attempts := rep.OK + rep.Overloaded + rep.Unverified + rep.Errors + rep.Retries; attempts > 0 {
		rep.ShedRate = float64(sheds) / float64(attempts)
	}
	return rep, ctx.Err()
}

type loadOutcome int

const (
	loadOK loadOutcome = iota
	loadDegraded
	loadOverloaded
	loadUnverified
	loadError
)

// loadRetried issues one request, retrying transient 503 sheds up to
// cfg.MaxRetries times with capped exponential backoff plus jitter. The
// server's Retry-After (when longer) replaces the computed backoff; each
// retry is counted into retries. A shed that exhausts the budget is
// returned as loadOverloaded — admission control is backpressure, not an
// error, so the caller never fails the run over it.
func loadRetried(ctx context.Context, client *http.Client, url string, cfg LoadConfig, retries *atomic.Int64) (int64, loadOutcome, error) {
	backoff := cfg.RetryBase
	for attempt := 0; ; attempt++ {
		lat, outcome, retryAfter, err := loadOne(ctx, client, url, cfg.Timeout)
		if outcome != loadOverloaded || attempt >= cfg.MaxRetries || ctx.Err() != nil {
			return lat, outcome, err
		}
		retries.Add(1)
		sleep := backoff
		if retryAfter > sleep {
			sleep = retryAfter
		}
		// Decorrelate the herd: sleep a uniform draw from [sleep/2, sleep].
		sleep = sleep/2 + time.Duration(rand.Int63n(int64(sleep/2)+1))
		select {
		case <-ctx.Done():
			return lat, outcome, err
		case <-time.After(sleep):
		}
		if backoff < 32*cfg.RetryBase {
			backoff *= 2
		}
	}
}

// loadOne issues one request and classifies the response. On a 503 shed it
// also returns the server's Retry-After hint (zero when absent).
func loadOne(ctx context.Context, client *http.Client, url string, timeout time.Duration) (latNS int64, outcome loadOutcome, retryAfter time.Duration, err error) {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, loadError, 0, err
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, loadError, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	lat := time.Since(t0).Nanoseconds()
	if err != nil {
		return 0, loadError, 0, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		var b loadBody
		if err := json.Unmarshal(body, &b); err != nil {
			return 0, loadError, 0, fmt.Errorf("malformed body: %w", err)
		}
		if !b.Verified {
			return 0, loadUnverified, 0, nil
		}
		if b.Degraded {
			return lat, loadDegraded, 0, nil
		}
		return lat, loadOK, 0, nil
	case http.StatusServiceUnavailable:
		if s := resp.Header.Get("Retry-After"); s != "" {
			if n, perr := strconv.Atoi(s); perr == nil && n > 0 {
				retryAfter = time.Duration(n) * time.Second
			}
		}
		return 0, loadOverloaded, retryAfter, nil
	default:
		return 0, loadError, 0, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, truncate(body, 200))
	}
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}

// WriteLoad encodes a report as the suite's JSON document.
func WriteLoad(out io.Writer, rep *LoadReport) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
