// Command mutls-load load-tests the multi-tenant speculation service and
// emits a JSON report of goodput, shed rate, latency percentiles and
// verification counts. By default it starts an in-process server (serve.Server over a
// pool.Pool) on a loopback port, drives it, and checks for a clean drain
// — the CI smoke for the serving layer. Point -url at a running
// examples/server instance to drive it over the network instead.
//
// Usage:
//
//	mutls-load                          # in-process server, defaults
//	mutls-load -c 32 -n 300             # 32 clients, 300 requests
//	mutls-load -runtimes 4 -budget 8    # pool shape for the in-process server
//	mutls-load -url http://host:8080    # drive an external server
//	mutls-load -out BENCH_load.json     # also write the report to a file
//
// Exit status is non-zero when any request errored, any response failed
// checksum verification, or (in-process only) the server leaked
// goroutines across shutdown. Admission-control sheds (503) are retried
// with capped exponential backoff plus jitter (honoring Retry-After) and
// reported as "overloaded"/"retries" counts in the JSON summary — they
// never fail the run, since shedding is the pool working as designed.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/serve"
	"repro/mutls"
	"repro/mutls/pool"
)

func main() {
	url := flag.String("url", "", "base URL of a running server; empty starts an in-process server")
	c := flag.Int("c", 8, "concurrent closed-loop clients")
	n := flag.Int("n", 0, "total requests (default 25 per client)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	targets := flag.String("targets", "", "comma-separated request paths (default: one per served kernel at smoke sizes)")
	runtimes := flag.Int("runtimes", 2, "in-process server: pooled runtimes")
	cpus := flag.Int("cpus", 4, "in-process server: speculative CPUs per runtime")
	budget := flag.Int("budget", 0, "in-process server: host CPU budget (default GOMAXPROCS)")
	queue := flag.Int("queue", 0, "in-process server: acquire queue limit (default 4x runtimes)")
	retries := flag.Int("retries", 3, "retry budget per request for transient 503 sheds (backoff + jitter, honors Retry-After); negative disables")
	out := flag.String("out", "", "also write the JSON report to this file")
	flag.Parse()

	cfg := harness.LoadConfig{
		Concurrency: *c,
		Requests:    *n,
		Timeout:     *timeout,
		MaxRetries:  *retries,
	}
	if *targets != "" {
		cfg.Targets = strings.Split(*targets, ",")
	} else {
		cfg.Targets = []string{
			"/run?kernel=x3p1&n=4000",
			"/run?kernel=mandelbrot&n=16&m=200",
			"/run?kernel=matmult&n=16",
		}
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 25 * cfg.Concurrency
	}

	base := *url
	var shutdown func() error
	if base == "" {
		var err error
		base, shutdown, err = startInProcess(*runtimes, *cpus, *budget, *queue)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mutls-load:", err)
			os.Exit(2)
		}
	}

	rep, err := harness.RunLoad(context.Background(), nil, base, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutls-load:", err)
		os.Exit(2)
	}

	failed := rep.Errors > 0 || rep.Unverified > 0
	if shutdown != nil {
		if err := shutdown(); err != nil {
			fmt.Fprintln(os.Stderr, "mutls-load:", err)
			failed = true
		}
	}

	if err := harness.WriteLoad(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "mutls-load:", err)
		os.Exit(2)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err == nil {
			err = harness.WriteLoad(f, rep)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mutls-load:", err)
			os.Exit(2)
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "mutls-load: FAILED: %d errors, %d unverified responses\n",
			rep.Errors, rep.Unverified)
		os.Exit(1)
	}
}

// startInProcess runs the service on a loopback port and returns its base
// URL plus a shutdown hook that drains the server and verifies no
// goroutines leaked across the lifecycle.
func startInProcess(runtimes, cpus, budget, queue int) (string, func() error, error) {
	before := runtime.NumGoroutine()
	s, err := serve.New(serve.Options{Pool: pool.Options{
		Runtimes:   runtimes,
		HostBudget: budget,
		QueueLimit: queue,
		Runtime:    mutls.Options{CPUs: cpus},
	}})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return "", nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)

	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("server shutdown: %w", err)
		}
		s.Close()
		// Workers exit asynchronously after their task channels close.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > before {
			return fmt.Errorf("goroutine leak across server lifecycle: %d before, %d after", before, now)
		}
		return nil
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
