package harness

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/mutls"
	"repro/mutls/pool"
)

// TestRunLoad drives a real in-process speculation service end to end:
// every request verified, latency percentiles ordered, pool drained.
func TestRunLoad(t *testing.T) {
	s, err := serve.New(serve.Options{Pool: pool.Options{
		Runtimes:   2,
		HostBudget: 2,
		QueueLimit: 64,
		Runtime:    mutls.Options{CPUs: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	rep, err := RunLoad(context.Background(), ts.Client(), ts.URL, LoadConfig{
		Concurrency: 8,
		Requests:    40,
		Targets: []string{
			"/run?kernel=x3p1&n=2000",
			"/run?kernel=mandelbrot&n=16&m=100",
			"/run?kernel=matmult&n=16",
		},
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Unverified != 0 {
		t.Fatalf("load run failed: errors=%d unverified=%d samples=%v",
			rep.Errors, rep.Unverified, rep.ErrorSamples)
	}
	if got := rep.OK + rep.Overloaded; got != int64(rep.Requests) {
		t.Errorf("OK %d + Overloaded %d != Requests %d", rep.OK, rep.Overloaded, rep.Requests)
	}
	if rep.OK == 0 {
		t.Error("no request succeeded")
	}
	if rep.ThroughputRPS <= 0 {
		t.Errorf("ThroughputRPS = %v", rep.ThroughputRPS)
	}
	if !(rep.LatencyP50NS <= rep.LatencyP90NS && rep.LatencyP90NS <= rep.LatencyP99NS &&
		rep.LatencyP99NS <= rep.LatencyMaxNS) {
		t.Errorf("latency percentiles unordered: p50=%d p90=%d p99=%d max=%d",
			rep.LatencyP50NS, rep.LatencyP90NS, rep.LatencyP99NS, rep.LatencyMaxNS)
	}
	if rep.LatencyMaxNS <= 0 {
		t.Error("no latencies recorded")
	}
	st := s.Pool().Stats()
	if st.Released != st.Acquired || st.ClaimedCPUs != 0 || st.Waiting != 0 {
		t.Errorf("pool not drained after load: %+v", st)
	}
}

// TestRunLoadShedding: a no-queue pool under more clients than runtimes
// sheds with 503s, which the driver classifies as backpressure, not
// errors. Goodput counts only the verified 200s, while throughput also
// counts the 503s; the shed rate is the 503 share of all attempts.
func TestRunLoadShedding(t *testing.T) {
	s, err := serve.New(serve.Options{Pool: pool.Options{
		Runtimes:   1,
		HostBudget: 2,
		QueueLimit: pool.NoQueue,
		Runtime:    mutls.Options{CPUs: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	rep, err := RunLoad(context.Background(), ts.Client(), ts.URL, LoadConfig{
		Concurrency: 8,
		Requests:    40,
		Targets:     []string{"/run?kernel=x3p1&n=2000"},
		MaxRetries:  -1, // observe raw sheds, not the retried view
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Unverified != 0 {
		t.Fatalf("errors=%d unverified=%d samples=%v", rep.Errors, rep.Unverified, rep.ErrorSamples)
	}
	if rep.Overloaded == 0 {
		t.Error("no request was shed despite 8 clients on a 1-runtime no-queue pool")
	}
	if rep.Retries != 0 {
		t.Errorf("retries=%d with retrying disabled", rep.Retries)
	}
	if rep.OK == 0 {
		t.Error("every request was shed")
	}
	secs := float64(rep.WallNS) / 1e9
	if want := float64(rep.OK) / secs; math.Abs(rep.GoodputRPS-want) > 1e-9*want {
		t.Errorf("goodput %.3f rps, want %d OKs / %.3fs = %.3f", rep.GoodputRPS, rep.OK, secs, want)
	}
	if rep.Overloaded > 0 && rep.GoodputRPS >= rep.ThroughputRPS {
		t.Errorf("goodput %.3f rps not below throughput %.3f rps despite %d sheds",
			rep.GoodputRPS, rep.ThroughputRPS, rep.Overloaded)
	}
	if want := float64(rep.Overloaded) / float64(rep.Requests); math.Abs(rep.ShedRate-want) > 1e-12 {
		t.Errorf("shed rate %v, want %d/%d", rep.ShedRate, rep.Overloaded, rep.Requests)
	}
}

// TestRunLoadRetry: with a retry budget, the driver re-issues shed
// requests after backoff; most sheds convert into eventual OKs and land
// in the retry counter instead of Overloaded.
func TestRunLoadRetry(t *testing.T) {
	s, err := serve.New(serve.Options{Pool: pool.Options{
		Runtimes:   1,
		HostBudget: 2,
		QueueLimit: pool.NoQueue,
		Runtime:    mutls.Options{CPUs: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	rep, err := RunLoad(context.Background(), ts.Client(), ts.URL, LoadConfig{
		Concurrency: 8,
		Requests:    40,
		Targets:     []string{"/run?kernel=x3p1&n=2000"},
		MaxRetries:  8,
		RetryBase:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Unverified != 0 {
		t.Fatalf("errors=%d unverified=%d samples=%v", rep.Errors, rep.Unverified, rep.ErrorSamples)
	}
	if rep.Retries == 0 {
		t.Error("no retries despite 8 clients contending for a 1-runtime no-queue pool")
	}
	// Every retry answers one more shed attempt.
	sheds, attempts := rep.Overloaded+rep.Retries, int64(rep.Requests)+rep.Retries
	if want := float64(sheds) / float64(attempts); math.Abs(rep.ShedRate-want) > 1e-12 {
		t.Errorf("shed rate %v, want %d/%d", rep.ShedRate, sheds, attempts)
	}
	if rep.OK == 0 {
		t.Error("every request was shed")
	}
}

// TestLoadBaselineStillDecodes: the committed BENCH_load.json predates
// goodput_rps and shed_rate; the new fields are additive, so it decodes.
func TestLoadBaselineStillDecodes(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_load.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep LoadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Suite != "mutls-load" || rep.ThroughputRPS <= 0 {
		t.Fatalf("decoded %+v", rep)
	}
}
