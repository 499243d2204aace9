// Command perfbench is the repository's benchmark: one seeded command that
// runs a named workload for a fixed time, checks every operation's
// output, and prints the end-to-end metrics (or, traced, the per-layer
// metrics) as the last line of standard output. run.py builds and runs
// it; see README.md for the workloads and metric definitions.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	root     string // module root the workloads build from and vet
	seed     uint64
	seconds  time.Duration
	trace    bool
	// setups is how many times set-up runs (setup_s is their median).
	setups int
	// corrupt flips the benchmark's reference checksums, so every check
	// must fail (tests only).
	corrupt bool
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	failures          []string // the first few, for the report

	e2e   map[string]float64
	layer map[string]float64
	prov  map[string]any // workload provenance, printed with the host's
	info  map[string]any // details for the report only
	spans []span
}

func newOutcome() *outcome {
	return &outcome{
		e2e: map[string]float64{}, layer: map[string]float64{},
		prov: map[string]any{}, info: map[string]any{},
	}
}

// check counts one verified operation; a non-nil err is a failure.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.failures) < 10 {
			o.failures = append(o.failures, err.Error())
		}
	}
}

type workloadFunc func(cfg config, o *outcome) error

var workloads = map[string]workloadFunc{
	"spec-loops":  runSpecLoops,
	"spec-trees":  runSpecTrees,
	"serve-mixed": runServeMixed,
	"vet-module":  runVetModule,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation and returns the exit code: 0 when every
// operation verified, 1 when any failed (the result line still prints),
// 2 when the benchmark could not run at all (no result line).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg     config
		seconds = fs.Int("seconds", 20, "how long the timed phase runs")
		seed    = fs.Uint64("seed", 1, "seed for every generated input")
		trace   = fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	)
	fs.StringVar(&cfg.workload, "workload", "", "spec-loops, spec-trees, serve-mixed or vet-module")
	fs.StringVar(&cfg.root, "root", ".", "module root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: need -seconds >= 1 and -trace 0|1")
		return 2
	}
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s is not the module root: %v\n", root, err)
		return 2
	}
	cfg.root, cfg.seed, cfg.seconds, cfg.trace = root, *seed, time.Duration(*seconds)*time.Second, *trace == 1
	cfg.setups = 3
	return execute(cfg, filepath.Join(root, ".bench_build", "reports"), stdout, stderr)
}

// execute runs the configured workload, prints the result line and
// returns the exit code.
func execute(cfg config, outDir string, stdout, stderr io.Writer) int {
	wf := workloads[cfg.workload]
	o := newOutcome()
	if err := wf(cfg, o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	if o.attempted == 0 {
		fmt.Fprintf(stderr, "perfbench: %s: no operation ran\n", cfg.workload)
		return 2
	}
	o.e2e["ok_rate"] = float64(o.attempted-o.failed) / float64(o.attempted)
	for _, m := range []map[string]float64{o.e2e, o.layer} {
		for k, v := range m {
			m[k] = finite(v)
		}
	}

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	values := o.e2e
	if cfg.trace {
		defs, values = perLayer, o.layer
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !cfg.trace {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", cfg.workload, d.Name)
			return 2
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}

	prov := provenance(cfg)
	for k, v := range o.prov {
		prov[k] = v
	}
	if err := writeReport(outDir, cfg, prov, o, res); err != nil {
		fmt.Fprintln(stderr, "perfbench: report:", err)
	}
	for _, f := range o.failures {
		fmt.Fprintln(stderr, "perfbench: FAILED:", f)
	}
	line, err := json.Marshal(map[string]any{"provenance": prov})
	if err == nil {
		fmt.Fprintln(stdout, string(line))
	}
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// finite makes a value JSON-encodable: a latency percentile that lands on
// a failed request reads +Inf (it missed every limit) and prints as the
// largest float; the run has failed anyway.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

// provenance describes the host and the invocation.
func provenance(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":  cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeReport writes the detailed JSON report (provenance, metrics,
// failures and, traced, every span) for later inspection.
func writeReport(dir string, cfg config, prov map[string]any, o *outcome, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace)
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	err = enc.Encode(map[string]any{
		"provenance": prov,
		"details":    o.info,
		"result":     res,
		"e2e":        o.e2e,
		"layer":      o.layer,
		"failures":   o.failures,
		"spans":      o.spans,
	})
	return errors.Join(err, f.Close())
}

// repeatSetup runs setup n times, tearing down all but the last, and
// returns the median duration in seconds.
func repeatSetup(n int, setup func() (teardown func(), err error)) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		teardown, err := setup()
		if err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < n-1 {
			teardown()
		}
	}
	return median(secs), nil
}

// heapSampler tracks the Go heap in use while it runs: the peak of each
// one-second window, sampled every 5 ms. The reported peak is the median
// of the window peaks, the heap a typical second reaches; the single
// highest sample depends on where collections happen to fall and varies
// too much from run to run to compare.
type heapSampler struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	peaks []float64
}

const (
	heapMetric = "/memory/classes/heap/objects:bytes"
	heapEvery  = 5 * time.Millisecond
	heapWindow = 200 // samples per one-second window
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(heapEvery)
		defer tick.Stop()
		var peak uint64
		for n := 1; ; n++ {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			if n%heapWindow == 0 {
				h.peaks = append(h.peaks, float64(peak))
				peak = 0
			}
			select {
			case <-h.stop:
				if peak > 0 {
					h.peaks = append(h.peaks, float64(peak))
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the median window peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	return median(h.peaks) / 1e6
}

// goCounters reads the cumulative heap allocation and GC cycle counts.
type goCounters struct{ allocBytes, gcs uint64 }

func readGo() goCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return goCounters{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

func (g goCounters) sub(o goCounters) goCounters {
	return goCounters{g.allocBytes - o.allocBytes, g.gcs - o.gcs}
}

func (g *goCounters) add(o goCounters) {
	g.allocBytes += o.allocBytes
	g.gcs += o.gcs
}

// perOp reports the Go runtime layer per operation.
func (g goCounters) perOp(ops int, layer map[string]float64) {
	if ops == 0 {
		return
	}
	layer["go.alloc_kb_per_op"] = float64(g.allocBytes) / 1024 / float64(ops)
	layer["go.gc_per_op"] = float64(g.gcs) / float64(ops)
}
