package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/bench"
	"repro/internal/vclock"
	"repro/mutls"
)

// kernel is one benchmark program at a fixed size.
type kernel struct {
	w    *bench.Workload
	size bench.Size
}

func (k kernel) String() string {
	return fmt.Sprintf("%s{n=%d m=%d steps=%d}", k.w.Name, k.size.N, k.size.M, k.size.Steps)
}

// loopKernels are the spec-loops programs (For, Pipeline, Reduce), each
// sized so its sequential run takes about 12 ms on a 2-core AMD EPYC
// host, so no kernel dominates the geomean.
var loopKernels = []kernel{
	{bench.X3P1, bench.Size{N: 95_000}},
	{bench.Mandelbrot, bench.Size{N: 192, M: 720}},
	{bench.MD, bench.Size{N: 160, Steps: 44}},
	{bench.Stencil, bench.Size{N: 1 << 15, Steps: 18}},
	{bench.FloatSum, bench.Size{N: 1_835_008}},
	{bench.BH, bench.Size{N: 384, Steps: 4}},
}

// treeKernels are the spec-trees programs (Tree, mixed model). fft and
// matmult keep the wall-clock suite's sizes on purpose: at n=65536 fft's
// only speculation overflows the openaddr buffer, and at n=128 both of
// matmult's forks fail validation.
var treeKernels = []kernel{
	{bench.FFT, bench.Size{N: 1 << 16}},
	{bench.MatMult, bench.Size{N: 128}},
	{bench.NQueen, bench.Size{N: 12}},
	{bench.TSP, bench.Size{N: 10}},
}

// kernelOptions mirrors the wall-clock suite's runtime configuration
// (openaddr buffer, 2^16 words, 256 overflow slots).
func kernelOptions(k kernel, cpus int, timing mutls.TimingMode) mutls.Options {
	return mutls.Options{
		CPUs:         cpus,
		Timing:       timing,
		CollectStats: true,
		StaticBytes:  1 << 16,
		HeapBytes:    k.w.HeapBytes(k.size),
		StackBytes:   1 << 16,
		Buffering:    mutls.Buffering{Backend: "openaddr", LogWords: 16, OverflowCap: 256},
		RegSlots:     160,
		StackSlots:   32,
	}
}

// rig is one kernel's pair of runtimes, built in set-up and recycled
// between runs, plus the sequential reference checksum.
type rig struct {
	k              kernel
	seqRT, specRT  *mutls.Runtime
	ref            uint64
	seqMs, specMs  []float64 // untraced runs
	tracedSpecMs   []float64
	tracedStats    []*mutls.Summary
	recycleUs      []float64
	nospecMs       []float64
	virtualSpeedup float64
}

func newRig(k kernel, specCPUs int, timing mutls.TimingMode) (*rig, error) {
	seqRT, err := mutls.New(kernelOptions(k, 1, timing))
	if err != nil {
		return nil, fmt.Errorf("%v: %w", k, err)
	}
	specRT, err := mutls.New(kernelOptions(k, specCPUs, timing))
	if err != nil {
		seqRT.Close()
		return nil, fmt.Errorf("%v: %w", k, err)
	}
	return &rig{k: k, seqRT: seqRT, specRT: specRT}, nil
}

func (r *rig) close() {
	r.seqRT.Close()
	r.specRT.Close()
}

func closeRigs(rigs []*rig) {
	for _, r := range rigs {
		r.close()
	}
}

// runFn is the kernel's sequential or speculative version.
func (r *rig) runFn(spec bool) func(t *mutls.Thread) uint64 {
	if spec {
		return func(t *mutls.Thread) uint64 {
			return r.k.w.Spec(t, r.k.size, bench.SpecOptions{Model: r.k.w.DefaultModel})
		}
	}
	return func(t *mutls.Thread) uint64 { return r.k.w.Seq(t, r.k.size) }
}

// runResult is one checked run.
type runResult struct {
	wall    time.Duration
	sum     *mutls.Summary // traced speculative runs only
	recycle time.Duration
}

// run executes one version on its runtime, checks the checksum against
// the reference, and recycles the runtime. Traced, it records spans
// around each call into the runtime.
func (r *rig) run(spec bool, tr *tracer, op, parent int) (runResult, error) {
	rt, name := r.seqRT, "seq"
	if spec {
		rt, name = r.specRT, "spec"
	}
	fn := r.runFn(spec)
	var got uint64
	start := time.Now()
	_, err := rt.Run(func(t *mutls.Thread) { got = fn(t) })
	end := time.Now()
	tr.add(op, parent, name+".mutls.Run", start, end)
	res := runResult{wall: end.Sub(start)}
	if err == nil && got != r.ref {
		err = fmt.Errorf("%v %s: checksum %#x, reference %#x", r.k, name, got, r.ref)
	} else if err != nil {
		err = fmt.Errorf("%v %s: %w", r.k, name, err)
	}
	if tr != nil && spec {
		id := tr.begin(op, parent, "spec.mutls.Stats")
		res.sum = rt.Stats()
		tr.end(id)
	}
	start = time.Now()
	rt.Recycle()
	end = time.Now()
	tr.add(op, parent, name+".mutls.Recycle", start, end)
	res.recycle = end.Sub(start)
	return res, err
}

// setupRigs builds every kernel's runtimes, computes the sequential
// reference checksums and warms each version once.
func setupRigs(kernels []kernel, specCPUs int, timing mutls.TimingMode, corrupt bool, o *outcome) ([]*rig, error) {
	var rigs []*rig
	for _, k := range kernels {
		r, err := newRig(k, specCPUs, timing)
		if err != nil {
			closeRigs(rigs)
			return nil, err
		}
		rigs = append(rigs, r)
		fn := r.runFn(false)
		if _, err := r.seqRT.Run(func(t *mutls.Thread) { r.ref = fn(t) }); err != nil {
			closeRigs(rigs)
			return nil, fmt.Errorf("%v reference: %w", k, err)
		}
		r.seqRT.Recycle()
		if corrupt {
			r.ref ^= 1
		}
		for _, spec := range []bool{false, true} {
			_, err := r.run(spec, nil, 0, 0)
			o.check(err)
		}
	}
	return rigs, nil
}

func runSpecLoops(cfg config, o *outcome) error { return runSpecSuite(cfg, o, loopKernels) }
func runSpecTrees(cfg config, o *outcome) error { return runSpecSuite(cfg, o, treeKernels) }

// runSpecSuite is the closed loop shared by spec-loops and spec-trees:
// one driver runs rounds over every kernel in a seeded order, each kernel
// once sequentially and once speculatively in a seeded order, on a 2-CPU
// runtime (the non-speculative thread plus one speculative CPU) under
// Real timing.
func runSpecSuite(cfg config, o *outcome, kernels []kernel) error {
	var rigs []*rig
	setupS, err := repeatSetup(cfg.setups, func() (func(), error) {
		var err error
		rigs, err = setupRigs(kernels, 1, mutls.Real, cfg.corrupt, o)
		return func() { closeRigs(rigs) }, err
	})
	if err != nil {
		return err
	}
	defer closeRigs(rigs)
	o.e2e["setup_s"] = setupS

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	heap := startHeapSampler()
	loop := closedLoop(cfg, rigs, tr, o)
	o.e2e["heap_peak_mb"] = heap.finish()
	o.info["rounds"] = loop.rounds
	o.info["kernels"] = kernelInfo(rigs)

	kernelE2E(rigs, o.e2e)
	if !cfg.trace {
		return nil
	}
	o.spans = tr.snapshot()
	loop.goc.perOp(loop.untracedOps, o.layer)
	kernelLayers(rigs, o.layer)
	var traced, untraced []float64
	for _, r := range rigs {
		traced = append(traced, median(r.tracedSpecMs))
		untraced = append(untraced, median(r.specMs))
	}
	o.layer["trace.overhead_pct"] = (geomean(traced)/geomean(untraced) - 1) * 100
	return kernelLegs(rigs, o.e2e["speedup"], o)
}

type loopStats struct {
	rounds, untracedOps int
	goc                 goCounters // Go runtime counters over untraced rounds
}

// closedLoop runs rounds until cfg.seconds have passed. Traced, every
// other round records spans and the runtime's statistics; the untraced
// rounds between them give the tracing overhead and the Go counters.
func closedLoop(cfg config, rigs []*rig, tr *tracer, o *outcome) loopStats {
	rng := rand.New(rand.NewPCG(cfg.seed, 0x5bec))
	deadline := time.Now().Add(cfg.seconds)
	var ls loopStats
	op := 0
	for ; ls.rounds == 0 || time.Now().Before(deadline); ls.rounds++ {
		var rtr *tracer
		if cfg.trace && ls.rounds%2 == 0 {
			rtr = tr
		}
		g0 := readGo()
		for _, i := range rng.Perm(len(rigs)) {
			r := rigs[i]
			op++
			root := rtr.begin(op, 0, "op."+r.k.w.Name)
			seqFirst := rng.IntN(2) == 0
			for _, spec := range []bool{!seqFirst, seqFirst} {
				res, err := r.run(spec, rtr, op, root)
				o.check(err)
				d := ms(res.wall)
				switch {
				case rtr != nil && spec:
					r.tracedSpecMs = append(r.tracedSpecMs, d)
					r.tracedStats = append(r.tracedStats, res.sum)
				case rtr != nil:
					// traced sequential runs only feed the recycle spans
				case spec:
					r.specMs = append(r.specMs, d)
				default:
					r.seqMs = append(r.seqMs, d)
				}
				if rtr != nil {
					r.recycleUs = append(r.recycleUs, float64(res.recycle)/1e3)
				}
			}
			rtr.end(root)
		}
		if rtr == nil {
			ls.goc.add(readGo().sub(g0))
			ls.untracedOps += 2 * len(rigs)
		}
	}
	return ls
}

// kernelE2E derives the end-to-end metrics from the untraced runs. Per
// kernel medians combine by geomean, so every kernel weighs the same.
func kernelE2E(rigs []*rig, e2e map[string]float64) {
	var speedups, specP50, specP90, seqP50, pooled []float64
	specSecs, specRuns := 0.0, 0
	for _, r := range rigs {
		speedups = append(speedups, median(r.seqMs)/median(r.specMs))
		specP50 = append(specP50, median(r.specMs))
		p90, _ := percentile(r.specMs, 90)
		specP90 = append(specP90, p90)
		seqP50 = append(seqP50, median(r.seqMs))
		pooled = append(pooled, r.specMs...)
		for _, d := range r.specMs {
			specSecs += d / 1e3
		}
		specRuns += len(r.specMs)
	}
	e2e["speedup"] = geomean(speedups)
	e2e["spec_ms_p50"] = geomean(specP50)
	e2e["spec_ms_p90"] = geomean(specP90)
	e2e["seq_ms_p50"] = geomean(seqP50)
	e2e["latency_ms_p50"] = median(pooled)
	e2e["latency_ms_p99"], _ = percentile(pooled, 99)
	e2e["vet_s_p50"] = median(pooled) / 1e3
	if specSecs > 0 {
		e2e["max_rps_slo"] = float64(specRuns) / specSecs
	}
}

// kernelInfo is the per-kernel detail of the report.
func kernelInfo(rigs []*rig) []map[string]any {
	var out []map[string]any
	for _, r := range rigs {
		p90, beyond := percentile(r.specMs, 90)
		out = append(out, map[string]any{
			"kernel":        r.k.String(),
			"runs":          len(r.specMs),
			"seq_ms_p50":    median(r.seqMs),
			"spec_ms_p50":   median(r.specMs),
			"spec_ms_p90":   p90,
			"p90_beyond":    beyond,
			"p90_tail_ok":   tailSupported(len(r.specMs), 90),
			"speedup":       median(r.seqMs) / median(r.specMs),
			"nospec_ms_p50": median(r.nospecMs),
			"seq_ms":        r.seqMs,
			"spec_ms":       r.specMs,
			"virtual_x":     r.virtualSpeedup,
		})
	}
	return out
}

// kernelLayers derives the runtime's per-layer metrics from the traced
// speculative runs: phase ledgers and times as per-run medians, event
// counts as per-run means, set sizes as peaks.
func kernelLayers(rigs []*rig, layer map[string]float64) {
	crit := map[string]vclock.Phase{
		"work": vclock.Work, "fork": vclock.Fork, "find_cpu": vclock.FindCPU,
		"join": vclock.Join, "idle": vclock.Idle,
	}
	spec := map[string]vclock.Phase{
		"work": vclock.Work, "wasted": vclock.Wasted, "overflow": vclock.Overflow, "idle": vclock.Idle,
		"validation": vclock.Validation, "commit": vclock.Commit, "finalize": vclock.Finalize,
	}
	perRun := map[string][]float64{}
	counts := map[string]float64{}
	var runs int
	var execs, commits float64
	var recycle []float64
	for _, r := range rigs {
		recycle = append(recycle, r.recycleUs...)
		for _, st := range r.tracedStats {
			runs++
			for name, p := range crit {
				perRun["core.crit."+name+"_ms"] = append(perRun["core.crit."+name+"_ms"], float64(st.NonSpecLedger[p])/1e6)
			}
			for name, p := range spec {
				perRun["core.spec."+name+"_ms"] = append(perRun["core.spec."+name+"_ms"], float64(st.SpecLedger[p])/1e6)
			}
			if st.Executions > 0 {
				perRun["mutls.chunk_ms"] = append(perRun["mutls.chunk_ms"], float64(st.SpecRuntime)/1e6/float64(st.Executions))
			}
			perRun["core.crit_efficiency"] = append(perRun["core.crit_efficiency"], st.CritEfficiency())
			perRun["core.coverage"] = append(perRun["core.coverage"], st.Coverage())
			execs += float64(st.Executions)
			commits += float64(st.Commits)
			counts["core.executions"] += float64(st.Executions)
			counts["core.commits"] += float64(st.Commits)
			counts["core.rollbacks"] += float64(st.Rollbacks)
			counts["gbuf.loads"] += float64(st.GBuf.Loads)
			counts["gbuf.stores"] += float64(st.GBuf.Stores)
			counts["gbuf.read_set_hits"] += float64(st.GBuf.ReadSetHits)
			counts["gbuf.conflicts"] += float64(st.GBuf.Conflicts)
			counts["gbuf.validation_fail"] += float64(st.GBuf.ValidationFail)
			counts["gbuf.words_committed"] += float64(st.GBuf.WordsCommitted)
			layer["gbuf.read_set_peak"] = max(layer["gbuf.read_set_peak"], float64(st.ReadSetPeak))
			layer["gbuf.write_set_peak"] = max(layer["gbuf.write_set_peak"], float64(st.WriteSetPeak))
		}
	}
	for name, xs := range perRun {
		layer[name] = median(xs)
	}
	if runs > 0 {
		for name, n := range counts {
			layer[name] = n / float64(runs)
		}
	}
	if execs > 0 {
		layer["core.commit_ratio"] = commits / execs
	}
	layer["core.recycle_us"] = median(recycle)
}

// kernelLegs are the traced run's two extra legs over every kernel: the
// speculative version on 0 speculative CPUs against the sequential one
// (the runtime's overhead alone, which should read about 1.0x), and both
// versions once under Virtual timing, whose predicted speedup is set
// against the measured one so cost-model drift is visible.
func kernelLegs(rigs []*rig, measured float64, o *outcome) error {
	var overhead, predicted []float64
	for _, r := range rigs {
		nospec, err := mutls.New(kernelOptions(r.k, 0, mutls.Real))
		if err != nil {
			return err
		}
		fn := r.runFn(true)
		for i := 0; i < 3; i++ {
			var got uint64
			start := time.Now()
			_, err := nospec.Run(func(t *mutls.Thread) { got = fn(t) })
			r.nospecMs = append(r.nospecMs, ms(time.Since(start)))
			if err == nil && got != r.ref {
				err = fmt.Errorf("%v on 0 CPUs: checksum %#x, reference %#x", r.k, got, r.ref)
			}
			o.check(err)
			nospec.Recycle()
		}
		nospec.Close()
		overhead = append(overhead, median(r.nospecMs)/median(r.seqMs))

		var cost [2]mutls.Cost
		for i, spec := range []bool{false, true} {
			rt, err := mutls.New(kernelOptions(r.k, 1, mutls.Virtual))
			if err != nil {
				return err
			}
			fn := r.runFn(spec)
			var got uint64
			cost[i], err = rt.Run(func(t *mutls.Thread) { got = fn(t) })
			rt.Close()
			if err == nil && got != r.ref {
				err = fmt.Errorf("%v under Virtual timing: checksum %#x, reference %#x", r.k, got, r.ref)
			}
			o.check(err)
		}
		if cost[1] > 0 {
			r.virtualSpeedup = float64(cost[0]) / float64(cost[1])
			predicted = append(predicted, r.virtualSpeedup)
		}
	}
	o.layer["core.nospec_overhead_x"] = geomean(overhead)
	o.layer["vclock.predicted_speedup"] = geomean(predicted)
	if measured > 0 {
		o.layer["vclock.model_error"] = geomean(predicted)/measured - 1
	}
	o.info["kernels"] = kernelInfo(rigs)
	return nil
}
