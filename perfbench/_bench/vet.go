package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/analysis/driver"
	"repro/internal/analysis/load"
)

// vetPass is one full mutls-vet pass over the module, as `make vet` runs
// it: a fresh loader, every package, every analyzer (including the
// interprocedural effect index). Packages are named explicitly, in the
// given order, so a seeded order shows the verdict does not depend on it.
type vetPass struct {
	wall, load time.Duration
	packages   int
	findings   int
	timings    []driver.Timing
}

func runVetPass(root string, patterns []string, tr *tracer, op int) (vetPass, []string, error) {
	var p vetPass
	start := time.Now()
	passID := tr.begin(op, 0, "op.vet")
	defer tr.end(passID)
	loadID := tr.begin(op, passID, "load.Loader.Patterns")
	l, err := load.New(root)
	if err != nil {
		return p, nil, err
	}
	pkgs, err := l.Patterns(patterns)
	tr.end(loadID)
	p.load = time.Since(start)
	if err != nil {
		return p, nil, err
	}
	var paths []string
	for _, pkg := range pkgs {
		paths = append(paths, pkg.Path)
		if len(pkg.TypeErrors) > 0 {
			return p, nil, fmt.Errorf("%s: type error: %v", pkg.Path, pkg.TypeErrors[0])
		}
	}
	runID := tr.begin(op, passID, "driver.RunTimed")
	diags, timings, err := driver.RunTimed(pkgs, driver.Analyzers(), false)
	tr.end(runID)
	p.wall = time.Since(start)
	if err != nil {
		return p, nil, err
	}
	p.packages, p.findings, p.timings = len(pkgs), len(diags), timings
	if len(diags) > 0 {
		return p, paths, fmt.Errorf("vet finding: %s (and %d more)", diags[0].Format(l.Fset), len(diags)-1)
	}
	return p, paths, nil
}

// runVetModule repeats full passes over the module. Set-up is one pass
// over "./..." (it also fills the build cache the loader's `go list
// -export` calls read); each timed pass then names the same packages in
// a seeded order and must report zero findings over the same package set.
func runVetModule(cfg config, o *outcome) error {
	var pkgs []string
	setupS, err := repeatSetup(cfg.setups, func() (func(), error) {
		_, paths, err := runVetPass(cfg.root, []string{"./..."}, nil, 0)
		if paths == nil && err != nil {
			return nil, err
		}
		o.check(err)
		if cfg.corrupt {
			paths = paths[1:]
		}
		pkgs = paths
		return func() {}, nil
	})
	if err != nil {
		return err
	}
	o.e2e["setup_s"] = setupS

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x7e7))
	heap := startHeapSampler()
	var untraced, traced []float64
	var tracedPasses []vetPass
	var goc goCounters
	untracedOps := 0
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		order := append([]string(nil), pkgs...)
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		var ptr *tracer
		if cfg.trace && i%2 == 0 {
			ptr = tr
		}
		g0 := readGo()
		p, paths, err := runVetPass(cfg.root, order, ptr, i+1)
		if err == nil && len(paths) != len(pkgs) {
			err = fmt.Errorf("pass loaded %d packages, set-up found %d", len(paths), len(pkgs))
		}
		o.check(err)
		if ptr != nil {
			traced = append(traced, p.wall.Seconds())
			tracedPasses = append(tracedPasses, p)
			continue
		}
		goc.add(readGo().sub(g0))
		untracedOps++
		untraced = append(untraced, p.wall.Seconds())
	}
	o.e2e["heap_peak_mb"] = heap.finish()
	o.info["passes"] = len(untraced) + len(traced)
	o.info["packages"] = len(pkgs)

	// A pass has no sequential reference and runs in a closed loop, so the
	// kernel and latency metrics report the pass itself (README.md).
	passMs := make([]float64, len(untraced))
	for i, s := range untraced {
		passMs[i] = s * 1e3
	}
	o.e2e["vet_s_p50"] = median(untraced)
	o.e2e["speedup"] = 1
	o.e2e["spec_ms_p50"] = median(passMs)
	o.e2e["spec_ms_p90"], _ = percentile(passMs, 90)
	o.e2e["seq_ms_p50"] = median(passMs)
	o.e2e["latency_ms_p50"] = median(passMs)
	o.e2e["latency_ms_p99"], _ = percentile(passMs, 99)
	total := 0.0
	for _, s := range untraced {
		total += s
	}
	if total > 0 {
		o.e2e["max_rps_slo"] = float64(len(untraced)) / total
	}
	if !cfg.trace {
		return nil
	}

	o.spans = tr.snapshot()
	goc.perOp(untracedOps, o.layer)
	perAnalyzer := map[string][]float64{}
	var loadMs []float64
	for _, p := range tracedPasses {
		loadMs = append(loadMs, ms(p.load))
		for _, t := range p.timings {
			perAnalyzer[t.Name] = append(perAnalyzer[t.Name], ms(t.Elapsed))
		}
		o.layer["analysis.packages"] = float64(p.packages)
		o.layer["analysis.findings"] += float64(p.findings) / float64(len(tracedPasses))
	}
	o.layer["analysis.load_ms"] = median(loadMs)
	for name, xs := range perAnalyzer {
		key := "analysis." + name + "_ms"
		if name == "effects-index" {
			key = "analysis.effects_index_ms"
		}
		o.layer[key] = median(xs)
	}
	o.layer["trace.overhead_pct"] = (median(traced)/median(untraced) - 1) * 100
	return nil
}
