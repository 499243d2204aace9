package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const moduleRoot = "../.."

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workloads and
// metrics in step with what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(moduleRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists %s, which the program does not run", w.Name)
		}
	}
	// spec-trees stays runnable but out of the listed set (README.md).
	if got, want := strings.Join(names, ","), "serve-mixed,spec-loops,vet-module"; got != want {
		t.Errorf("BENCHMARK.json workloads %s, want %s", got, want)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.Name || listed[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.Name, d.Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// runQuick runs a workload for one second with one set-up and returns the
// exit code and the decoded result line.
func runQuick(t *testing.T, workload string, corrupt bool) (int, result) {
	t.Helper()
	root, err := filepath.Abs(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{workload: workload, root: root, seed: 3, seconds: time.Second, setups: 1, corrupt: corrupt}
	var stdout, stderr bytes.Buffer
	code := execute(cfg, t.TempDir(), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstderr: %s", workload, err, stderr.String())
	}
	return code, res
}

func TestCorruptedReferenceFailsTheCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	for _, w := range []string{"spec-trees", "serve-mixed"} {
		code, res := runQuick(t, w, true)
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s with a corrupted reference: exit %d, correct %v, %d of %d failed", w, code, res.Correct, res.Failed, res.Attempted)
		}
		if ok := res.Metrics["ok_rate"].Value; ok >= 1 {
			t.Errorf("%s: ok_rate %v with every reference corrupted", w, ok)
		}
	}
}

func TestCleanRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	code, res := runQuick(t, "spec-trees", false)
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("clean run: exit %d, %+v", code, res)
	}
	for _, d := range endToEnd {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || m.Value <= 0 {
			t.Errorf("%s: %+v (present %v), want a positive value in %s", d.Name, m, ok, d.Unit)
		}
	}
}
