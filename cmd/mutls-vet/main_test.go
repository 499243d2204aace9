package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runVet drives the command in-process and returns its exit code and
// output streams.
func runVet(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestListNamesEveryAnalyzer(t *testing.T) {
	code, out, stderr := runVet("-list")
	if code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr)
	}
	for _, name := range []string{"specaccess", "specpure", "pollcheck", "pointleak", "leaseleak", "atomicmix"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output misses %s:\n%s", name, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 6 {
		t.Errorf("-list printed %d lines, want 6:\n%s", lines, out)
	}
}

// TestVettoolProtocolIsUsageError: the command is not a go vet tool, so the
// protocol's handshake flags and a trailing per-package .cfg file fail with
// exit status 2 rather than reporting a clean run.
func TestVettoolProtocolIsUsageError(t *testing.T) {
	// A well-formed facts-only unit: a vet tool would accept it and exit 0.
	cfg := filepath.Join(t.TempDir(), "x.cfg")
	if err := os.WriteFile(cfg, []byte(`{"ImportPath":"x","VetxOnly":true}`), 0o666); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-V=full"}, {"-flags"}, {cfg}} {
		if code, out, _ := runVet(args...); code != 2 {
			t.Errorf("mutls-vet %v exited %d, want 2 (stdout %q)", args, code, out)
		}
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	code, _, stderr := runVet("-run", "nosuch")
	if code != 2 || !strings.Contains(stderr, "nosuch") {
		t.Fatalf("-run nosuch exited %d (stderr %q), want 2 naming the analyzer", code, stderr)
	}
}
