# Build and verification entry points. CI runs `make vet`; run it
# locally before pushing — it is the consolidated static gate (gofmt,
# go vet, mutls-vet, and staticcheck when installed).

GO ?= go
# Pinned staticcheck version: CI and developers must agree on the
# checker vocabulary or the gate flaps across versions.
STATICCHECK_VERSION ?= 2023.1.7

.PHONY: all build test race vet vet-fast fmt mutls-vet staticcheck bench-smoke chaos loc

# Seed for the deterministic fault-injection sweep; override to replay a
# failing CI run: `make chaos CHAOS_SEED=<seed from the log>`.
CHAOS_SEED ?= 7

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet is the consolidated static-analysis gate:
#   1. gofmt       — formatting drift fails the build
#   2. go vet      — the standard suite
#   3. mutls-vet   — the speculation-contract analyzers (internal/analysis)
#   4. staticcheck — only when present at the pinned version (the CI
#      container has no network; the gate must not depend on go install)
vet: fmt
	$(GO) vet ./...
	$(GO) run ./cmd/mutls-vet -timing ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ($$(staticcheck -version 2>/dev/null | head -n1), pinned: $(STATICCHECK_VERSION))"; \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (pin: $(STATICCHECK_VERSION) — go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

# vet-fast skips the interprocedural analyzers (no whole-module effect
# index): the per-package subset for tight edit loops. CI runs full vet.
vet-fast: fmt
	$(GO) vet ./...
	$(GO) run ./cmd/mutls-vet -fast ./...

# mutls-vet alone (text findings; see also -json and -run <analyzer>).
mutls-vet:
	$(GO) run ./cmd/mutls-vet ./...

staticcheck:
	staticcheck ./...

bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# chaos is the fault-injection smoke: seeded storms over the quick kernel
# subset under the race detector, asserting checksum equivalence, typed
# containment and zero goroutine leaks. Fully reproducible from the seed.
chaos:
	$(GO) run -race ./cmd/mutls-bench -chaos -quick -seed $(CHAOS_SEED)

# loc prints the non-test Go line count that deletion work is measured
# by: tracked .go files minus _test.go files, testdata and perfbench/.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '/testdata/' -e '^testdata/' -e '^perfbench/' | \
		xargs cat | wc -l
