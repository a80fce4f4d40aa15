# Development entry points; CI (.github/workflows/ci.yml) runs the same
# commands. The repo is stdlib-only: no tool downloads are needed for
# build/test/lint (staticcheck/govulncheck are CI extras).

.PHONY: build test lint fmt fuzz bench alloc-test serve-test leak-test shard-test

build:
	go build ./...

test:
	go test ./...

# The repo's own determinism/hot-path/concurrency analyzers (see
# DESIGN.md, "Determinism invariants & lint rules"; add -json for JSONL).
lint:
	go vet ./...
	go run ./cmd/cbmalint ./...

fmt:
	gofmt -l .

FUZZTIME ?= 20s

fuzz:
	go test ./internal/pn/ -fuzz FuzzGoldBalance -fuzztime $(FUZZTIME) -run '^$$'
	go test ./internal/rx/ -fuzz FuzzFrameSync -fuzztime $(FUZZTIME) -run '^$$'
	go test ./internal/rx/ -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) -run '^$$'
	go test ./internal/serve/core/ -fuzz FuzzDiskStoreEntry -fuzztime $(FUZZTIME) -run '^$$'
	go test ./cmd/cbmad/ -fuzz FuzzSubmitBody -fuzztime $(FUZZTIME) -run '^$$'
	go test ./internal/sim/ -fuzz FuzzTraceReplay -fuzztime $(FUZZTIME) -run '^$$'

bench:
	go test ./internal/sim/ -run '^$$' -bench BenchmarkCampaignFig8a -benchtime 1x

# Steady-state allocation guard (see DESIGN.md, "Execution model"): zero
# allocations in the build and mix stages, a pinned bound per round, and
# pooled-arena reuse equal to fresh arenas. Allocation counts are
# deterministic, so a failure here is a regression, not noise. Runs without
# -race, which perturbs allocation counts.
alloc-test:
	go test -count=1 -run 'TestSteadyRoundAllocs|TestArenaReuseEquivalence|TestFreshArenaEquivalence|TestMetricsGolden' ./internal/sim/

# The campaign-service layers and daemon under the race detector (the
# cbmad e2e equivalence test runs real campaigns; see DESIGN.md,
# "Service architecture").
serve-test:
	go test -race -count=1 ./internal/serve/... ./cmd/cbmad/

# The goroutine-leak accounting CI runs (internal/leaktest is wired into
# every obs/serve/cbmad test package via TestMain).
leak-test:
	go test -race -count=1 -run 'Leak|Close|Drain|Churn|Timer|Daemon|Service' ./internal/obs/... ./internal/serve/... ./cmd/cbmad/

# The sharded coordinator/worker layer under the race detector:
# 1/2/4-shard bit-identical equivalence (including the subprocess wire),
# chaos reassignment, and journaled resume with zero re-execution (see
# DESIGN.md, "Distributed execution & resume").
shard-test:
	go test -race -count=1 ./internal/serve/shard/ ./internal/fault/
