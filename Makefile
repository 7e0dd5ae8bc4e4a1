GO ?= go

# Samples per benchmark group for `make bench` — each sample is one
# fresh `go test` process. 5 is the smallest count where benchdiff's
# Mann-Whitney gate can flag wall-clock metrics at alpha 0.05 with
# headroom; drop to 3 for a quick advisory run.
BENCH_COUNT ?= 5

# Base commit for `make benchdiff` (compare HEAD against this).
BASE ?= HEAD~1


.PHONY: build test race bench bench-headline bench-pair figures-pair benchdiff baselines fmt vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench regenerates BENCH_simulator.json (schema lpbuf/bench/v2): the
# Figure 7 benchmarks, the simulator throughput benches
# (SimulatorThroughput, SimsPerSec and SimsPerSecPMU, which alternates
# sampled and unsampled sweeps) and the
# per-layer Interp and ModuloHeuristic benches, each
# sampled in BENCH_COUNT fresh processes so in-process caches cannot
# flatter the numbers and benchdiff gets real per-metric variance.
bench:
	$(GO) run ./cmd/benchjson -benchtime 1x -count $(BENCH_COUNT) -out BENCH_simulator.json

# bench-headline additionally covers every paper figure (slower).
bench-headline:
	$(GO) run ./cmd/benchjson -benchtime 1x -count $(BENCH_COUNT) -out BENCH_simulator.json \
		-bench 'BenchmarkFigure7Traditional|BenchmarkFigure7Aggressive,BenchmarkFigure8a|BenchmarkFigure8b|BenchmarkFigure3|BenchmarkFigure5|BenchmarkHeadline,BenchmarkSimulatorThroughput,BenchmarkSimsPerSec|BenchmarkSimsPerSecPMU,BenchmarkInterp,BenchmarkModuloHeuristic'

# bench-pair benchmarks BASE (default HEAD~1) in a detached worktree
# and then the current tree, writing bench-old.json and bench-new.json.
# Today's harness binary is used for both sides, so the two artifacts
# always share one schema and one set of benchmark groups, and both run
# on this host. CI's perf-gate runs it against the pull request's base.
bench-pair:
	@rm -rf .benchdiff-base
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) build -o bin/benchdiff ./cmd/benchdiff
	git worktree add --detach .benchdiff-base $(BASE)
	cd .benchdiff-base && ../bin/benchjson -benchtime 1x -count $(BENCH_COUNT) -out ../bench-old.json; \
	status=$$?; cd ..; git worktree remove --force .benchdiff-base; \
	exit $$status
	./bin/benchjson -benchtime 1x -count $(BENCH_COUNT) -out bench-new.json

# figures-pair builds lpbuf at BASE (default HEAD~1) in a detached
# worktree and at the current tree, runs -all with each into
# figures-old.txt and figures-new.txt, and fails unless the two are
# byte-identical. CI's perf-gate runs it against the pull request's
# base; a change that moves a figure on purpose re-records baselines/.
figures-pair:
	@rm -rf .figures-base
	@mkdir -p bin
	git worktree add --detach .figures-base $(BASE)
	cd .figures-base && $(GO) build -o ../bin/lpbuf-base ./cmd/lpbuf; \
	status=$$?; cd ..; git worktree remove --force .figures-base; \
	exit $$status
	$(GO) build -o bin/lpbuf ./cmd/lpbuf
	./bin/lpbuf-base -all > figures-old.txt
	./bin/lpbuf -all > figures-new.txt
	cmp figures-old.txt figures-new.txt

# benchdiff runs bench-pair and the statistical comparison, ratio rows
# included; since both sides ran on this host, wall-clock rows gate too.
# Usage: make benchdiff [BASE=v1.2] [BENCH_COUNT=5]
benchdiff: bench-pair
	./bin/benchdiff bench-old.json bench-new.json

# baselines regenerates the golden sim-stat document after an
# intentional functional change (then commit the file).
baselines:
	$(GO) run ./cmd/benchdiff -update-baselines

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...
