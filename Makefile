GO ?= go

.PHONY: check build vet test race crash-enum mutants fuzz-smoke bench bench-all bench-gate bench-e2e bench-claim docs e14 e15 e16 e17

# The full gate: compile everything, check docs and formatting, vet, run the
# test suite under the race detector (the attempt scheduler and fault tests
# exercise real concurrency), crash the coordinator at every journal append,
# hold the hot paths' allocation budgets, run
# every benchmark workload for its exit code (output sha and shuffle bytes
# reproduce; no timing), soak the multi-process cluster runtime against real
# SIGKILLs — of workers (e14) and of the coordinator itself (e15) — and smoke
# the in-node combining experiment (e16) and the resident query service's
# segment cache (e17). The mutation gate runs after the race suite: the
# engine's configuration lattice, or the oracle a patch names (the product
# lattice for the query tables), must kill every patch under scripts/mutants.
# Last, every fuzz target runs for 15 seconds.
check: build docs vet race crash-enum mutants bench-gate bench-e2e e14 e15 e16 e17 fuzz-smoke

# E14: worker-kill soak — a coordinator plus three real worker subprocesses,
# scheduled SIGKILLs mid-map and mid-reduce; the killed run must verify and
# match the fault-free run's payload counters.
e14:
	@sh scripts/e14_soak.sh

# E15: coordinator-kill soak — the coordinator runs as a journaled
# subprocess and is SIGKILLed at three seeded points (mid-commit and twice
# mid-grant); every respawn recovers by journal replay and the killed run
# must verify with payload counters identical to the fault-free run.
e15:
	@sh scripts/e15_soak.sh

# E16: in-node combining smoke — the max query under every key geometry with
# combining off and on; outputs must stay byte-identical, the median query
# must refuse combining (holistic, no monoid), and every workload must show
# a shuffle-byte reduction. Prints the measured table.
e16:
	@$(GO) run ./cmd/expdriver -run e16

# E17: resident-service smoke — start scijob -serve, fire concurrent
# submissions of one query (repeats race the cold run), and assert every
# response is byte-identical to a one-shot run with scikey_cache_hit_total > 0
# on /metrics.
e17:
	@sh scripts/e17_smoke.sh

# The docs gate CI runs: gofmt-clean tree, a package doc comment on every
# package, one-way layering (nothing a query runs through imports
# internal/experiments), and reachability: every non-test declaration under
# cmd/, internal/ and examples/ is reached from some main or init, or listed
# with a reason in scripts/reach/allow.txt.
docs:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo 'gofmt needed'; exit 1; }
	@sh scripts/check_pkgdocs.sh
	@sh scripts/check_layering.sh
	@$(GO) run ./scripts/reach
	@echo docs gate OK

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The coordinator crash enumerator in full: a crash at every append of the
# fault-free run, each left whole, torn and unwritten (N = 37 appends, 111
# rows, ~22 s on 2 vCPUs). `go test` runs one row per record kind and
# variant.
crash-enum:
	$(GO) test -count=1 -run '^TestCoordinatorCrashAtEveryAppend$$' ./internal/clusterd -every-append

# The mutation gate: each patch under scripts/mutants breaks non-test code in
# a way a table one of the two lattices replaced used to catch (engine
# tables, the recovery and decode-once tables among them: TestConfigLattice;
# query tables: the product lattice, TestQueryLattice in internal/queryd), or
# that the grouping-by-words oracle or the predictor's equivalence table
# catch; TestConfigLattice, or the tests a patch's `# test: <regexp>` line
# names (in the package its `# pkg: <path>` line names), must fail on every
# one (~5 min).
mutants:
	@sh scripts/mutants.sh

# The fuzz smoke: each fuzz target for 15 seconds past its seed corpus (which
# plain `go test` runs). The control plane's two targets share one
# structure-aware harness that frames its records with valid CRCs
# (internal/clusterd/fuzz_test.go).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzRoundTrip -fuzztime=15s ./internal/predictor/
	$(GO) test -run='^$$' -fuzz=FuzzEquivalence -fuzztime=15s ./internal/predictor/
	$(GO) test -run='^$$' -fuzz=FuzzReader -fuzztime=15s ./internal/ifile/
	$(GO) test -run='^$$' -fuzz=FuzzRawCompare -fuzztime=15s ./internal/keys/
	$(GO) test -run='^$$' -fuzz=FuzzSpillSortOrder -fuzztime=15s ./internal/mapreduce/
	$(GO) test -run='^$$' -fuzz=FuzzMergeOrder -fuzztime=15s ./internal/mapreduce/
	$(GO) test -run='^$$' -fuzz=FuzzGroupReduceByWords -fuzztime=15s ./internal/mapreduce/
	$(GO) test -run='^$$' -fuzz=FuzzConfigLattice -fuzztime=15s ./internal/mapreduce/
	$(GO) test -run='^$$' -fuzz=FuzzFlushEquivalence -fuzztime=15s ./internal/aggregate/
	$(GO) test -run='^$$' -fuzz=FuzzAggSplitEquivalence -fuzztime=15s ./internal/scihadoop/
	$(GO) test -run='^$$' -fuzz=FuzzWindowIndexEquivalence -fuzztime=15s ./internal/scihadoop/
	$(GO) test -run='^$$' -fuzz=FuzzBoxFlushEquivalence -fuzztime=15s ./internal/boxagg/
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=15s ./internal/netcdf/
	$(GO) test -run='^$$' -fuzz=FuzzBlockRoundTrip -fuzztime=15s ./internal/codec/
	$(GO) test -run='^$$' -fuzz=FuzzWire -fuzztime=15s ./internal/clusterd/
	$(GO) test -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=15s ./internal/clusterd/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSnapshot -fuzztime=15s ./internal/queryd/
	$(GO) test -run='^$$' -fuzz=FuzzQuerySpec -fuzztime=15s ./internal/queryd/

# The shuffle/transform hot-path benchmarks tracked across PRs. Results land
# in BENCH_shuffle.json with the committed baseline's numbers embedded per
# benchmark (speedup_mb_per_s / allocs_ratio > 1 means faster / fewer allocs
# than the baseline).
#
# Re-pin policy: bench_baseline.json moves only in a PR that claims no gain.
# A PR that claims one runs `make bench` against the pinned file, so its
# ratios in BENCH_shuffle.json are the trajectory; re-pinning in the same PR
# would reset them to 1.0 and erase what it claims.
SHUFFLE_BENCH = BenchmarkAggregatorMapPattern|BenchmarkAggKeyPath|BenchmarkTransformSteadyState|BenchmarkWriteSegmentPooled|BenchmarkMapSpillPipeline|BenchmarkSpillSort|BenchmarkMergeSegments|BenchmarkMergeGrid|BenchmarkReducePath|BenchmarkShuffleFetch|BenchmarkSegmentCacheHit|BenchmarkSegmentCacheFill|BenchmarkE4_

bench:
	$(GO) test -run '^$$' -bench '$(SHUFFLE_BENCH)' -benchmem ./... > bench.out
	$(GO) run ./cmd/benchjson -baseline bench_baseline.json < bench.out > BENCH_shuffle.json
	@rm -f bench.out
	@echo wrote BENCH_shuffle.json

# Regression gates: rerun the reduce-path, shuffle-fetch, map-spill and
# segment-cache benchmarks briefly and fail if allocs/op drifts >10% above
# the committed baseline — the fetch path's alloc count is the zero-copy
# guarantee in CI form, the map side's holds the final segment's
# right-sizing copy to one allocation per partition, never one per record,
# a cache hit's holds the snapshot decode in place, never a copy per
# segment, a cache fill's holds encode and store to a fixed handful (its
# bytes, one blob, are TestSegmentCacheCopiesOnce's), and
# the aggregate-key path's holds a one-partition key's routing
# and a flush's lent values to no allocation per record or per layer. The
# steady-state transform additionally holds a loose throughput floor (25% of baseline MB/s):
# wall-clock varies across machines, so the floor only catches a hot path
# collapsing onto a slow reference, not percentage drift.
bench-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkReducePath' -benchmem -benchtime 20x ./internal/mapreduce/ \
		| $(GO) run ./cmd/benchjson -baseline bench_baseline.json -max-allocs-regress 1.10 > /dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkShuffleFetch' -benchmem -benchtime 20x ./internal/shufflenet/ \
		| $(GO) run ./cmd/benchjson -baseline bench_baseline.json -max-allocs-regress 1.10 > /dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkMapSpillPipeline' -benchmem -benchtime 20x ./internal/mapreduce/ \
		| $(GO) run ./cmd/benchjson -baseline bench_baseline.json -max-allocs-regress 1.10 > /dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkSegmentCacheHit|BenchmarkSegmentCacheFill' -benchmem -benchtime 20x ./internal/queryd/ \
		| $(GO) run ./cmd/benchjson -baseline bench_baseline.json -max-allocs-regress 1.10 > /dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkAggKeyPath|BenchmarkAggregatorMapPattern' -benchmem -benchtime 20x ./internal/scihadoop/ \
		| $(GO) run ./cmd/benchjson -baseline bench_baseline.json -max-allocs-regress 1.10 > /dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkTransformSteadyState' -benchmem -benchtime 10x . \
		| $(GO) run ./cmd/benchjson -baseline bench_baseline.json -min-mbps-ratio 0.25 > /dev/null
	$(GO) test -run 'TestCombinedShuffleGateAgg' -count=1 ./internal/experiments/ > /dev/null
	@echo bench gate OK

# The end-to-end benchmark (bench/README.md): every workload BENCHMARK.json
# declares, three seconds each, no per-layer trace. Each run exits non-zero
# unless every query reproduced the verified warm-up's sha and shuffle
# bytes, so this is a does-it-still-run-and-reproduce check; a performance
# claim needs the paired-run rule in bench/README.md, not one pass of this.
E2E_WORKLOADS = oneshot-baseline oneshot-transform oneshot-agg max-combine-tcp cluster3 serve-cold serve-warm

bench-e2e:
	@for w in $(E2E_WORKLOADS); do \
		echo "== $$w"; \
		$(GO) run ./bench -workload $$w -seconds 3 -trace 0 || exit 1; \
	done
	@echo bench e2e OK

# A performance claim in one command: the paired-run rule of bench/README.md
# (scripts/paired) between PARENT and the working tree on one workload —
# PAIRS alternating parent/change pairs of BENCHMARK.json's 10 s runs at SEED.
# Prints one JSON record per end-to-end metric and exits non-zero unless
# METRIC's verdict is "claim met" and both sides printed one output sha.
# About 4 minutes at 10 pairs.
PAIRS ?= 10
SEED ?= 0

bench-claim:
	@test -n "$(PARENT)" && test -n "$(WORKLOAD)" && test -n "$(METRIC)" || \
		{ echo 'usage: make bench-claim PARENT=<commit> WORKLOAD=<workload> METRIC=<metric> [PAIRS=10] [SEED=0]'; exit 2; }
	$(GO) run ./scripts/paired -parent $(PARENT) -workloads $(WORKLOAD) -claim $(METRIC) -pairs $(PAIRS) -seed $(SEED)

# All benchmarks, raw text output.
bench-all:
	$(GO) test -bench=. -benchmem ./...
