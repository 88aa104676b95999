# Build and verification targets for the cluster-server reproduction.

GO ?= go

.PHONY: all build test check race chaos fmt vet bench bench-hot bench-json bench-check bench-scale bench-scale-headline bench-scale-check bench-scale-counts cover fuzz profile

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# check is the tier-1 gate: formatting, static analysis, a full build, the
# whole test suite, the hot-path performance floor, and the N x F scaling
# floor.
check: fmt vet build test bench-check bench-scale-check

# race exercises the deterministic sweep runner and the simulator under the
# race detector — the parallel-equals-sequential guarantee is only as good
# as its synchronization — plus the pooled simulation core, the live
# native cluster (gossip, failure detection, hand-off retry), the policies
# and the shot-noise synthesizer (their determinism tests switch GOMAXPROCS)
# and the trace generator's chunked calibration fill (-short: the
# 200 000-file reference case takes 40 s under the detector and starts no
# goroutine the small ones do not).
race:
	$(GO) test -race ./internal/sim/... ./internal/cache/... ./internal/netsim/... ./internal/runner/... ./internal/server/... ./internal/native/... ./internal/policy/... ./internal/shotnoise/...
	$(GO) test -race -short ./internal/trace/...

# chaos runs the fault-injection tests (node kill mid-replay, seeded gossip
# drop/delay/duplicate, crash recovery) under the race detector, twice.
chaos:
	$(GO) test -race -count=2 -run 'TestChaos' ./internal/native/...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# bench-hot runs the allocation-tracked hot-path microbenchmarks (event
# calendar, FCFS resource, LRU, end-to-end server.Run) at full benchtime.
bench-hot:
	$(GO) test ./internal/perf -bench=. -run=^$$

# bench-json regenerates the committed hot-path baseline that future
# performance PRs diff against, and records the same measurement as a
# labeled point in the BENCH_hotpath.json trajectory.
BENCH_LABEL ?= HEAD

bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_simcore.json -hotpath BENCH_hotpath.json -label $(BENCH_LABEL)

# bench-check reruns the suite and fails if any benchmark's ns/op regressed
# more than 10% against the committed baseline.
bench-check:
	$(GO) run ./cmd/benchjson -compare BENCH_simcore.json

# bench-scale regenerates the committed scaling baseline: full L2S cluster
# runs over the N x F grid (N up to 1024, catalogs up to 10^7 files),
# recording ns/request, peak heap bytes per node, and the deterministic
# event/message counts. The flagship N=1024, F=10^7, 10^8-request point is
# only rerun by bench-scale-headline (it takes ~20 minutes); plain
# bench-scale carries the committed headline entry forward.
bench-scale:
	$(GO) run ./cmd/benchjson -scale BENCH_scale.json

bench-scale-headline:
	$(GO) run ./cmd/benchjson -scale BENCH_scale.json -headline

# bench-scale-check reruns the grid (never the headline) and fails on a
# >25% ns/request or bytes/node regression at any point — or on ANY change
# in the deterministic event/message counts, which catches complexity
# regressions wall-clock noise would hide.
bench-scale-check:
	$(GO) run ./cmd/benchjson -scale-compare BENCH_scale.json

# bench-scale-counts reruns the grid and fails on ANY change in the
# deterministic event/message/gossip counts, skipping the ns/request and
# bytes/node tolerances entirely: it is noise-free and safe to run as a
# blocking CI gate on shared hardware where wall-clock checks flake.
bench-scale-counts:
	$(GO) run ./cmd/benchjson -scale-compare BENCH_scale.json -counts-only

# profile captures pprof CPU and heap profiles of a representative
# large-cluster run (N=1024 L2S over the clarknet workload): the input the
# hot-path optimization passes are tuned against. Inspect with
# `go tool pprof cpu.prof`.
profile: build
	$(GO) run ./cmd/clustersim -system l2s -trace clarknet -nodes 1024 -scale 1 \
		-cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	@echo "profile: wrote cpu.prof and mem.prof"

# cover enforces a per-package statement-coverage floor on the model and
# infrastructure packages (commands are exercised end to end, not unit by
# unit, so they are exempt).
COVER_MIN ?= 60
COVER_PKGS = ./internal/cache ./internal/core ./internal/fastmap \
             ./internal/netsim ./internal/obs \
             ./internal/queuemodel ./internal/runner ./internal/server \
             ./internal/shotnoise ./internal/sim ./internal/stats \
             ./internal/trace ./internal/zipf

# The shot-noise synthesizer and its analytic miss model are the conformance
# anchors of the non-stationary studies: they carry a stricter per-file
# statement floor, computed from the merged profile.
COVER_STRICT_MIN ?= 90

cover:
	@$(GO) test -coverprofile=cover.out $(COVER_PKGS) | tee cover.txt
	@awk -v min=$(COVER_MIN) ' \
		/coverage:/ { \
			pct = $$0; sub(/.*coverage: /, "", pct); sub(/%.*/, "", pct); \
			if (pct + 0 < min) { printf "FAIL: %s below %s%% floor\n", $$2, min; bad = 1 } \
		} \
		END { exit bad }' cover.txt
	@echo "cover: every package at or above $(COVER_MIN)%"
	@awk -v min=$(COVER_STRICT_MIN) ' \
		NR > 1 { \
			split($$1, a, ":"); f = a[1]; \
			if (f ~ /internal\/shotnoise\// || f ~ /internal\/queuemodel\/shotnoise\.go/) { \
				total[f] += $$2; if ($$3 > 0) cov[f] += $$2 } \
		} \
		END { \
			if (length(total) == 0) { print "FAIL: no shot-noise files in profile"; exit 1 } \
			for (f in total) { pct = 100 * cov[f] / total[f]; \
				printf "cover: %-45s %.1f%% (floor %s%%)\n", f, pct, min; \
				if (pct < min) { printf "FAIL: %s below %s%% floor\n", f, min; bad = 1 } } \
			exit bad }' cover.out

# fuzz gives each fuzz target a short budget on top of its checked-in seed
# corpus; crashers land in testdata/fuzz/ as regression tests.
FUZZTIME ?= 5s

fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParseCLFLine -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzRead -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzSolveFiles -fuzztime=$(FUZZTIME) ./internal/zipf
	$(GO) test -run=^$$ -fuzz=FuzzParseProfiles -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run=^$$ -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/policy
	$(GO) test -run=^$$ -fuzz=FuzzParseGenSpec -fuzztime=$(FUZZTIME) ./internal/trace
