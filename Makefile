# Build and verification targets for the cluster-server reproduction.

GO ?= go

.PHONY: all build test check race chaos fmt vet bench cover fuzz profile lines archive

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

# check is the tier-1 gate: formatting, static analysis, a full build and
# the whole test suite (which includes the exact event/message/gossip
# counts of the N x F scale grid, TestScaleGridCounts).
check: fmt vet build test

# race exercises the deterministic sweep runner and the simulator under the
# race detector — the parallel-equals-sequential guarantee is only as good
# as its synchronization — plus the pooled simulation core, the live
# native cluster (gossip, failure detection, hand-off retry), the policies,
# the chunk helper and its chunked passes in the shot-noise synthesizer
# (times and bucket sort) and the Zipf table (their determinism tests
# switch GOMAXPROCS), the obs instruments (every native node hits the
# Registry's counters concurrently) and, under -short, the trace
# generator's chunked calibration fill (the 200 000-file case of
# TestSolveBetaMatchesSerialReference, ~40 s under the detector — nearly
# all of it the serial math.Pow reference — starts no goroutine the small
# ones do not) and the server (TestScaleGridCounts keeps its F=10^4 column
# and skips the 10^6- and 10^7-file traces).
race:
	$(GO) test -race ./internal/sim/... ./internal/cache/... ./internal/netsim/... ./internal/runner/... ./internal/native/... ./internal/policy/... ./internal/chunk/... ./internal/shotnoise/... ./internal/zipf/... ./internal/obs/...
	$(GO) test -race -short ./internal/trace/... ./internal/server/...

# chaos runs the fault-injection tests (node kill mid-replay, seeded gossip
# drop/delay/duplicate, crash recovery) under the race detector, twice.
chaos:
	$(GO) test -race -count=2 -run 'TestChaos' ./internal/native/...

# lines prints the module's line count of non-test Go: the measure the
# project's code-size budget is counted in.
lines:
	@git ls-files '*.go' | grep -v _test.go | xargs cat | wc -l

# bench runs the repo benchmark (BENCHMARK.json): six workloads, end-to-end
# and per-layer metrics; see bench/README.md for -workload, -seed, -compare.
bench:
	$(GO) run ./bench

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
COVER_PKGS = ./internal/cache ./internal/chunk ./internal/cluster ./internal/core \
             ./internal/experiments ./internal/native \
             ./internal/netsim ./internal/obs ./internal/policy \
             ./internal/queuemodel ./internal/runner ./internal/server \
             ./internal/shotnoise ./internal/sim ./internal/spec \
             ./internal/stats ./internal/trace ./internal/zipf

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
	$(GO) test -run=^$$ -fuzz=FuzzRankPow -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzSolveBeta -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzHandoffFrame -fuzztime=$(FUZZTIME) ./internal/native
	$(GO) test -run=^$$ -fuzz=FuzzSortByTime -fuzztime=$(FUZZTIME) ./internal/shotnoise
	$(GO) test -run=^$$ -fuzz=FuzzSeriesRoundTrip -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run=^$$ -fuzz=FuzzCalendarOrder -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzLRUAgainstList -fuzztime=$(FUZZTIME) ./internal/cache
	$(GO) test -run=^$$ -fuzz=FuzzFileSets -fuzztime=$(FUZZTIME) ./internal/policy

# archive rewrites the experiments archives: the default experiments pass,
# then the churn and flash studies, all at -scale 0.05 (~13 s on 2 vCPUs),
# and the default pass at -scale 0.2 (~50 s), the scale EXPERIMENTS.md
# reports. The output does not depend on -workers or GOMAXPROCS; CI
# regenerates both and fails on any byte that differs from the committed
# files, so a change that moves a number commits the new files and says why.
ARCHIVE = results/experiments-scale0.05.txt
ARCHIVE_FULL = results/experiments-scale0.2.txt

archive:
	{ $(GO) run ./cmd/experiments -scale 0.05 && \
	  $(GO) run ./cmd/experiments -scale 0.05 -only churn && \
	  $(GO) run ./cmd/experiments -scale 0.05 -only flash; } > $(ARCHIVE).tmp
	$(GO) run ./cmd/experiments -scale 0.2 > $(ARCHIVE_FULL).tmp
	mv $(ARCHIVE).tmp $(ARCHIVE)
	mv $(ARCHIVE_FULL).tmp $(ARCHIVE_FULL)
