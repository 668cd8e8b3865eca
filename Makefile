# The CI steps (.github/workflows/ci.yml runs these recipes, bar the two
# fetched checkers of `make static`).
#
#   make check   — everything CI runs that works offline, in CI's order
#   make lint    — the pinum-lint invariant suite alone
#   make static  — staticcheck + govulncheck (fetched at run time: network)

GO ?= go

.PHONY: build test race pairing goldens shuffle fuzz bench lint static fmt vet check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Includes cmd/pinum-serve's process tests: the daemon is built, executed
# on 127.0.0.1:0 and driven with HTTP, SIGHUP and SIGTERM.
# internal/optimizer alone takes about 5.5 minutes (327 s) under the race
# detector on a 2-vCPU machine, too close to go's default 10-minute test
# timeout on a slower runner, hence the explicit one.
race:
	$(GO) test -race -timeout 20m ./...

# A build pairs its two optimizer calls when its batch leaves a core idle:
# at -cpu 1 a one-shot build runs them serially, at -cpu 2 on two planners
# at once, so both sides run under the race detector whatever the machine's
# width (-short skips random6's precise build, ~6 s a build without the
# detector). Beside them: a batch's claim order (largest estimated work
# first) and a paired export's pipeline (call 0 emits while call 1 still
# plans).
pairing:
	$(GO) test -short -race -cpu 1,2 ./internal/core -run 'PairingRule|BatchClaimsLargestFirst|PairedBuildMatchesSerial|BuildAllSlimWorkersAgree'
	$(GO) test -short -race -cpu 1,2 ./internal/optimizer -run 'WorkspaceReuseBitIdentical|PairedExportEmitsCallZeroFirst|AnalysisSharedByPlanners'

# Whole-system correctness: every reply of the workloads that cover the
# pricing path (/whatif over 200 queries; build, /recommend and /explain)
# and the reply encoder (whatif-point: ad-hoc specs, weighted totals, 1 KB
# bodies — where an encoder edge case would first show) is byte-compared
# with its independently built golden, and any mismatch is a non-zero
# exit; tenant-churn does the same for the store path (cold loads from
# snapshot files, evictions, forced and incremental reloads) and checks
# that cold loads minus evictions is the resident count. Only the exit
# status gates: timings on CI runners are not compared (paired local runs
# do that).
goldens:
	$(GO) run ./benchmark -workload whatif-wide -seconds 5 -trace 0
	$(GO) run ./benchmark -workload design-batch -seconds 5 -trace 0
	$(GO) run ./benchmark -workload whatif-point -seconds 5 -trace 0
	$(GO) run ./benchmark -workload tenant-churn -seconds 5 -trace 0

# Shuffled test order: any hidden inter-test dependency (shared state,
# ordering assumptions) fails loudly instead of silently passing in
# declaration order.
shuffle:
	$(GO) test -shuffle=on ./...

# Short native-fuzz smokes; every seed corpus also runs under `go test`.
# FuzzOptimizeEquivalence lets the mutator explore shapes, options and
# configurations; its budget is the seed-corpus replay plus ten seconds
# (the replay, 60 % of it the test-side reference planner on the dense
# six-relation entries, takes 7–9 s under coverage instrumentation on a
# 2-vCPU machine). The others: the /whatif reply encoder against its
# encoding/json reference (serve.EncodeJSON); the snapshot decoder — the
# bytes a cold load reads from disk — with a short minimize budget (the
# default spends the whole smoke shrinking one 8 KB input); the SQL parser
# /explain reads off the wire (parse → String → parse is a fixpoint);
# /whatif's whole handler on arbitrary body bytes (never a 500, every 200
# the in-process WhatIf's reply); and the compute body scanner against
# encoding/json, its reference (the same verdict and value on every body,
# bar a repeated key). Every target runs even when an earlier one fails;
# the recipe fails at the end if any did.
fuzz:
	status=0; \
	$(GO) test ./internal/optimizer -run=NONE -fuzz=FuzzOptimizeEquivalence -fuzztime=19s || status=1; \
	$(GO) test ./internal/serve -run=NONE -fuzz=FuzzWhatIfEncode -fuzztime=10s || status=1; \
	$(GO) test ./internal/serve -run=NONE -fuzz=FuzzWhatIfBody -fuzztime=10s || status=1; \
	$(GO) test ./internal/plancache -run=NONE -fuzz=FuzzSnapshotDecode -fuzztime=10s -fuzzminimizetime=1s || status=1; \
	$(GO) test ./internal/sql -run=NONE -fuzz=FuzzSQLParse -fuzztime=10s || status=1; \
	$(GO) test ./internal/serve -run=NONE -fuzz=FuzzComputeBodyDecode -fuzztime=10s || status=1; \
	exit $$status

# Compile and execute every benchmark once (the paper's experiments and
# ablations, the obs/serve micro-benchmarks) so none can silently rot: a
# panic or regression to an error return fails the run.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The invariant suite (internal/lint): determinism of result-affecting
# packages, sealed-cache immutability, cost-arithmetic locality, hot-path
# allocation discipline, and //pinum: directive hygiene. Exits non-zero on
# any finding; every intentional exception in the tree carries a justified
# directive. `go run ./cmd/pinum-lint -list` describes the analyzers.
lint:
	$(GO) run ./cmd/pinum-lint ./...

# Third-party checkers, fetched at run time (this module has no
# dependencies of its own); requires network, so CI-only by default.
static:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@latest -checks SA ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

check: fmt vet build lint race pairing goldens shuffle fuzz bench
