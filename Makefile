# Local mirrors of the CI steps (.github/workflows/ci.yml).
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

# Includes cmd/pinum-serve's process tests (the daemon on 127.0.0.1:0,
# driven with HTTP, SIGHUP and SIGTERM).
race:
	$(GO) test -race ./...

# A build pairs its two optimizer calls when its batch leaves a core idle:
# at -cpu 1 a one-shot build runs them serially, at -cpu 2 on two planners,
# so both sides run on any machine, under the race detector (-short skips
# random6's precise build, ~6 s a build without the detector). Beside them:
# a batch's claim order (largest estimated work first) and a paired
# export's pipeline (call 0 emits while call 1 still plans).
pairing:
	$(GO) test -short -race -cpu 1,2 ./internal/core -run 'PairingRule|BatchClaimsLargestFirst|PairedBuildMatchesSerial|BuildAllSlimWorkersAgree'
	$(GO) test -short -race -cpu 1,2 ./internal/optimizer -run 'WorkspaceReuseBitIdentical|PairedExportEmitsCallZeroFirst|AnalysisSharedByPlanners'

# Whole-system correctness: every reply byte-compared with its golden;
# only the exit status gates (timings are compared in paired local runs).
goldens:
	$(GO) run ./benchmark -workload whatif-wide -seconds 5 -trace 0
	$(GO) run ./benchmark -workload design-batch -seconds 5 -trace 0
	$(GO) run ./benchmark -workload whatif-point -seconds 5 -trace 0
	$(GO) run ./benchmark -workload tenant-churn -seconds 5 -trace 0

shuffle:
	$(GO) test -shuffle=on ./...

# FuzzOptimizeEquivalence's budget is its seed-corpus replay (7–9 s, 60 % of
# it the test-side reference planner) + 10 s, the same figure as ci.yml.
fuzz:
	$(GO) test ./internal/optimizer -run=NONE -fuzz=FuzzOptimizeEquivalence -fuzztime=19s
	$(GO) test ./internal/serve -run=NONE -fuzz=FuzzWhatIfEncode -fuzztime=10s
	$(GO) test ./internal/plancache -run=NONE -fuzz=FuzzSnapshotDecode -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/sql -run=NONE -fuzz=FuzzSQLParse -fuzztime=10s

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The invariant suite: determinism, sealed-cache immutability,
# cost-arithmetic locality, hot-path allocation discipline, directive
# hygiene. `go run ./cmd/pinum-lint -list` describes the analyzers.
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
