# Developer entry points. `make check` is the tier-1+ gate recorded in
# ROADMAP.md: vet, build, and the full test suite under the race detector.

GO ?= go

.PHONY: check build test vet race doctor bench-check cover results results-check fuzz golden serve-smoke router-smoke traffic-smoke surrogate-smoke scenario-smoke

check:
	./scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

doctor: build
	$(GO) run ./cmd/cmppower doctor

# Paired performance gate: time the working tree's layer benchmarks
# against BASE's on this host (scripts/benchgate). The default judges
# uncommitted changes against the last commit.
BASE ?= HEAD
bench-check:
	$(GO) run ./scripts/benchgate $(BASE)

# Coverage regression gate (floor recorded in scripts/covergate.sh).
cover:
	./scripts/covergate.sh

# Rewrite results/ on purpose after a deliberate output change
# (`cmppower all -scale 1.0`); review the diff before committing.
results: build
	$(GO) run ./cmd/cmppower all -scale 1.0 -out results

# Regenerate every results/ artifact (`cmppower all -scale 1.0`) into a
# temporary directory and require it byte-identical to the committed
# results/.
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/cmppower" ./cmd/cmppower && \
	"$$tmp/cmppower" all -scale 1.0 -out "$$tmp/results" && \
	diff -r results "$$tmp/results" && echo "results/ regenerated byte-identical"

# End-to-end smoke of the HTTP serving layer: boot, cached + uncached
# load in strict mode, metrics scrape, clean SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end smoke of the fleet router: 3 shards with chaos kills and
# respawns mid-run, byte identity vs a direct serve, strict load, clean
# SIGTERM drain.
router-smoke:
	./scripts/router_smoke.sh

# End-to-end smoke of the surrogate fast path: warm a fit over live HTTP
# traffic, then assert surrogate-mode requests are served from the model
# with zero bound violations and exact mode stays byte-identical.
surrogate-smoke:
	./scripts/surrogate_smoke.sh

# End-to-end smoke of the scenario IR: baseline scenario byte-identical
# to the flagless figures at -j 1/4/16, bad specs rejected with exit 1,
# serve round-tripping the chip digest.
scenario-smoke:
	./scripts/scenario_smoke.sh

# End-to-end smoke of the traffic language: deterministic plan replay,
# the 3-client example spec played strictly through a 2-shard router
# fleet with the achieved rate within 10% of target, and per-SLO-class
# metrics visible on the router and forwarded to the shards.
traffic-smoke:
	./scripts/traffic_smoke.sh

# Longer fuzz exploration than the 10s smokes inside `make check`.
FUZZTIME ?= 2m
fuzz:
	$(GO) test ./internal/dvfs -run='^$$' -fuzz=FuzzQuantize -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/workload -run='^$$' -fuzz=FuzzWorkloadIR -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/surrogate -run='^$$' -fuzz=FuzzSurrogateFit -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/scenario -run='^$$' -fuzz=FuzzScenarioLoad -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/router -run='^$$' -fuzz=FuzzNormalizeKey -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/traffic -run='^$$' -fuzz=FuzzParseTrace -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cache -run='^$$' -fuzz=FuzzHierarchyCoherence -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cmp -run='^$$' -fuzz=FuzzEngineEquivalence -fuzztime=$(FUZZTIME)

# Rewrite the CLI golden files after a deliberate output change; review
# the testdata/golden diff before committing.
golden:
	$(GO) test ./cmd/cmppower -run TestGolden -update
