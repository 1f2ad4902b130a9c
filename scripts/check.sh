#!/bin/sh
# Tier-1+ verification gate (see ROADMAP.md): gofmt, vet, build, the full
# test suite under the race detector, vet and tests of the benchmark
# harness (a nested module that the root ./... skips, so an API change
# could break it silently), then short fuzz smokes over the
# input-parsing/lookup surfaces, the cache coherence invariants and the
# fused engine's equivalence to its reference loop (the
# committed corpora under testdata/fuzz run as ordinary tests; this
# additionally explores for 10s each). Fails fast on the first broken
# step.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== benchmark harness: go vet ./... && go test ./... (nested module)"
(cd benchmark && go vet ./... && go test ./...)

echo "== fuzz smoke: dvfs quantization (10s)"
go test ./internal/dvfs -run='^$' -fuzz=FuzzQuantize -fuzztime=10s

echo "== fuzz smoke: workload JSON IR (10s)"
go test ./internal/workload -run='^$' -fuzz=FuzzWorkloadIR -fuzztime=10s

echo "== fuzz smoke: surrogate fitter (10s)"
go test ./internal/surrogate -run='^$' -fuzz=FuzzSurrogateFit -fuzztime=10s

echo "== fuzz smoke: scenario loader (10s)"
go test ./internal/scenario -run='^$' -fuzz=FuzzScenarioLoad -fuzztime=10s

echo "== fuzz smoke: router body decoder (10s)"
go test ./internal/router -run='^$' -fuzz=FuzzNormalizeKey -fuzztime=10s

echo "== fuzz smoke: CSV trace parser (10s)"
go test ./internal/traffic -run='^$' -fuzz=FuzzParseTrace -fuzztime=10s

echo "== fuzz smoke: cache coherence invariants (10s)"
go test ./internal/cache -run='^$' -fuzz=FuzzHierarchyCoherence -fuzztime=10s

echo "== fuzz smoke: fused engine vs reference loop (10s)"
go test ./internal/cmp -run='^$' -fuzz=FuzzEngineEquivalence -fuzztime=10s

echo "check: all gates passed"
