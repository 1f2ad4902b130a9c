#!/bin/sh
# Coverage regression gate: measure total statement coverage across every
# package and fail if it drops more than 2 points below the recorded
# baseline. Raise BASELINE when coverage improves durably; never lower it
# to make a PR pass — delete or fix the tests instead.
#
# Usage: scripts/covergate.sh [coverprofile-out]
set -eu

cd "$(dirname "$0")/.."

# Total statement coverage, last raised when go test began running the
# doctor's checks (71.0% before, 75.7% after).
BASELINE=75.7
# Allowed slack below the baseline, in percentage points.
SLACK=2.0

out="${1:-coverage.out}"

echo "== go test -coverprofile $out ./..."
go test -count=1 -coverprofile="$out" ./... > /dev/null

total=$(go tool cover -func="$out" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
floor=$(awk -v b="$BASELINE" -v s="$SLACK" 'BEGIN { printf "%.1f", b - s }')
echo "total coverage: ${total}% (baseline ${BASELINE}%, floor ${floor}%)"

if awk -v t="$total" -v f="$floor" 'BEGIN { exit !(t < f) }'; then
  echo "covergate: coverage ${total}% fell below the ${floor}% floor" >&2
  exit 1
fi
echo "covergate: ok"
