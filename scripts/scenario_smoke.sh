#!/usr/bin/env bash
# Scenario-smoke gate: the declarative chip IR's three end-to-end
# promises. (1) The checked-in baseline scenario reproduces the legacy
# flagless fig3/fig4/explore outputs byte for byte, at -j 1, 4, and 16.
# (2) A running serve accepts a scenario in the request "chip" field and
# round-trips the file's content digest in the response. (3) Every spec
# under examples/scenarios/bad is rejected with exit 1, and `scenario
# validate` accepts every good example. (4) fig3 with DTM on the big/little
# scenario is byte-identical at -j 1 and -j 4, and fig4 with DTM on it,
# whose rows run concurrently, at -j 1, 2 and 4. (5) serve refuses a chip
# body whose DVFS ladder is too long with HTTP 400.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT=${PORT:-18086}
BASE="http://127.0.0.1:$PORT"
BASELINE=examples/scenarios/baseline-2005.json

WORKDIR=$(mktemp -d)
BIN="$WORKDIR/cmppower"
cleanup() {
  [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/cmppower

echo "== scenario validate: every good example accepted =="
"$BIN" scenario validate examples/scenarios/*.json

echo "== scenario validate: every bad example rejected with exit 1 =="
for f in examples/scenarios/bad/*.json; do
  if "$BIN" scenario validate "$f" 2>/dev/null; then
    echo "accepted invalid scenario $f" >&2
    exit 1
  fi
done

echo "== baseline scenario is byte-identical to the flagless run, every -j =="
"$BIN" fig3 -apps FFT,LU -scale 0.05 > "$WORKDIR/fig3.ref.txt"
"$BIN" fig4 -apps Radix -scale 0.05 > "$WORKDIR/fig4.ref.txt"
"$BIN" explore -apps FFT -scale 0.05 > "$WORKDIR/explore.ref.txt"
for j in 1 4 16; do
  "$BIN" fig3 -apps FFT,LU -scale 0.05 -j "$j" -scenario "$BASELINE" > "$WORKDIR/fig3.j$j.txt"
  cmp "$WORKDIR/fig3.ref.txt" "$WORKDIR/fig3.j$j.txt" || {
    echo "fig3 -scenario baseline -j $j differs from the flagless run" >&2; exit 1; }
  "$BIN" fig4 -apps Radix -scale 0.05 -j "$j" -scenario "$BASELINE" > "$WORKDIR/fig4.j$j.txt"
  cmp "$WORKDIR/fig4.ref.txt" "$WORKDIR/fig4.j$j.txt" || {
    echo "fig4 -scenario baseline -j $j differs from the flagless run" >&2; exit 1; }
  "$BIN" explore -apps FFT -scale 0.05 -j "$j" -scenario "$BASELINE" > "$WORKDIR/explore.j$j.txt"
  cmp "$WORKDIR/explore.ref.txt" "$WORKDIR/explore.j$j.txt" || {
    echo "explore -scenario baseline -j $j differs from the flagless run" >&2; exit 1; }
done

echo "== non-baseline scenarios run end to end and hash distinctly =="
"$BIN" fig3 -apps FFT -scale 0.02 -scenario examples/scenarios/biglittle.json > /dev/null
"$BIN" fig3 -apps FFT -scale 0.02 -scenario examples/scenarios/3dstack.json > /dev/null
"$BIN" fig3 -apps FFT -scale 0.02 -scenario examples/scenarios/manycore128.json > /dev/null

echo "== DTM on a multi-domain chip is byte-identical across -j (fig3 at 1, 4; fig4 at 1, 2, 4) =="
"$BIN" fig3 -apps FFT -scale 0.02 -dtm -scenario examples/scenarios/biglittle.json -j 1 > "$WORKDIR/fig3.dtm.j1.txt"
"$BIN" fig3 -apps FFT -scale 0.02 -dtm -scenario examples/scenarios/biglittle.json -j 4 > "$WORKDIR/fig3.dtm.j4.txt"
cmp "$WORKDIR/fig3.dtm.j1.txt" "$WORKDIR/fig3.dtm.j4.txt" || {
  echo "fig3 -dtm -scenario biglittle differs between -j 1 and -j 4" >&2; exit 1; }
for j in 1 2 4; do
  "$BIN" fig4 -apps Cholesky,FMM,Radix -scale 0.05 -dtm -scenario examples/scenarios/biglittle.json -j "$j" \
    > "$WORKDIR/fig4.dtm.j$j.txt"
  cmp "$WORKDIR/fig4.dtm.j1.txt" "$WORKDIR/fig4.dtm.j$j.txt" || {
    echo "fig4 -dtm -scenario biglittle differs between -j 1 and -j $j" >&2; exit 1; }
done

DIGESTS=$("$BIN" scenario digest examples/scenarios/*.json | awk '{print $1}')
[ "$(echo "$DIGESTS" | sort -u | wc -l)" -eq "$(echo "$DIGESTS" | wc -l)" ] || {
  echo "two example scenarios share a digest" >&2; exit 1; }

echo "== serve accepts a chip scenario body and round-trips its digest =="
"$BIN" serve -addr "127.0.0.1:$PORT" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  curl -fsS "$BASE/readyz" >/dev/null 2>&1 && break
  kill -0 "$SERVE_PID" 2>/dev/null || { echo "serve exited early" >&2; exit 1; }
  sleep 0.1
done

CHIP=examples/scenarios/65nm-quantized.json
WANT=$("$BIN" scenario digest "$CHIP" | awk '{print $1}')
BODY="{\"app\":\"FFT\",\"n\":2,\"scale\":0.05,\"chip\":$(cat "$CHIP")}"
curl -fsS -X POST -d "$BODY" "$BASE/v1/run" > "$WORKDIR/run.json"
grep -q "\"chip_digest\":\"$WANT\"" "$WORKDIR/run.json" || {
  echo "serve did not round-trip chip digest $WANT:" >&2
  cat "$WORKDIR/run.json" >&2
  exit 1
}

# An invalid chip body is a client error, not a crash.
STATUS=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -d '{"app":"FFT","n":2,"chip":{"name":"bad","chip":{"total_cores":999}}}' "$BASE/v1/run")
[ "$STATUS" = "400" ] || { echo "invalid chip body got HTTP $STATUS, want 400" >&2; exit 1; }

# A ladder too long to build is refused before any rig is built.
STATUS=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -d '{"app":"FFT","n":2,"chip":{"name":"fine","dvfs":{"ladder_step_mhz":1e-6}}}' "$BASE/v1/run")
[ "$STATUS" = "400" ] || { echo "tiny ladder_step_mhz chip body got HTTP $STATUS, want 400" >&2; exit 1; }

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=

echo "scenario-smoke: OK"
