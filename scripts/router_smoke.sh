#!/usr/bin/env bash
# Router-smoke gate: boot a plain `cmppower serve` as the byte-identity
# reference and a 3-shard `cmppower router` fleet with chaos killing and
# respawning shards underneath it, then require (1) router responses
# byte-identical to the reference while shards die mid-run, (2) every
# shard's own /fleet URL answering directly with the routed bytes, (3)
# strict loadgen passes on cached and uncached paths through the fleet,
# (4) the routing / chaos counters on the router's /metrics prove the
# faults actually fired, and (5) a clean SIGTERM drain of the whole fleet.
set -euo pipefail
cd "$(dirname "$0")/.."

DUR=${DUR:-8s}
PORT=${PORT:-18070}
REF_PORT=${REF_PORT:-18071}
BASE="http://127.0.0.1:$PORT"
REF="http://127.0.0.1:$REF_PORT"
BODY='{"app":"FFT","n":4}'

WORKDIR=$(mktemp -d)
BIN="$WORKDIR/cmppower"
cleanup() {
  [ -n "${ROUTER_PID:-}" ] && kill "$ROUTER_PID" 2>/dev/null || true
  [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/cmppower

"$BIN" serve -addr "127.0.0.1:$REF_PORT" &
SERVE_PID=$!
# Chaos kills a shard roughly every 2s and respawns it after 1s, so
# several shard losses land inside the load window below.
"$BIN" router -addr "127.0.0.1:$PORT" -shards 3 \
  -chaos "kill-period=2,kill-down=1,seed=7" &
ROUTER_PID=$!

for url in "$REF" "$BASE"; do
  for _ in $(seq 1 100); do
    curl -fsS "$url/readyz" >/dev/null 2>&1 && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "serve exited early" >&2; exit 1; }
    kill -0 "$ROUTER_PID" 2>/dev/null || { echo "router exited early" >&2; exit 1; }
    sleep 0.1
  done
done
curl -fsS "$BASE/healthz" >/dev/null

echo "== byte identity vs direct serve, with shards dying mid-run =="
curl -fsS -X POST -H 'Content-Type: application/json' -d "$BODY" \
  "$REF/v1/run" > "$WORKDIR/ref.json"
for i in $(seq 1 30); do
  curl -fsS -X POST -H 'Content-Type: application/json' -d "$BODY" \
    "$BASE/v1/run" > "$WORKDIR/got.json"
  cmp -s "$WORKDIR/ref.json" "$WORKDIR/got.json" || {
    echo "router response $i differs from the direct serve reference" >&2
    exit 1
  }
  sleep 0.2
done

echo "== each shard's own listener answers with the routed bytes =="
# The router reaches its spawned shards in memory; their loopback
# listeners stay up for operators and direct clients. A chaos kill can
# land between reading /fleet and the request, so each slot gets a few
# tries at its current URL (a respawned shard listens on a new port).
for slot in 0 1 2; do
  ok=
  for _ in $(seq 1 25); do
    url=$(curl -fsS "$BASE/fleet" |
      grep -o "\"slot\":$slot,\"url\":\"[^\"]*\",\"state\":\"active\"" |
      sed 's/.*"url":"\([^"]*\)".*/\1/') || true
    if [ -n "$url" ] && curl -fsS -X POST -H 'Content-Type: application/json' -d "$BODY" \
      "$url/v1/run" > "$WORKDIR/direct.json" 2>/dev/null; then
      cmp -s "$WORKDIR/got.json" "$WORKDIR/direct.json" || {
        echo "shard $slot ($url) answers directly with bytes that differ from the routed response" >&2
        exit 1
      }
      ok=1
      break
    fi
    sleep 0.2
  done
  [ -n "$ok" ] || { echo "shard $slot never answered on its /fleet URL" >&2; exit 1; }
done

echo "== cached closed-loop through the fleet (strict) =="
"$BIN" loadgen -url "$BASE/v1/run" -body "$BODY" -duration "$DUR" -c 32 -strict

echo "== uncached through the fleet (seed varies; strict) =="
"$BIN" loadgen -url "$BASE/v1/run" -body "$BODY" -vary seed -duration "$DUR" -c 8 -strict

echo "== fleet state and metrics =="
curl -fsS "$BASE/fleet"; echo
METRICS=$(curl -fsS "$BASE/metrics")
for want in router_requests_total router_routes_total router_chaos_kills_total router_chaos_respawns_total; do
  echo "$METRICS" | grep -q "^$want" || { echo "missing metric $want" >&2; exit 1; }
done
echo "$METRICS" | grep '^router_' | head -16

echo "== graceful SIGTERM drain (router fleet, then reference serve) =="
kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID"   # non-zero exit (unclean drain) fails the script
ROUTER_PID=
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=

echo "router-smoke: OK"
