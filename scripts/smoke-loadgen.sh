#!/usr/bin/env sh
# smoke-loadgen.sh — boot fastcapd and drive it with fastcap-loadgen:
# 16 concurrent closed-loop session lifecycles plus 2 cluster-group
# workers, then assert the report is clean (zero errors), made forward
# progress (nonzero epochs/sec), and carries latency percentiles. This
# is the capacity harness's own smoke test: if it fails, no capacity
# number measured with fastcap-loadgen can be trusted either.
#
# Usage: scripts/smoke-loadgen.sh [port]
set -eu

PORT="${1:-8361}"
BASE="http://127.0.0.1:$PORT"

cd "$(dirname "$0")/.."
go build -o /tmp/fastcapd-lg ./cmd/fastcapd
go build -o /tmp/fastcap-loadgen ./cmd/fastcap-loadgen

/tmp/fastcapd-lg -addr "127.0.0.1:$PORT" -max-sessions 64 &
PID=$!
cleanup() { kill "$PID" 2>/dev/null || true; }
trap cleanup EXIT

i=0
until curl -fs "$BASE/readyz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -lt 50 ] || { echo "FAIL: fastcapd never became ready"; exit 1; }
    sleep 0.2
done

REPORT=$(/tmp/fastcap-loadgen -base "$BASE" -sessions 16 -clusters 2 \
    -lifecycles 2 -epochs 10 -epoch-ms 0.5) \
    || { echo "FAIL: loadgen reported errors: $REPORT"; exit 1; }
echo "$REPORT"

check() { # check <description> <grep pattern>
    printf '%s' "$REPORT" | grep -q "$2" || { echo "FAIL: $1"; exit 1; }
}
check "lifecycles failed"        '"errors":0'
check "no lifecycles completed"  '"lifecycles":36'
check "no epoch throughput"      '"epochs_per_sec":[1-9]'
check "create percentiles missing"   '"create":{"n":36,"p50_ms":'
check "retarget percentiles missing" '"retarget":{"n":36,"p50_ms":'

# The daemon's own counters must agree with the load that just ran:
# 16 workers x 2 lifecycles = 32 sessions, 2 x 2 = 4 cluster groups.
MET=$(curl -fs "$BASE/metrics")
printf '%s' "$MET" | grep -q '^fastcap_serve_sessions_created_total 32$' \
    || { echo "FAIL: daemon did not count 32 sessions"; exit 1; }
printf '%s' "$MET" | grep -q '^fastcap_serve_cluster_groups_created_total 4$' \
    || { echo "FAIL: daemon did not count 4 cluster groups"; exit 1; }

# Empty latency classes are omitted, not reported as zeros: with
# retargets disabled the report must carry no "retarget" block at all
# (a p50 of 0 would be indistinguishable from an instant retarget).
NORETARGET=$(/tmp/fastcap-loadgen -base "$BASE" -sessions 4 \
    -lifecycles 1 -epochs 5 -epoch-ms 0.5 -retarget 0) \
    || { echo "FAIL: retarget-free loadgen reported errors: $NORETARGET"; exit 1; }
printf '%s' "$NORETARGET" | grep -q '"retarget"' \
    && { echo "FAIL: zero-sample retarget class not omitted"; exit 1; }
printf '%s' "$NORETARGET" | grep -q '"create":{"n":4,"p50_ms":' \
    || { echo "FAIL: create percentiles missing in retarget-free run"; exit 1; }

kill -TERM "$PID"
wait "$PID" || { echo "FAIL: fastcapd exited non-zero"; exit 1; }
trap - EXIT
echo "smoke-loadgen ok"
