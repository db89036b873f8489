#!/usr/bin/env bash
# End-to-end smoke of the serving daemon as shipped: real w4kd process,
# real w4k_loadgen process, loopback UDP between them.
#
#   0. reject bad flags: an out-of-range port, zero workers and zero
#      symbols per frame must each exit 2 without serving, and so must
#      w4k_loadgen given an out-of-range or non-numeric port or zero
#      subscribers;
#   1. spawn w4kd (ephemeral ports), parse the ports it prints;
#   2. stream ~2 s at 60 fps to 32 subscribers over 4 sockets with the
#      fountain-decode probe on; require exit 0, delivered fraction
#      >= 0.90, zero parse errors, and at least one successful decode;
#   3. fetch /healthz and /status over raw TCP (bash /dev/tcp — the
#      container has no curl) and check the JSON shape;
#   4. SIGTERM the daemon and require a clean exit with >= 100 frames
#      published.
#
# Usage: serve_smoke.sh --w4kd PATH --loadgen PATH
set -euo pipefail

w4kd=""
loadgen=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --w4kd) w4kd="$2"; shift 2 ;;
    --loadgen) loadgen="$2"; shift 2 ;;
    *) echo "serve_smoke: unknown argument $1" >&2; exit 2 ;;
  esac
done
[[ -x "$w4kd" && -x "$loadgen" ]] || {
  echo "serve_smoke: need --w4kd and --loadgen executables" >&2; exit 2; }

tmp="$(mktemp -d)"
daemon_log="$tmp/w4kd.log"
daemon_pid=""
trap 'if [[ -n "$daemon_pid" ]]; then kill "$daemon_pid" 2>/dev/null || true; fi; rm -rf "$tmp"' EXIT

# Stage 0: bad flags exit 2. A port above 65535 must not wrap into a
# valid one, and a configuration the daemon rejects must not abort.
for bad in "--port 70000 --status-port 0" \
           "--port 0 --status-port 0 --workers 0" \
           "--port 0 --status-port 0 --symbols 0"; do
  rc=0
  # shellcheck disable=SC2086  # $bad holds several words on purpose
  timeout 10 "$w4kd" $bad --frames 1 > "$tmp/bad.log" 2>&1 || rc=$?
  [[ "$rc" == 2 ]] || {
    echo "serve_smoke: w4kd $bad exited $rc, want 2:"; cat "$tmp/bad.log"
    exit 1; }
done
for bad in "--port 70000" "--port abc" "--subs 0"; do
  rc=0
  # shellcheck disable=SC2086  # $bad holds several words on purpose
  timeout 10 "$loadgen" $bad --duration-s 0 > "$tmp/bad.log" 2>&1 || rc=$?
  [[ "$rc" == 2 ]] || {
    echo "serve_smoke: w4k_loadgen $bad exited $rc, want 2:"; cat "$tmp/bad.log"
    exit 1; }
done
echo "serve_smoke: bad flags rejected"

"$w4kd" --port 0 --status-port 0 --workers 2 --fps 60 --symbols 3 \
        > "$daemon_log" 2>&1 &
daemon_pid=$!

# The first stdout line carries the resolved ephemeral ports.
port=""
status_port=""
for _ in $(seq 1 50); do
  if line="$(grep -m1 '^w4kd: port=' "$daemon_log" 2>/dev/null)"; then
    port="$(sed -n 's/.*port=\([0-9]*\) .*/\1/p' <<<"$line")"
    status_port="$(sed -n 's/.*status=\([0-9]*\) .*/\1/p' <<<"$line")"
    [[ -n "$port" ]] && break
  fi
  kill -0 "$daemon_pid" 2>/dev/null || {
    echo "serve_smoke: w4kd died at startup:"; cat "$daemon_log"; exit 1; }
  sleep 0.1
done
[[ -n "$port" && -n "$status_port" ]] || {
  echo "serve_smoke: could not parse ports from w4kd output:";
  cat "$daemon_log"; exit 1; }
echo "serve_smoke: w4kd pid=$daemon_pid port=$port status=$status_port"

# Stage 2: 32 subscribers for ~2 s at 60 fps => >= 100 frames streamed.
loadgen_out="$("$loadgen" --port "$port" --subs 32 --sockets 4 \
               --duration-s 2 --decode)"
echo "$loadgen_out"
json="$(grep '^LOADGEN_JSON ' <<<"$loadgen_out" | sed 's/^LOADGEN_JSON //')"
read -r delivered parse_errors decodes <<<"$(
  sed -n 's/.*"delivered_fraction":\([0-9.]*\),.*"parse_errors":\([0-9]*\),.*"decodes":\([0-9]*\)}.*/\1 \2 \3/p' \
    <<<"$json")"
[[ -n "$delivered" ]] || {
  echo "serve_smoke: could not parse LOADGEN_JSON" >&2; exit 1; }
awk -v d="$delivered" 'BEGIN { exit !(d >= 0.90) }' || {
  echo "serve_smoke: delivered fraction $delivered < 0.90" >&2; exit 1; }
[[ "$parse_errors" == 0 ]] || {
  echo "serve_smoke: $parse_errors parse errors" >&2; exit 1; }
[[ "$decodes" -ge 1 ]] || {
  echo "serve_smoke: fountain decode probe never decoded" >&2; exit 1; }

# Stage 3: /healthz and /status over bash /dev/tcp.
http_get() {
  local path="$1"
  exec 3<>"/dev/tcp/127.0.0.1/$status_port"
  printf 'GET %s HTTP/1.0\r\n\r\n' "$path" >&3
  cat <&3
  exec 3<&- 3>&-
}
health="$(http_get /healthz)"
grep -q '"ok":true' <<<"$health" || {
  echo "serve_smoke: /healthz unhealthy: $health" >&2; exit 1; }
status="$(http_get /status)"
grep -q '"daemon": *"w4kd"' <<<"$status" || {
  echo "serve_smoke: /status missing daemon field" >&2; exit 1; }
grep -q '"metrics"' <<<"$status" || {
  echo "serve_smoke: /status missing metrics snapshot" >&2; exit 1; }
grep -q '"serve.pub.frames"' <<<"$status" || {
  echo "serve_smoke: /status missing publisher counters" >&2; exit 1; }
echo "serve_smoke: /status OK"

# Stage 4: clean shutdown with enough frames published.
kill -TERM "$daemon_pid"
rc=0
wait "$daemon_pid" || rc=$?
[[ "$rc" == 0 ]] || {
  echo "serve_smoke: w4kd exited $rc:"; cat "$daemon_log"; exit 1; }
published="$(sed -n 's/^w4kd: published=\([0-9]*\) .*/\1/p' "$daemon_log")"
[[ -n "$published" && "$published" -ge 100 ]] || {
  echo "serve_smoke: only ${published:-0} frames published (< 100)" >&2
  exit 1; }
echo "serve_smoke: PASS (published=$published delivered=$delivered decodes=$decodes)"
