#!/usr/bin/env bash
# Daemon smoke (`dune build @daemon`, the CI daemon step): start a real
# cusand, throw a healthy job, a deliberately crashing job, and a
# wedging job at it, and prove the robustness contract end-to-end:
#  - the crash is reaped into a post-mortem reply (saved as an
#    artifact), never taking the daemon down;
#  - the wedge resolves as a watchdog stalled verdict, not a hung
#    worker;
#  - the cache answers for a finished lint, soak and spin job with the
#    same result bytes (a hit frame around the cached verdict text; the
#    soak case resolved through the case table);
#  - the daemon answers a follow-up health check after both;
#  - SIGTERM drains gracefully: the process exits 0 and flushes its
#    final stats JSON.
# Readiness is never a fixed sleep: every wait is a bounded
# retry-until-healthy loop over `cusanctl health`.
# Artifacts (daemon-*.json) are left in the working directory; CI
# uploads them when the step fails.
set -u

cusand=${1:?usage: daemon_smoke.sh path/to/cusand.exe path/to/cusanctl.exe}
cusanctl=${2:?usage: daemon_smoke.sh path/to/cusand.exe path/to/cusanctl.exe}

sock="${TMPDIR:-/tmp}/cusand-smoke-$$.sock"
status=0

fail() {
  echo "daemon_smoke: $1" >&2
  status=1
}

# Bounded retry-until-healthy: poll `cusanctl health` (itself cheap and
# retry-free enough under --retries 1) until the daemon answers, up to
# ~10s. Replaces any fixed sleep.
wait_healthy() {
  local out=$1 tries=${2:-100}
  local i
  for ((i = 0; i < tries; i++)); do
    if "$cusanctl" --socket "$sock" --retries 1 health >"$out" 2>/dev/null; then
      return 0
    fi
    sleep 0.1
  done
  return 1
}

"$cusand" --socket "$sock" --workers 2 --watchdog 2000000 \
  --stats daemon-drain-stats.json >daemon-stdout.json 2>daemon-stderr.log &
daemon_pid=$!

if ! wait_healthy daemon-health-boot.json; then
  fail "daemon never became healthy"
fi

# 1. A healthy lint job and a matrix case are served.
if ! "$cusanctl" --socket "$sock" lint jacobi/jacobi >daemon-lint.json; then
  fail "lint job failed"
fi
grep -q '"status":"ok"' daemon-lint.json || fail "lint reply not ok"
soak_case=cuda-to-mpi/send_device_devicesync
if ! "$cusanctl" --socket "$sock" soak "$soak_case" >daemon-soak.json; then
  fail "soak job failed"
fi
grep -q '"status":"ok"' daemon-soak.json || fail "soak reply not ok"

# 2. A deliberately crashing job is reaped into a post-mortem reply
#    (exit 1 by the cusanctl contract), and the daemon survives.
"$cusanctl" --socket "$sock" boom >daemon-post-mortem.json
rc=$?
[ "$rc" -eq 1 ] || fail "boom exited $rc, want 1 (crashed)"
grep -q '"post_mortem"' daemon-post-mortem.json \
  || fail "crashed job carries no post-mortem"

# 3. A wedging job spins until the step-budget watchdog fires and comes
#    back as a labelled stalled verdict.
if ! "$cusanctl" --socket "$sock" spin 1000000 >daemon-stalled.json; then
  fail "spin job failed"
fi
grep -q '"outcome":"stalled"' daemon-stalled.json \
  || fail "wedged job did not resolve as a stalled verdict"

# 4. The cache answers for the finished jobs: re-submitting the spin,
#    the lint and the soak yields cached:true replies whose result bytes
#    equal the first replies'.
result_of() { sed -e 's/.*"result"://' "$1"; }
resubmit() {
  local first=$1 again=$2
  shift 2
  if ! "$cusanctl" --socket "$sock" "$@" >"$again"; then
    fail "re-submitted $* failed"
  fi
  grep -q '"cached":true' "$again" \
    || fail "re-submitted $* was not answered from the cache"
  [ "$(result_of "$first")" = "$(result_of "$again")" ] \
    || fail "cached result bytes of $* differ from the first reply"
}
resubmit daemon-stalled.json daemon-cached.json spin 1000000
resubmit daemon-lint.json daemon-lint-cached.json lint jacobi/jacobi
resubmit daemon-soak.json daemon-soak-cached.json soak "$soak_case"

# 5. After a crash and a wedge, the daemon still answers.
if ! wait_healthy daemon-health-after.json 20; then
  fail "daemon unhealthy after crash + wedge"
fi
"$cusanctl" --socket "$sock" stats >daemon-stats.json \
  || fail "stats request failed"
grep -q '"crashed":1' daemon-stats.json || fail "crash not counted in stats"
grep -q '"stalled":1' daemon-stats.json || fail "stall not counted in stats"

# 6. SIGTERM drains gracefully: exit 0, final stats flushed.
kill -TERM "$daemon_pid"
wait "$daemon_pid"
rc=$?
[ "$rc" -eq 0 ] || fail "daemon exited $rc on SIGTERM, want 0"
grep -q '"event":"drained"' daemon-drain-stats.json \
  || fail "drain did not flush final stats"
[ -S "$sock" ] && fail "socket file not removed at drain"

if [ "$status" -eq 0 ]; then
  echo "daemon_smoke: lint + soak + crash + wedge served, cache answered, drained cleanly"
fi
exit "$status"
