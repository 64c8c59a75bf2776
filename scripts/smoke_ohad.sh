#!/usr/bin/env bash
# Smoke test for the ohad analysis daemon: start it, push a program
# through profile -> race end to end over HTTP, force a mis-speculation
# through an adaptive job (rollback to a refined generation ->
# /speculation generation bump -> clean second run), run plain and
# adaptive slice and nullcheck jobs, check /healthz and /metrics, then
# restart the daemon against its warm -cache-dir and assert the first
# race job runs with zero compile/solve cache misses (everything served
# from the persisted disk tier). Pure curl + grep so it runs anywhere
# CI does.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:8399
BASE="http://$ADDR"
LOG=$(mktemp)
CACHE_DIR=$(mktemp -d)
STATE_DIR=$(mktemp -d)

go build -o /tmp/ohad-smoke ./cmd/ohad
/tmp/ohad-smoke -addr "$ADDR" -workers 2 -queue 16 \
  -cache-dir "$CACHE_DIR" -state-dir "$STATE_DIR" >"$LOG" 2>&1 &
OHAD_PID=$!
cleanup() {
  kill "$OHAD_PID" 2>/dev/null || true
  wait "$OHAD_PID" 2>/dev/null || true
}
trap cleanup EXIT

fail() {
  echo "SMOKE FAIL: $*" >&2
  echo "--- ohad log ---" >&2
  cat "$LOG" >&2
  exit 1
}

# Wait for the daemon to come up.
up=0
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then up=1; break; fi
  sleep 0.1
done
[ "$up" = 1 ] || fail "daemon never became healthy"
curl -fsS "$BASE/healthz" | grep -q '"ok"' || fail "healthz not ok"

# json_field FILE KEY -> first string value of "KEY" in an indented
# JSON response.
json_field() {
  sed -n 's/.*"'"$2"'": *"\([^"]*\)".*/\1/p' "$1" | head -1
}

# json_num FILE KEY -> first numeric value of "KEY".
json_num() {
  sed -n 's/.*"'"$2"'": *\([0-9][0-9]*\).*/\1/p' "$1" | head -1
}

# submit_program SRC -> program ID (into $RESP).
submit_program() {
  printf '{"source": "%s"}' "$(printf '%s' "$1" | sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' -e 's/$/\\n/' | tr -d '\n')" |
    curl -fsS "$BASE/v1/programs" -d @- -o "$RESP" || fail "program submit failed"
  json_field "$RESP" id
}

# Submit a racy program (unlocked global `a`, two threads).
SRC='global a = 0; global l = 0;
func inc(n) {
  var i = 0;
  while (i < n) {
    a = a + 1;
    lock(&l);
    unlock(&l);
    i = i + 1;
  }
}
func main() {
  var n = input(0);
  var t1 = spawn inc(n);
  var t2 = spawn inc(n);
  join(t1);
  join(t2);
  print(a);
}'
RESP=$(mktemp)
PROG_ID=$(submit_program "$SRC")
[ -n "$PROG_ID" ] || fail "no program ID in $(cat "$RESP")"
echo "program: $PROG_ID"

# await_job ID -> polls to a terminal state; fails unless done.
await_job() {
  local id=$1 st=""
  for _ in $(seq 1 300); do
    curl -fsS "$BASE/v1/jobs/$id" -o "$RESP" || fail "job poll failed"
    st=$(json_field "$RESP" state)
    case "$st" in
      done) return 0 ;;
      failed) fail "job $id failed: $(cat "$RESP")" ;;
    esac
    sleep 0.1
  done
  fail "job $id stuck in state '$st'"
}

# Profile the program to learn likely invariants.
curl -fsS "$BASE/v1/jobs" -o "$RESP" \
  -d "{\"kind\":\"profile\",\"program_id\":\"$PROG_ID\",\"inputs\":[3],\"runs\":8,\"save_as\":\"smoke\"}" ||
  fail "profile submit failed"
PROFILE_JOB=$(json_field "$RESP" id)
await_job "$PROFILE_JOB"
echo "profile: $PROFILE_JOB done"
curl -fsS "$BASE/v1/invariants/smoke" | grep -q 'oha invariants' || fail "stored invariants unreadable"

# Race-detect one execution under the profiled invariants.
curl -fsS "$BASE/v1/jobs" -o "$RESP" \
  -d "{\"kind\":\"race\",\"program_id\":\"$PROG_ID\",\"inputs\":[3],\"invariants_id\":\"smoke\"}" ||
  fail "race submit failed"
RACE_JOB=$(json_field "$RESP" id)
await_job "$RACE_JOB"
curl -fsS "$BASE/v1/jobs/$RACE_JOB/result" -o "$RESP" || fail "race result fetch failed"
grep -q '"races"' "$RESP" || fail "race result has no races field: $(cat "$RESP")"
grep -q 'race on' "$RESP" || fail "known race not detected: $(cat "$RESP")"
echo "race: $RACE_JOB done ($(grep -c 'race on' "$RESP") race line(s))"

# Metrics reflect the work.
curl -fsS "$BASE/metrics" -o "$RESP" || fail "metrics fetch failed"
grep -Eq '^ohad_jobs_done_total [1-9]' "$RESP" || fail "ohad_jobs_done_total not positive"
grep -q '^ohad_http_requests_total' "$RESP" || fail "http request counter missing"
grep -q '^ohad_job_latency_seconds_bucket' "$RESP" || fail "job latency histogram missing"

# --- Adaptive speculation loop ---------------------------------------
# A program whose race is guarded by an input-dependent branch: profile
# with a benign input so the branch body is a likely-unreachable block,
# then analyze a violating input. The adaptive job must roll back once
# to a generation without the invariant, and the manager must publish
# that generation as generation 2.
ADAPT_SRC='global g = 0; global h = 0;
func w(k) {
  if (k > 100) {
    g = g + 1;
  }
  h = 7;
}
func main() {
  var k = input(0);
  var t1 = spawn w(k);
  var t2 = spawn w(k);
  join(t1);
  join(t2);
  print(g + h);
}'
ADAPT_ID=$(submit_program "$ADAPT_SRC")
[ -n "$ADAPT_ID" ] || fail "no adaptive program ID in $(cat "$RESP")"
echo "adaptive program: $ADAPT_ID"

curl -fsS "$BASE/v1/jobs" -o "$RESP" \
  -d "{\"kind\":\"profile\",\"program_id\":\"$ADAPT_ID\",\"inputs\":[5],\"runs\":8,\"save_as\":\"adapt-smoke\"}" ||
  fail "adaptive profile submit failed"
await_job "$(json_field "$RESP" id)"

# First adaptive run on the violating input: one run, rolled back to
# the refined generation, which is published as generation 2.
curl -fsS "$BASE/v1/jobs" -o "$RESP" \
  -d "{\"kind\":\"race\",\"program_id\":\"$ADAPT_ID\",\"inputs\":[500],\"invariants_id\":\"adapt-smoke\",\"adapt\":true}" ||
  fail "adaptive race submit failed"
ADAPT_JOB=$(json_field "$RESP" id)
await_job "$ADAPT_JOB"
curl -fsS "$BASE/v1/jobs/$ADAPT_JOB/result" -o "$RESP" || fail "adaptive result fetch failed"
[ "$(json_field "$RESP" rolled_back_to)" = refined ] || fail "adaptive run not re-executed under a refined generation: $(cat "$RESP")"
tr -d ' \n' <"$RESP" | grep -q '"refuted":\["' || fail "adaptive run refuted no fact: $(cat "$RESP")"
[ "$(json_num "$RESP" generation)" -ge 2 ] || fail "adaptive run not refined: $(cat "$RESP")"
grep -q 'race on' "$RESP" || fail "adaptive run lost the race report: $(cat "$RESP")"
echo "adaptive race: $ADAPT_JOB done (generation $(json_num "$RESP" generation))"

# /speculation reflects the refinement (the first "generation" in the
# filtered response is the published generation).
curl -fsS "$BASE/speculation?program=$ADAPT_ID&invariants=adapt-smoke" -o "$RESP" ||
  fail "speculation fetch failed"
GEN=$(json_num "$RESP" generation)
[ -n "$GEN" ] && [ "$GEN" -ge 2 ] || fail "speculation generation '$GEN' < 2: $(cat "$RESP")"
echo "speculation: generation $GEN"

curl -fsS "$BASE/metrics" -o "$RESP" || fail "metrics refetch failed"
grep -Eq '^oha_adapt_refinements_total [1-9]' "$RESP" || fail "no refinement counted"
grep -Eq '^oha_adapt_rollbacks_total\{client="race"\} [1-9]' "$RESP" ||
  fail "no race rollback counted: $(grep 'oha_adapt_rollbacks_total' "$RESP")"

# The identical second job runs clean on the refined generation — the
# whole point of adaptation: one mis-speculation never costs two.
curl -fsS "$BASE/v1/jobs" -o "$RESP" \
  -d "{\"kind\":\"race\",\"program_id\":\"$ADAPT_ID\",\"inputs\":[500],\"invariants_id\":\"adapt-smoke\",\"adapt\":true}" ||
  fail "second adaptive race submit failed"
ADAPT_JOB2=$(json_field "$RESP" id)
await_job "$ADAPT_JOB2"
curl -fsS "$BASE/v1/jobs/$ADAPT_JOB2/result" -o "$RESP" || fail "second adaptive result fetch failed"
grep -q '"rolled_back": false' "$RESP" || fail "second adaptive run rolled back: $(cat "$RESP")"
[ "$(json_num "$RESP" generation)" -ge 2 ] || fail "second adaptive run not under the refined generation: $(cat "$RESP")"
echo "adaptive rerun: $ADAPT_JOB2 clean at generation $(json_num "$RESP" generation)"

# --- Slice jobs -------------------------------------------------------
# A plain and an adaptive slice job on the adaptive program (the last
# print is the criterion): both must report the analysis discipline
# and a non-empty set of sliced source lines.
# check_slice JOB -> asserts the slice result shape.
check_slice() {
  await_job "$1"
  curl -fsS "$BASE/v1/jobs/$1/result" -o "$RESP" || fail "slice result fetch failed"
  [ -n "$(json_field "$RESP" analysis_type)" ] || fail "slice result has no analysis_type: $(cat "$RESP")"
  grep -A1 '"lines": \[' "$RESP" | grep -Eq '^ *[0-9]+,?$' || fail "slice result has no lines: $(cat "$RESP")"
}
curl -fsS "$BASE/v1/jobs" -o "$RESP" \
  -d "{\"kind\":\"slice\",\"program_id\":\"$ADAPT_ID\",\"inputs\":[5],\"invariants_id\":\"adapt-smoke\"}" ||
  fail "slice submit failed"
SLICE_JOB=$(json_field "$RESP" id)
check_slice "$SLICE_JOB"
echo "slice: $SLICE_JOB done ($(json_field "$RESP" analysis_type))"
curl -fsS "$BASE/v1/jobs" -o "$RESP" \
  -d "{\"kind\":\"slice\",\"program_id\":\"$ADAPT_ID\",\"inputs\":[500],\"invariants_id\":\"adapt-smoke\",\"adapt\":true}" ||
  fail "adaptive slice submit failed"
ADAPT_SLICE_JOB=$(json_field "$RESP" id)
check_slice "$ADAPT_SLICE_JOB"
echo "adaptive slice: $ADAPT_SLICE_JOB done (generation $(json_num "$RESP" generation))"

# --- Adaptive null checking ------------------------------------------
# Same closed loop for the third client: profile a pointer program on
# benign inputs so the deref site becomes a likely-non-null fact, then
# run a nullcheck job on an input that leaves the pointer nil. The job
# must roll back once, re-execute under a generation without the fact,
# and leave that generation published (>= 2) — reporting the nil deref
# the discharged check would have missed.
NULL_SRC='global p = 0; global buf = 7;
func visit(a) {
  if (a > 100) {
    p = 0;
  }
  if (a < 1000) {
    p = &buf;
  }
  var v = *p;
  print(v);
}
func main() {
  visit(input(0));
  visit(input(1));
}'
NULL_ID=$(submit_program "$NULL_SRC")
[ -n "$NULL_ID" ] || fail "no nullcheck program ID in $(cat "$RESP")"
echo "nullcheck program: $NULL_ID"

curl -fsS "$BASE/v1/jobs" -o "$RESP" \
  -d "{\"kind\":\"profile\",\"program_id\":\"$NULL_ID\",\"inputs\":[50,500],\"runs\":8,\"save_as\":\"null-smoke\"}" ||
  fail "nullcheck profile submit failed"
await_job "$(json_field "$RESP" id)"

curl -fsS "$BASE/v1/jobs" -o "$RESP" \
  -d "{\"kind\":\"nullcheck\",\"program_id\":\"$NULL_ID\",\"inputs\":[50,2000],\"invariants_id\":\"null-smoke\",\"adapt\":true}" ||
  fail "adaptive nullcheck submit failed"
NULL_JOB=$(json_field "$RESP" id)
await_job "$NULL_JOB"
curl -fsS "$BASE/v1/jobs/$NULL_JOB/result" -o "$RESP" || fail "nullcheck result fetch failed"
[ "$(json_field "$RESP" rolled_back_to)" = refined ] || fail "adaptive nullcheck not re-executed under a refined generation: $(cat "$RESP")"
[ "$(json_num "$RESP" generation)" -ge 2 ] || fail "adaptive nullcheck not refined: $(cat "$RESP")"
grep -q '"nil_sites": \[' "$RESP" || fail "nullcheck result has no nil_sites: $(cat "$RESP")"
grep -q '"nil_sites": \[\]' "$RESP" && fail "nullcheck lost the nil-deref verdict: $(cat "$RESP")"
echo "adaptive nullcheck: $NULL_JOB done (generation $(json_num "$RESP" generation))"

curl -fsS "$BASE/metrics" -o "$RESP" || fail "nullcheck metrics refetch failed"
grep -Eq '^oha_adapt_rollbacks_total\{client="nullcheck"\} [1-9]' "$RESP" ||
  fail "no nullcheck rollback counted: $(grep 'oha_adapt_rollbacks_total' "$RESP")"

# Graceful shutdown on SIGTERM.
kill -TERM "$OHAD_PID"
for _ in $(seq 1 50); do
  kill -0 "$OHAD_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$OHAD_PID" 2>/dev/null && fail "daemon did not exit on SIGTERM"
grep -q 'bye' "$LOG" || fail "daemon exited without draining"

# --- Warm restart over the persisted disk tier ------------------------
# A fresh daemon process over the same -cache-dir and -state-dir must
# serve the first race job with ZERO cache misses: the compiled .ohc
# images and the static artifacts all deserialize from disk.
ls "$CACHE_DIR"/*/*.ohc >/dev/null 2>&1 || fail "no .ohc images persisted under $CACHE_DIR"
/tmp/ohad-smoke -addr "$ADDR" -workers 2 -queue 16 \
  -cache-dir "$CACHE_DIR" -state-dir "$STATE_DIR" >"$LOG" 2>&1 &
OHAD_PID=$!
up=0
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then up=1; break; fi
  sleep 0.1
done
[ "$up" = 1 ] || fail "restarted daemon never became healthy"

# Programs are in-memory: resubmit (content-addressed, same ID); the
# invariant DB and every artifact must come back from the warm tiers.
PROG_ID2=$(submit_program "$SRC")
[ "$PROG_ID2" = "$PROG_ID" ] || fail "program ID changed across restart: $PROG_ID2 vs $PROG_ID"
curl -fsS "$BASE/v1/invariants/smoke" | grep -q 'oha invariants' || fail "invariant DB lost across restart"
curl -fsS "$BASE/v1/jobs" -o "$RESP" \
  -d "{\"kind\":\"race\",\"program_id\":\"$PROG_ID\",\"inputs\":[3],\"invariants_id\":\"smoke\"}" ||
  fail "warm race submit failed"
WARM_JOB=$(json_field "$RESP" id)
await_job "$WARM_JOB"
curl -fsS "$BASE/v1/jobs/$WARM_JOB/result" -o "$RESP" || fail "warm race result fetch failed"
grep -q 'race on' "$RESP" || fail "warm restart lost the race verdict: $(cat "$RESP")"

curl -fsS "$BASE/metrics" -o "$RESP" || fail "warm metrics fetch failed"
grep -Eq '^ohad_artifact_cache_misses 0($|\.)' "$RESP" ||
  fail "warm restart recomputed artifacts: $(grep '^ohad_artifact_cache_misses' "$RESP")"
grep -Eq '^oha_artifacts_disk_hits_total [1-9]' "$RESP" ||
  fail "warm restart served no artifacts from disk: $(grep '^oha_artifacts_disk' "$RESP")"
echo "warm restart: race job $WARM_JOB with zero cache misses ($(grep '^oha_artifacts_disk_hits_total' "$RESP"))"

echo "SMOKE OK"
