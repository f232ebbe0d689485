#!/usr/bin/env bash
# Cross-commit round parity: runs four fixed search configurations with
# two fms_search_cli builds (typically the parent commit's and the
# change's, built on the same host) and requires every durable output to
# be byte-identical: genotype, checkpoint (+ .prev), journal (+ .prev),
# Chrome trace, flight-recorder dump and health.json. The JSONL traces
# carry wall-clock span durations, so they are compared with
# `fms_report --compare` instead, which checks the "round" events field
# by field and must call the two runs identical. That fms_report is
# this checkout's build/tools/fms_report, found relative to this script
# (`cmake --build build --target fms_report` builds it).
#
#   tools/round_parity.sh <parent fms_search_cli> <change fms_search_cli>
#
# Exits 1 at the first difference (work dir kept for inspection), 0 when
# all four configurations match. Between them the configurations reach
# every lifecycle drop reason except snapshot_evicted and divergent
# (tests/test_determinism.cpp covers those), plus screen and estimator
# rejections; the per-config reason tally is printed from the change's
# Chrome trace.
set -u

USAGE="usage: round_parity.sh <parent fms_search_cli> <change fms_search_cli>"
# Absolute paths: each run executes inside its own output directory.
PARENT="$(realpath "${1:?$USAGE}")" || exit 1
CHANGE="$(realpath "${2:?$USAGE}")" || exit 1
REPORT="$(dirname "$(realpath "$0")")/../build/tools/fms_report"
[[ -x "$REPORT" ]] || { echo "missing $REPORT (build fms_report)"; exit 1; }

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

BASE=(--participants 8 --warmup 2 --rounds 12)
CONFIGS=(
  # 1. default clean mean run
  ""
  # 2. severe staleness + DC under faults, a churn burst and the ladder
  "--staleness severe --policy compensate
   --fault-plan dropout=0.1,link=0.5,corrupt=0.1,divergent=0.2,seed=5
   --churn-plan burst=0.5,burst_round=6,burst_away=3,seed=9
   --quorum 0.75 --adaptive-timeout --max-degrade-mode 3
   --adaptive-screen 3 --aggregator trimmed_mean:1"
  # 3. stale updates dropped by policy under crash/link/uplink/collapse
  "--staleness slight --policy throw
   --fault-plan crash=0.25,crash_round=4,link=0.5,uplink=0.3,collapse=0.3,seed=6
   --aggregator clipped_mean:3"
  # 4. hard sync with a tight timeout, uplink and Byzantine lies
  "--staleness none --timeout 0.02 --quorum 0.75
   --fault-plan uplink=0.3,corrupt=0.1,sign_flip=0.4,reward_attack=0.4,seed=7
   --aggregator multi_krum:2 --winsorize-rewards 1.5 --baseline-mode median"
)
OUTPUTS=(g.bin ck.bin ck.bin.prev wal.bin wal.bin.prev chrome.json flight.jsonl
  health.json)

run() {  # run <cli> <dir> <config words...>
  local cli="$1" dir="$2"
  shift 2
  mkdir -p "$dir"
  (cd "$dir" && "$cli" "${BASE[@]}" "$@" \
    --genotype-out g.bin --checkpoint ck.bin --checkpoint-every 4 \
    --journal wal.bin --trace-chrome chrome.json \
    --flight-recorder 64 --flight-dump flight.jsonl \
    --trace-jsonl trace.jsonl --health-report health.json > log 2>&1)
}

for c in "${!CONFIGS[@]}"; do
  n=$((c + 1))
  # Word-split the config on purpose: its values contain no spaces.
  # shellcheck disable=SC2206
  args=(${CONFIGS[$c]})
  run "$PARENT" "$WORK/$n/parent" "${args[@]}" || {
    echo "config $n: FAIL — parent run exited non-zero"
    tail -5 "$WORK/$n/parent/log"; trap - EXIT; exit 1; }
  run "$CHANGE" "$WORK/$n/change" "${args[@]}" || {
    echo "config $n: FAIL — change run exited non-zero"
    tail -5 "$WORK/$n/change/log"; trap - EXIT; exit 1; }
  for f in "${OUTPUTS[@]}"; do
    a="$WORK/$n/parent/$f"
    b="$WORK/$n/change/$f"
    if [[ -e "$a" || -e "$b" ]] && ! cmp -s "$a" "$b"; then
      echo "config $n: FAIL — $f differs (work dir kept: $WORK)"
      trap - EXIT
      exit 1
    fi
  done
  # Identical over at least one round: an empty trace proves nothing.
  "$REPORT" --compare "$WORK/$n/parent/trace.jsonl" \
      "$WORK/$n/change/trace.jsonl" > "$WORK/$n/compare" 2>&1 &&
    grep -q "runs identical across [1-9]" "$WORK/$n/compare" || {
    echo "config $n: FAIL — JSONL traces differ (work dir kept: $WORK)"
    cat "$WORK/$n/compare"; trap - EXIT; exit 1; }
  reasons="$(grep -o '"name":"drop".*"detail":"[^"]*"' \
      "$WORK/$n/change/chrome.json" 2>/dev/null |
    sed 's/.*"detail":"\([^"]*\)"/\1/' | sort | uniq -c |
    awk '{printf "%s%s=%s", sep, $2, $1; sep=" "}')"
  rejections="$(grep -o '"detail":"rejected:[^"]*"' \
      "$WORK/$n/change/chrome.json" 2>/dev/null |
    sed 's/"detail":"rejected://; s/"$//' | sort | uniq -c |
    awk '{printf "%s%s=%s", sep, $2, $1; sep=" "}')"
  echo "config $n: OK (drops: ${reasons:-none}; rejections: ${rejections:-none})"
done
echo "== round parity passed (${#CONFIGS[@]} configurations) =="
