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
# A fifth configuration checks that each build reads the other's files:
# the parent writes ck.bin and wal.bin part-way through configuration 2,
# then both CLIs continue from those files, once with --resume and once
# with --recover on the journal cut mid-frame, and their durable outputs
# must again be byte-identical.
#
# Exits 1 at the first difference (work dir kept for inspection), 0 when
# all configurations match. Between them the configurations reach
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

fail() {  # fail <message>: report, keep the work dir, exit 1
  echo "$1"
  trap - EXIT
  exit 1
}

same_outputs() {  # same_outputs <label> <dir a> <dir b>
  local f
  for f in "${OUTPUTS[@]}"; do
    if [[ -e "$2/$f" || -e "$3/$f" ]] && ! cmp -s "$2/$f" "$3/$f"; then
      fail "$1: FAIL — $f differs (work dir kept: $WORK)"
    fi
  done
}

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
    tail -5 "$WORK/$n/parent/log"; fail "config $n: FAIL — parent run exited non-zero"; }
  run "$CHANGE" "$WORK/$n/change" "${args[@]}" || {
    tail -5 "$WORK/$n/change/log"; fail "config $n: FAIL — change run exited non-zero"; }
  same_outputs "config $n" "$WORK/$n/parent" "$WORK/$n/change"
  # Identical over at least one round: an empty trace proves nothing.
  "$REPORT" --compare "$WORK/$n/parent/trace.jsonl" \
      "$WORK/$n/change/trace.jsonl" > "$WORK/$n/compare" 2>&1 &&
    grep -q "runs identical across [1-9]" "$WORK/$n/compare" || {
    cat "$WORK/$n/compare"
    fail "config $n: FAIL — JSONL traces differ (work dir kept: $WORK)"; }
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
# 5. Cross-build resume. The parent stops configuration 2 after 7 rounds
# (2 warm-up + 5 search): its final checkpoint seeds --resume, and its
# last auto checkpoint (round 4, now ck.bin.prev) with the 3 frames
# journaled since seeds --recover, as if killed before the final write
# with the last frame half on disk. Each CLI then runs the full schedule
# from those files.
n=$((${#CONFIGS[@]} + 1))
# shellcheck disable=SC2206
args=(${CONFIGS[1]})
SEED="$WORK/$n/seed"
run "$PARENT" "$SEED" "${args[@]}" --rounds 5 ||
  fail "config $n: FAIL — parent seed run exited non-zero"
for mode in resume recover; do
  for side in parent change; do
    cli="$PARENT"
    [[ $side == change ]] && cli="$CHANGE"
    d="$WORK/$n/$mode/$side"
    mkdir -p "$d"
    if [[ $mode == resume ]]; then
      cp "$SEED/ck.bin" "$d/base.bin"
      extra=(--resume base.bin)
    else
      cp "$SEED/ck.bin.prev" "$d/ck.bin"
      cp "$SEED/wal.bin" "$d/wal.bin"
      truncate -s -3 "$d/wal.bin"
      extra=(--recover)
    fi
    run "$cli" "$d" "${args[@]}" "${extra[@]}" || {
      tail -5 "$d/log"; fail "config $n ($mode): FAIL — $side run exited non-zero"; }
  done
  same_outputs "config $n ($mode)" "$WORK/$n/$mode/parent" \
    "$WORK/$n/$mode/change"
  # The recovery must have replayed frames and cut the torn one.
  [[ $mode == resume ]] || grep -q "replayed [1-9].*, [1-9][0-9]* torn bytes" \
    "$WORK/$n/$mode/change/log" ||
    fail "config $n ($mode): FAIL — nothing replayed or no torn tail"
  echo "config $n ($mode): OK ($(grep -m1 -o 'resumed from.*\|recovered:.*truncated' \
    "$WORK/$n/$mode/change/log"))"
done
echo "== round parity passed ($n configurations) =="
