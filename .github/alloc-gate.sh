#!/usr/bin/env bash
# Allocation gate. Runs the repository benchmark, unmodified, for each
# workload at 3 s (mixed_rw at 5 s, see below) with seeds 1–3 under
# GOMAXPROCS=2, and fails when the median of a metric named in the
# `gate` object on that workload's last
# BENCH_<workload>.json row that has one exceeds the gate's value by
# more than the metric's bound in BENCHMARK.json, or when a run fails an
# operation or a correctness check. Allocation counts repeat closely
# from run to run; wall-clock numbers do not, so setup_s is printed and
# never gated, and mixed_rw's gate names only allocs_per_op, since its
# bytes per operation grow with the rows a run has inserted.
#
# mixed_rw's object count per operation swings from run to run in short
# runs, so mixed_rw runs 5 s and its gate was recorded at that length.
# On a 2-vCPU host, two 3-seed sets at 5 s read medians of 108.58 and
# 108.59 (gate 108.58), and a tree whose plan cache always misses read
# 114.02 and 114.05, just past the 5 % bound (114.01).
#
#   bash .github/alloc-gate.sh                # every workload in BENCHMARK.json
#   bash .github/alloc-gate.sh analytic ...   # only these
#
# Needs jq. The gate values were recorded with the Go toolchain named in
# the row's `host`; another toolchain's runtime allocates differently.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
fi

fail=0
for wl in "${workloads[@]}"; do
  gate=$(jq -c 'select(.gate != null) | .gate' "BENCH_$wl.json" | tail -n 1)
  if [ -z "$gate" ]; then
    echo "$wl: FAIL no row of BENCH_$wl.json has a gate"
    fail=1
    continue
  fi
  seconds=3
  if [ "$wl" = mixed_rw ]; then
    seconds=5
  fi
  runs=""
  for seed in 1 2 3; do
    run=$(GOMAXPROCS=2 bash benchmarks/run.sh --workload "$wl" --seed "$seed" \
      --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
    if [ "$(jq -r '.correct and .failed == 0' <<<"$run")" != true ]; then
      echo "$wl seed $seed: FAIL correct=$(jq .correct <<<"$run") failed=$(jq .failed <<<"$run")"
      fail=1
    fi
    runs+="$run"$'\n'
  done
  for m in setup_s $(jq -r 'keys_unsorted[]' <<<"$gate"); do
    median=$(jq -s --arg m "$m" '[.[].metrics[$m].value] | sort | .[length / 2 | floor]' <<<"$runs")
    if [ "$m" = setup_s ]; then
      echo "$wl $m: median $median (advisory)"
      continue
    fi
    ref=$(jq -r --arg m "$m" '.[$m]' <<<"$gate")
    bound=$(jq -r --arg m "$m" '.end_to_end[] | select(.name == $m) | .bound' BENCHMARK.json)
    verdict=$(jq -n -r --argjson v "$median" --argjson r "$ref" --argjson b "$bound" \
      '"\((($v / $r - 1) * 1000 | round) / 10 + 0) % against a bound of \($b * 100) %: " +
       (if $v > $r * (1 + $b) then "FAIL" else "ok" end)')
    echo "$wl $m: median $median, gate $ref, $verdict"
    if [ "${verdict##*: }" != ok ]; then
      fail=1
    fi
  done
done
exit "$fail"
