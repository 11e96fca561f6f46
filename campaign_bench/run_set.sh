#!/usr/bin/env bash
# Record one set of untraced benchmark runs into OUT.jsonl: RUNS seeds,
# each running every workload once, with the workload order rotated per
# seed so that slow drifts of a shared machine spread over all of them.
# Compare two sets with:
#   cargo run --release --offline --manifest-path campaign_bench/Cargo.toml -- --compare A.jsonl B.jsonl
#
# usage (from the repository root): campaign_bench/run_set.sh OUT.jsonl [RUNS] [SECONDS]
# SECONDS defaults to run_seconds in BENCHMARK.json.
set -uo pipefail

out=${1:?usage: campaign_bench/run_set.sh OUT.jsonl [RUNS] [SECONDS]}
runs=${2:-10}
seconds=${3:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
workloads=(prove serve check check_spill)
bench=(cargo run --release --quiet --offline --manifest-path campaign_bench/Cargo.toml --)

"${bench[@]}" --workload check --smoke >/dev/null || exit 1
for ((seed = 1; seed <= runs; seed++)); do
  for ((i = 0; i < ${#workloads[@]}; i++)); do
    w=${workloads[(i + seed) % ${#workloads[@]}]}
    echo "seed $seed $w: $("${bench[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" \
      --trace 0 --record "$out" | tail -n 1)"
  done
done
