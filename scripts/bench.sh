#!/usr/bin/env bash
# Reproducible benchmark pipeline: the parallel execution layer (E14),
# the rewrite engine's indexing legs (E19), and the serve daemon's
# warm-path latency (E20).
#
# Runs the prover workload at jobs ∈ {1, 2, all cores},
# the two-leg rewriting benchmark, and the cold/warm serve legs, and
# writes BENCH_parallel.json, BENCH_rewriting.json, and BENCH_serve.json
# at the repository root.
# Knobs:
#
#   BENCH_SAMPLES=N   timed repetitions per point (default 3, best-of-N)
#   BENCH_OUT=path    output path override (applies to whichever bench
#                     runs; only meaningful with BENCH_ONLY)
#   BENCH_ONLY=name   run a single bench: "parallel", "rewriting", or "serve"
#   BENCH_SMOKE=1     tiny limits + temp output, for CI smoke
#
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

# Provenance: stamp the commit and machine into the JSON so a
# BENCH_*.json file can always be traced back to what produced it.
BENCH_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD 2>/dev/null; then
    BENCH_GIT_REV="${BENCH_GIT_REV}-dirty"
fi
BENCH_HOSTNAME="$(hostname 2>/dev/null || uname -n 2>/dev/null || echo unknown)"
export BENCH_GIT_REV BENCH_HOSTNAME

run_bench() {
    local name="$1" default_out="$2"
    echo "== cargo bench -p equitls-bench --bench $name =="
    cargo bench -q -p equitls-bench --bench "$name"
    if [ "${BENCH_SMOKE:-0}" != "1" ]; then
        echo "== $default_out =="
        cat "${BENCH_OUT:-$default_out}"
    fi
}

case "${BENCH_ONLY:-all}" in
parallel) run_bench parallel BENCH_parallel.json ;;
rewriting) run_bench rewriting BENCH_rewriting.json ;;
serve) run_bench serve BENCH_serve.json ;;
all)
    if [ -n "${BENCH_OUT:-}" ]; then
        echo "BENCH_OUT needs BENCH_ONLY=parallel, rewriting, or serve" >&2
        exit 2
    fi
    run_bench parallel BENCH_parallel.json
    run_bench rewriting BENCH_rewriting.json
    run_bench serve BENCH_serve.json
    ;;
*)
    echo "unknown BENCH_ONLY='${BENCH_ONLY}' (want parallel|rewriting|serve|all)" >&2
    exit 2
    ;;
esac
