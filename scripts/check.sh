#!/usr/bin/env bash
# The full local gate: build, tests, formatting, lints.
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== command line: shared flags are parsed only by the shared layer =="
# Binaries and examples take the shared flags through
# `equitls_tls::cli::RunFlags` and `equitls_serve::endpoint::Endpoint`
# (crates/tls/src/cli.rs, crates/serve/src/endpoint.rs). A string match
# arm or comparison for one of them in a binary or example is a second
# parser for the same flag.
SHARED_FLAGS='jobs|deadline-ms|max-mem-mb|fuel|checkpoint|checkpoint-every-secs|resume|trace|profile|metrics|variant|spill-dir|max-resident-shards|socket|tcp'
if grep -nE "\"--($SHARED_FLAGS)\"[[:space:]]*(=>|\|)|==[[:space:]]*\"--($SHARED_FLAGS)\"" \
    crates/*/src/bin/*.rs examples/*.rs; then
    echo "a binary or example parses a shared flag itself; use equitls_tls::cli" >&2
    exit 1
fi

echo "== prover: one configuration; VerifyOptions survives only as an alias =="
# `ProverConfig` is the prover's one configuration. The old name stays
# only as the alias in crates/tls/src/verify.rs, which the campaign
# bench imports; any other use of it is a second name for one struct.
ALIAS='^crates/tls/src/verify\.rs:[0-9]+:pub type VerifyOptions = ProverConfig;$'
if grep -rn "VerifyOptions" crates src examples tests | grep -vE "$ALIAS"; then
    echo "VerifyOptions is used beyond its alias; use ProverConfig" >&2
    exit 1
fi

echo "== model checker: one thread, no locks, no duplicate probe =="
# The explorer expands every BFS level on the calling thread, and the
# merge loop is the visited set's only user (EXPERIMENTS.md E31). A
# thread, a lock or a concurrent probe in crates/mc/src is a second,
# parallel search path.
if grep -rnE "std::thread|Mutex|fn probe" crates/mc/src; then
    echo "crates/mc/src starts threads or locks its visited set; the search runs on one thread" >&2
    exit 1
fi

echo "== model checker: files of at most 1,000 lines; one owner of the shard-file format =="
# crates/mc/src is split by concern (EXPERIMENTS.md E36): explorer.rs
# runs the search, checkpoint.rs owns the explorer snapshot, and
# visited.rs owns the visited store, its spill policy and (in
# visited/shard_file.rs) its shard files. A file over 1,000 lines has
# outgrown its concern, and a shard-file routine named in the explorer
# or the checkpoint is a second owner of that format.
if find crates/mc/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 1000' | grep .; then
    echo "a crates/mc/src file is over 1,000 lines; split it by concern" >&2
    exit 1
fi
if grep -nE "read_shard_file|shard_file_name|digest_entries" \
    crates/mc/src/explorer.rs crates/mc/src/checkpoint.rs; then
    echo "the explorer or the checkpoint reads shard files itself; go through VisitedStore" >&2
    exit 1
fi

echo "== rewrite engine: polynomials become terms only through the store; caches are dense =="
# The normalizer's PolyStore (crates/rewrite/src/boolring.rs) interns
# every Boolean normal form and memoizes the term it rebuilds to
# (EXPERIMENTS.md E32). A direct `Poly::to_term` call in the engine is a
# second, unmemoized path.
if grep -nE '\.to_term\(' crates/rewrite/src/engine.rs; then
    echo "crates/rewrite/src/engine.rs bypasses its PolyStore; go through PolyStore::term and PolyId" >&2
    exit 1
fi
# The memo and the polynomial cache are TermCaches
# (crates/rewrite/src/cache.rs): slots indexed by term id, cleared by an
# epoch bump and restored at a scope's pop from one write log (E37). A
# hash map keyed by term id in the engine is a second cache beside them.
if grep -nE 'FxHashMap<TermId,' crates/rewrite/src/engine.rs; then
    echo "crates/rewrite/src/engine.rs declares a hash-map cache keyed by TermId; use TermCache" >&2
    exit 1
fi

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test -q =="
cargo test -q --workspace

echo "== campaign bench: the API it pins still builds and its tests pass =="
cargo test -q --release --manifest-path campaign_bench/Cargo.toml

echo "== tls-lint: every target's report matches the committed text =="
# Stdout over all eight targets, against scripts/counts/tls-lint.txt:
# every finding and note, including the critical-pair, joinable and
# pruned counts. A change meant to move a finding regenerates the file
# with the same command and says why.
cargo run -q --release -p equitls-tls --bin tls-lint | diff - scripts/counts/tls-lint.txt

echo "== parallel determinism (2 jobs) =="
cargo test -q --release --test parallel_determinism

echo "== robustness: fault injection + 2s-deadline smoke (jobs 1/2/4) =="
cargo test -q --release --test robustness
cargo test -q --release -p equitls-tls --test cli_budget

echo "== checkpoint/resume: determinism (jobs 1/2/4) + snapshot corruption =="
cargo test -q --release --test checkpoint_determinism
cargo test -q --release -p equitls-tls --test cli_checkpoint

echo "== checkpoint/resume: kill-and-resume smoke =="
# Interrupt a campaign with a short deadline (ledger stays on disk),
# resume it to completion, and diff the report against a straight-through
# run — identical up to wall-clock columns (field 5 of every table row).
CKPT="$(mktemp -u /tmp/equitls_check_XXXXXX.snap)"
STRIP_TIMES='{ $5 = ""; print }'
cargo run -q --release -p equitls-tls --bin tls-prove -- \
    lem-cepms-cpms inv1 --deadline-ms 60 --checkpoint "$CKPT" > /dev/null || true
cargo run -q --release -p equitls-tls --bin tls-prove -- \
    lem-cepms-cpms inv1 --resume --checkpoint "$CKPT" \
    | awk "$STRIP_TIMES" > /tmp/equitls_check_resumed.txt
cargo run -q --release -p equitls-tls --bin tls-prove -- \
    lem-cepms-cpms inv1 \
    | awk "$STRIP_TIMES" > /tmp/equitls_check_straight.txt
diff /tmp/equitls_check_resumed.txt /tmp/equitls_check_straight.txt
rm -f "$CKPT" /tmp/equitls_check_resumed.txt /tmp/equitls_check_straight.txt

echo "== proof scores: every recorded score of both models matches its golden digest =="
# One FNV-1a digest per (model, property) of the rendered recorded scores
# in tests/golden/score_digests.txt, plus lem-src-honest's scores byte for
# byte.
cargo test -q --release --test proof_scores

echo "== proof counts: both models match the committed per-obligation tables at jobs 1 and 2 =="
# Verdicts and per-obligation passages, splits and rewrites of the whole
# campaign on the Figure 2 model and the §5.3 variant, wall-clock column
# stripped, against scripts/counts/. Explicit job counts keep the gate
# independent of the host's core count: one worker runs every obligation
# on one rolled-back spec, two workers interleave them. A change that
# means to move a count regenerates the tables with the same commands
# and says why.
for JOBS in 1 2; do
    cargo run -q --release -p equitls-tls --bin tls-prove -- --all --jobs "$JOBS" \
        | awk "$STRIP_TIMES" | diff - scripts/counts/prove_all_standard.txt
    cargo run -q --release -p equitls-tls --bin tls-prove -- --all --variant --jobs "$JOBS" \
        | awk "$STRIP_TIMES" | diff - scripts/counts/prove_all_variant.txt
done

echo "== open cases: fuel-starved campaigns match the committed decision and residual text at jobs 1 and 2 =="
# At 20 rewrites of fuel most obligations stay open, so these tables pin
# the rendered text of every open case: its `assume …` decisions and its
# `residual:` line, including the fuel stop's engine counters. The count
# tables above have no open case, so nothing else pins that text. A
# campaign with open cases exits 1.
FUEL_OUT="$(mktemp /tmp/equitls_check_fuel20_XXXXXX.txt)"
for JOBS in 1 2; do
    for MODEL in standard variant; do
        VARIANT_FLAG=()
        [ "$MODEL" = variant ] && VARIANT_FLAG=(--variant)
        STATUS=0
        cargo run -q --release -p equitls-tls --bin tls-prove -- \
            --all "${VARIANT_FLAG[@]}" --fuel 20 --jobs "$JOBS" > "$FUEL_OUT" || STATUS=$?
        test "$STATUS" -eq 1
        awk "$STRIP_TIMES" "$FUEL_OUT" | diff - "scripts/counts/prove_all_fuel20_$MODEL.txt"
    done
done
rm -f "$FUEL_OUT"

echo "== model checker: resident run and its resume match the committed table; spill smoke (ceiling completes by spilling, bit-identical) =="
# A 16 MiB heap ceiling truncates the bound-3 scope check when the
# visited set must stay resident; the same ceiling with a spill
# directory completes by pushing cold shards to disk — bit-identical to
# an unconstrained run (wall-clock stripped), with the degradation
# disclosed, a resumable manifest checkpoint, and typed failure on a
# corrupted shard file.
SPILL_DIR="$(mktemp -d /tmp/equitls_check_spill_XXXXXX)"
SPILL_CKPT="$(mktemp -u /tmp/equitls_check_XXXXXX.spill.snap)"
MC="cargo run -q --release --example model_check --"
STRIP_DURATION='s/depth ([0-9]+), [^,]*, complete/depth \1, T, complete/'
$MC | sed -E "$STRIP_DURATION" > /tmp/equitls_check_spill_base.txt
# The resident run itself is pinned: states, depths, states per depth,
# verdicts and traces of every bound, durations stripped, against
# scripts/counts/model_check.txt. A change meant to move them
# regenerates the table with the command above and says why.
diff /tmp/equitls_check_spill_base.txt scripts/counts/model_check.txt
# Resident resume: a finished inline checkpoint resumes to the same table.
RES_CKPT="$(mktemp -u /tmp/equitls_check_XXXXXX.res.snap)"
$MC --checkpoint "$RES_CKPT" > /dev/null
$MC --checkpoint "$RES_CKPT" --resume | sed -E "$STRIP_DURATION" \
    | diff - scripts/counts/model_check.txt
rm -f "$RES_CKPT".m*
# Resident-only under the ceiling: typed truncation, disclosed. The
# cut is pinned: bound 3 stops at 69,839 states with its `unexpanded:`
# line, against scripts/counts/model_check_mem16.txt, so a change to the
# store's memory estimate shows here.
$MC --max-mem-mb 16 | sed -E "$STRIP_DURATION" > /tmp/equitls_check_spill_trunc.txt
grep -q "stopped: memory ceiling exceeded" /tmp/equitls_check_spill_trunc.txt
grep -q "unexpanded:" /tmp/equitls_check_spill_trunc.txt
diff /tmp/equitls_check_spill_trunc.txt scripts/counts/model_check_mem16.txt
# Same ceiling + spill tier: completes, spills, matches the baseline.
$MC --max-mem-mb 16 --spill-dir "$SPILL_DIR" --checkpoint "$SPILL_CKPT" \
    > /tmp/equitls_check_spill_full.txt
test "$(grep -c 'complete: true' /tmp/equitls_check_spill_full.txt)" -eq 3
grep -q "visited-spilled" /tmp/equitls_check_spill_full.txt
test "$(find "$SPILL_DIR" -name '*.vshard' | wc -l)" -ge 1
sed -E "$STRIP_DURATION" /tmp/equitls_check_spill_full.txt \
    | grep -v '^  spill:' \
    | diff - /tmp/equitls_check_spill_base.txt
# Its spill line (shards spilled, bytes written, reloads) is pinned too,
# against scripts/counts/model_check_spill16.txt; the checkpoint's
# flushes count in its bytes.
sed -E "$STRIP_DURATION" /tmp/equitls_check_spill_full.txt \
    | diff - scripts/counts/model_check_spill16.txt
# A byte-flipped shard fails the resume with a typed error and exit 2 …
VSHARD="$(find "$SPILL_DIR" -name '*.vshard' | sort | tail -1)"
python3 - "$VSHARD" <<'EOF'
import sys
path = sys.argv[1]
data = bytearray(open(path, 'rb').read())
data[-1] ^= 1
open(path, 'wb').write(data)
EOF
if $MC --max-mem-mb 16 --spill-dir "$SPILL_DIR" \
    --checkpoint "$SPILL_CKPT" --resume \
    > /dev/null 2> /tmp/equitls_check_spill_corrupt.err; then
    echo "resume over a corrupted shard must fail" >&2
    exit 1
fi
grep -q "cannot resume" /tmp/equitls_check_spill_corrupt.err
# … and the restored bytes resume to the identical final tables.
python3 - "$VSHARD" <<'EOF'
import sys
path = sys.argv[1]
data = bytearray(open(path, 'rb').read())
data[-1] ^= 1
open(path, 'wb').write(data)
EOF
$MC --max-mem-mb 16 --spill-dir "$SPILL_DIR" \
    --checkpoint "$SPILL_CKPT" --resume \
    | sed -E "$STRIP_DURATION" | grep -v '^  spill:' \
    | diff - /tmp/equitls_check_spill_base.txt
# Disk-full injection: the first shard write fails, the shard stays
# resident, the run still completes identically — degradation disclosed.
rm -rf "$SPILL_DIR"; mkdir -p "$SPILL_DIR"
$MC --max-mem-mb 16 --spill-dir "$SPILL_DIR" --inject-spill-write-fault 0 \
    > /tmp/equitls_check_spill_fault.txt
test "$(grep -c 'complete: true' /tmp/equitls_check_spill_fault.txt)" -eq 3
grep -q "spill-write-failed" /tmp/equitls_check_spill_fault.txt
sed -E "$STRIP_DURATION" /tmp/equitls_check_spill_fault.txt \
    | grep -v '^  spill:' \
    | diff - /tmp/equitls_check_spill_base.txt
# One checkpoint per network bound, named by appending `.m<bound>`.
test -f "$SPILL_CKPT".m3
rm -rf "$SPILL_DIR" "$SPILL_CKPT".m* /tmp/equitls_check_spill_*.txt /tmp/equitls_check_spill_corrupt.err

echo "== spill determinism suite (jobs 1/2/4) =="
cargo test -q --release --test spill_determinism

echo "== trace smoke: profiled campaign -> summarize/export/diff =="
# A profiled proof writes a JSONL trace and a Chrome trace; the offline
# tool must summarize it, convert it, and find no regression against
# itself.
TRACE="$(mktemp -u /tmp/equitls_check_XXXXXX.jsonl)"
PROFILE="$(mktemp -u /tmp/equitls_check_XXXXXX.chrome.json)"
cargo run -q --release -p equitls-tls --bin tls-prove -- \
    lem-src-honest --trace "$TRACE" --profile "$PROFILE" > /dev/null
test -s "$TRACE" && test -s "$PROFILE"
cargo run -q --release -p equitls-tls --bin tls-trace -- \
    summarize "$TRACE" > /dev/null
cargo run -q --release -p equitls-tls --bin tls-trace -- \
    export "$TRACE" --chrome "${PROFILE}.2" > /dev/null
cargo run -q --release -p equitls-tls --bin tls-trace -- \
    diff "$TRACE" "$TRACE" > /dev/null
rm -f "$TRACE" "$PROFILE" "${PROFILE}.2"

echo "== SARIF + dependency graph well-formedness =="
SARIF="$(mktemp -u /tmp/equitls_check_XXXXXX.sarif)"
DOT="$(mktemp -u /tmp/equitls_check_XXXXXX.dot)"
cargo run -q --release -p equitls-tls --bin tls-lint -- \
    --sarif "$SARIF" --graph "$DOT" > /dev/null
python3 - "$SARIF" <<'EOF'
import json, sys
log = json.load(open(sys.argv[1]))
assert log["version"] == "2.1.0", log["version"]
assert len(log["runs"]) >= 1
run = log["runs"][0]
rules = run["tool"]["driver"]["rules"]
assert any(r["id"] == "unbound-variable" for r in rules)
assert any(r["id"] == "dead-rule" for r in rules)
results = run["results"]
assert results, "the fixture targets must contribute findings"
assert all("ruleId" in r for r in results)
assert any(
    "region" in loc["physicalLocation"]
    for r in results
    for loc in r.get("locations", [])
), "findings about parsed equations must carry source regions"
EOF
grep -q "^digraph" "$DOT"
rm -f "$SARIF" "$DOT"

echo "== serve: concurrency determinism (jobs 1/2/4) + signal drain =="
cargo test -q --release --test serve_determinism
cargo test -q --release -p equitls-serve
cargo test -q --release -p equitls-tls --test cli_signal

echo "== serve smoke: daemon, kill -9 mid-campaign, resume, byte-compare =="
# Start a daemon with a journaled queue, submit a campaign of async
# (--ack) jobs, kill -9 the daemon mid-campaign, restart it with
# --resume, drain, and byte-compare the replayed results file against a
# straight-through run of the same submissions.
SERVE_SOCK="$(mktemp -u /tmp/equitls_check_XXXXXX.sock)"
SERVE_JOURNAL="$(mktemp -u /tmp/equitls_check_XXXXXX.queue.snap)"
SERVE_RESUMED=/tmp/equitls_check_serve_resumed.jsonl
SERVE_STRAIGHT=/tmp/equitls_check_serve_straight.jsonl
SERVE="./target/release/equitls-serve"
CLIENT="./target/release/tls-client"
wait_for_socket() {
    for _ in $(seq 1 100); do
        [ -S "$1" ] && return 0
        sleep 0.1
    done
    echo "daemon never opened $1" >&2
    return 1
}
submit_campaign() {
    "$CLIENT" --socket "$SERVE_SOCK" --id j1 --ack prove inv1 > /dev/null
    "$CLIENT" --socket "$SERVE_SOCK" --id j2 --ack prove lem-src-honest > /dev/null
    "$CLIENT" --socket "$SERVE_SOCK" --id j3 --ack check --max-depth 2 > /dev/null
    "$CLIENT" --socket "$SERVE_SOCK" --id j4 --ack lint --target standard > /dev/null
    "$CLIENT" --socket "$SERVE_SOCK" --id j5 --ack prove inv2 > /dev/null
}
# Leg 1: admit the campaign, then kill -9 before it finishes.
"$SERVE" --socket "$SERVE_SOCK" --workers 1 --journal "$SERVE_JOURNAL" &
SERVE_PID=$!
wait_for_socket "$SERVE_SOCK"
submit_campaign
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
# kill -9 leaves the socket file behind; remove it so wait_for_socket
# observes the restarted daemon's bind, not the stale file.
rm -f "$SERVE_SOCK"
# Leg 2: restart from the journal, drain, collect the replayed results.
"$SERVE" --socket "$SERVE_SOCK" --workers 1 --journal "$SERVE_JOURNAL" \
    --resume --results "$SERVE_RESUMED" &
SERVE_PID=$!
wait_for_socket "$SERVE_SOCK"
"$CLIENT" --socket "$SERVE_SOCK" drain > /dev/null
wait "$SERVE_PID"
# Leg 3: the same campaign straight through, no kill.
rm -f "$SERVE_JOURNAL"
"$SERVE" --socket "$SERVE_SOCK" --workers 1 --journal "$SERVE_JOURNAL" \
    --results "$SERVE_STRAIGHT" &
SERVE_PID=$!
wait_for_socket "$SERVE_SOCK"
submit_campaign
"$CLIENT" --socket "$SERVE_SOCK" drain > /dev/null
wait "$SERVE_PID"
test -s "$SERVE_RESUMED"
cmp "$SERVE_RESUMED" "$SERVE_STRAIGHT"
rm -f "$SERVE_SOCK" "$SERVE_JOURNAL" "$SERVE_RESUMED" "$SERVE_STRAIGHT"

echo "== bench smoke =="
BENCH_SMOKE=1 cargo bench -q -p equitls-bench --bench parallel
BENCH_SMOKE=1 cargo bench -q -p equitls-bench --bench serve

echo "== rewriting bench smoke: ring products run; indexed must not lose to linear scan =="
# A fixed tiny workload: one ring product per operand shape (no timing
# gate; both shapes must be reported), then both engine legs. Wall times
# jitter, so the leg gate is deliberately loose (indexed within 1.5x of
# linear on the fan-out normalize loop); the structural assertions are
# exact — the index must be bit-identical and must actually prune.
REWRITING_JSON="$(mktemp -u /tmp/equitls_check_XXXXXX.rewriting.json)"
BENCH_SMOKE=1 BENCH_OUT="$REWRITING_JSON" \
    cargo bench -q -p equitls-bench --bench rewriting
python3 - "$REWRITING_JSON" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
kernels = {row["shape"]: row["kernel"] for row in doc["ring_products"]}
assert kernels == {"lem-rand-ur": "truth-table", "14-atoms": "pairwise"}, kernels
legs = {leg["leg"]: leg for leg in doc["fanout"]["legs"]}
linear, indexed = legs["linear"], legs["indexed"]
assert indexed["normalize_ms"] <= 1.5 * linear["normalize_ms"], (
    f"indexed fan-out {indexed['normalize_ms']:.3f} ms vs "
    f"linear {linear['normalize_ms']:.3f} ms"
)
assert indexed["rewrites"] == linear["rewrites"], "indexed must be bit-identical"
assert indexed["index_pruned"] > 0, "the index must prune candidates"
EOF
rm -f "$REWRITING_JSON"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo doc -D warnings (no broken intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== OK =="
