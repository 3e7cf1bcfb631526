#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, tests.
#
# The container is fully offline (no crates.io access); the workspace has
# no external dependencies, so everything runs with --offline.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$(pwd)

# The gate must leave the working tree as it found it: every step that
# writes files writes them to a temp dir or a gitignored path. Snapshot
# the status (plus a checksum of the tracked diff, which catches a
# rewrite of an already-modified file) and compare at the end. Skipped
# outside a git checkout.
tree_state() {
    git status --porcelain
    git diff --no-ext-diff | cksum
}
tree_before=""
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    tree_before=$(tree_state)
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --offline --release --workspace --all-targets

echo "== cargo test (every workspace member) =="
cargo test --workspace --offline --release -q

echo "== rbpbench (its own workspace, built against crates/*) =="
# The benchmark is not a workspace member, so the steps above never
# compile it: a public-API change would break it unseen. Its build
# output stays in the gitignored rbpbench/target/.
cargo test --release --offline -q --manifest-path rbpbench/Cargo.toml

echo "== cargo doc (missing docs are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --quiet

echo "== rustdoc gate on rbp-serve (store/wire modules hold deny(missing_docs)) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -p rbp-serve --quiet

echo "== rustdoc gate on rbp-stream (crate-wide deny(missing_docs)) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -p rbp-stream --quiet

echo "== rustdoc gate on rbp-hier (crate-wide deny(missing_docs)) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -p rbp-hier --quiet

echo "== quick solver sweep (equivalence + speedup smoke) =="
# exp_solver writes BENCH_solver.json into its working directory: run it
# from a scratch directory so the committed full-run numbers stay put.
sweep_dir=$(mktemp -d)
trap 'rm -rf "$sweep_dir"' EXIT
(cd "$sweep_dir" && "$repo/target/release/exp_solver" --quick)
trap - EXIT
rm -rf "$sweep_dir"

echo "== parallel solver smoke (--threads 4, every partition mode, same optimum) =="
seq_opt=$(./target/release/rbp solve tests/fixtures/chains_2x4.dag 2 3 2 \
    | sed -n 's/^OPT = \([0-9]*\).*/\1/p')
[ -n "$seq_opt" ] || { echo "parallel smoke failed: no sequential OPT"; exit 1; }
for mode in hash bands anchors; do
    par_opt=$(./target/release/rbp solve tests/fixtures/chains_2x4.dag 2 3 2 \
        --threads 4 --partition "$mode" \
        | sed -n 's/^OPT = \([0-9]*\).*/\1/p')
    [ "$seq_opt" = "$par_opt" ] \
        || { echo "parallel smoke failed: sequential=$seq_opt threads4/$mode=$par_opt"; exit 1; }
done
echo "parallel smoke: OPT=$seq_opt at 1 thread and 4 threads x {hash,bands,anchors}"

echo "== hier smoke (three-level solve on the separation gadget) =="
hier_dag=$(mktemp)
trap 'rm -f "$hier_dag"' EXIT
./target/release/rbp gen hier_skip 1 > "$hier_dag"
vanilla_opt=$(./target/release/rbp solve "$hier_dag" 1 3 3 \
    | sed -n 's/^OPT = \([0-9]*\).*/\1/p')
hier_opt=$(./target/release/rbp solve "$hier_dag" 1 3 3 --levels 3 --green-cap 1 --green-cost 1 \
    | sed -n 's/^OPT = \([0-9]*\).*/\1/p')
[ -n "$vanilla_opt" ] && [ -n "$hier_opt" ] \
    || { echo "hier smoke failed: vanilla=$vanilla_opt hier=$hier_opt"; exit 1; }
[ "$hier_opt" -lt "$vanilla_opt" ] \
    || { echo "hier smoke failed: hier=$hier_opt not < vanilla=$vanilla_opt"; exit 1; }
# Degenerate reduction: green_cap=0 must reproduce the vanilla optimum.
degen_opt=$(./target/release/rbp solve "$hier_dag" 1 3 3 --levels 3 --green-cap 0 \
    | sed -n 's/^OPT = \([0-9]*\).*/\1/p')
[ "$degen_opt" = "$vanilla_opt" ] \
    || { echo "hier smoke failed: cap=0 gave $degen_opt, vanilla $vanilla_opt"; exit 1; }
trap - EXIT
rm -f "$hier_dag"
echo "hier smoke: OPT(3-level)=$hier_opt < OPT(2-level)=$vanilla_opt, cap=0 reduces exactly"

echo "== hot-path perf guard (state-count ceiling on a fixed fixture) =="
# Load-independent regression gate for the sequential hot path: the
# settled-state count on this fixture is deterministic, so a ceiling —
# not a wall-clock — catches pruning regressions even on a busy CI
# host. Measured counts on grid_3x3 (k=2, r=3, g=2), OPT = 11, with
# the incumbent-probe + branch-and-bound engine:
#   dominance+heuristic (default) : 27,375 settled
#   dominance off                 : 31,947
#   heuristic off (no probe)      : 80,303
#   both off                      : 187,589
# The 30,000 ceiling passes the default config with ~9% headroom and
# fails if the heuristic or dominance stops pruning. The incumbent
# probe finds no schedule on this fixture within its 20,000-state
# budget, so this guard cannot see it; the incumbent-probe guard below
# covers it.
guard_trace=$(mktemp)
trap 'rm -f "$guard_trace"' EXIT
guard_opt=$(RBP_TRACE="$guard_trace" \
    ./target/release/rbp solve tests/fixtures/grid_3x3.dag 2 3 2 --max-states 30000 \
    | sed -n 's/^OPT = \([0-9]*\).*/\1/p') \
    || { echo "perf guard failed: settled-state count exceeded 30000 (hot-path regression)"; exit 1; }
[ "$guard_opt" = "11" ] \
    || { echo "perf guard failed: OPT=$guard_opt on grid_3x3, expected 11"; exit 1; }
# The same run must emit phase counters and render them as a report
# section, so the profiling layer cannot silently rot.
guard_report=$(./target/release/rbp report "$guard_trace")
echo "$guard_report" | grep -q "## Hot path" \
    || { echo "perf guard failed: no Hot path section in report"; exit 1; }
echo "$guard_report" | grep -q "solver.phase.mpp.idle_suppressed" \
    || { echo "perf guard failed: solver.phase.mpp.idle_suppressed counter missing"; exit 1; }
trap - EXIT
rm -f "$guard_trace"
echo "perf guard: OPT=11 within the 30000-state ceiling, Hot path section rendered"

echo "== three-level perf guard (state-count ceiling on the separation gadget) =="
# The same load-independent gate for the three-level search. Measured
# counts on hier_skip 4 (k=2, r=3, g=2, green_cap=2, green_cost=1),
# OPT = 9:
#   default        : 36,455 settled
#   dominance off  : 36,514
#   heuristic off  : 4,483,187
# The 40,000 ceiling catches a lost heuristic. It does not catch lost
# dominance pruning, which saves this instance almost nothing (the
# grid_3x3 guard above covers that), nor a lost incumbent probe: the
# probe finds no schedule here within its 20,000-state budget, so the
# count is 36,455 with or without it (the incumbent-probe guard below
# covers the probe).
hier_guard_dag=$(mktemp)
trap 'rm -f "$hier_guard_dag"' EXIT
./target/release/rbp gen hier_skip 4 > "$hier_guard_dag"
hier_guard_opt=$(./target/release/rbp solve "$hier_guard_dag" 2 3 2 \
    --levels 3 --green-cap 2 --green-cost 1 --max-states 40000 \
    | sed -n 's/^OPT = \([0-9]*\).*/\1/p') \
    || { echo "three-level perf guard failed: settled-state count exceeded 40000"; exit 1; }
[ "$hier_guard_opt" = "9" ] \
    || { echo "three-level perf guard failed: OPT=$hier_guard_opt on hier_skip 4, expected 9"; exit 1; }
trap - EXIT
rm -f "$hier_guard_dag"
echo "three-level perf guard: OPT=9 within the 40000-state ceiling"

echo "== single-processor perf guard (state-count ceiling at k = 1) =="
# The same load-independent gate for the one-processor path of the one
# exact search (SPP is its k = 1 case). Measured counts on pyramid 4
# (k=1, r=3, g=2), OPT = 37:
#   default        : 340,279 settled
#   dominance off  : 340,279 (it prunes nothing here at k = 1)
#   heuristic off  : 1,027,170
# The 360,000 ceiling passes the default config with ~6% headroom and
# fails if the heuristic stops pruning.
k1_guard_dag=$(mktemp)
trap 'rm -f "$k1_guard_dag"' EXIT
./target/release/rbp gen pyramid 4 > "$k1_guard_dag"
k1_guard_opt=$(./target/release/rbp solve "$k1_guard_dag" 1 3 2 --max-states 360000 \
    | sed -n 's/^OPT = \([0-9]*\).*/\1/p') \
    || { echo "single-processor perf guard failed: settled-state count exceeded 360000"; exit 1; }
[ "$k1_guard_opt" = "37" ] \
    || { echo "single-processor perf guard failed: OPT=$k1_guard_opt on pyramid 4, expected 37"; exit 1; }
trap - EXIT
rm -f "$k1_guard_dag"
echo "single-processor perf guard: OPT=37 within the 360000-state ceiling"

echo "== incumbent-probe guard (state-count ceiling where the probe prunes) =="
# The weighted-A* incumbent probe finds a schedule on fft 2 (k=2, r=3,
# g=2), and branch-and-bound on its cost then prunes the search.
# Measured, OPT = 12:
#   default        : 41,453 settled (solver.phase.mpp.ub_pruned = 221,644)
#   probe disabled : 73,733 settled
# The 50,000 ceiling passes the default config with ~17% headroom and
# fails if the probe stops finding its incumbent or stops pruning.
probe_dag=$(mktemp)
probe_trace=$(mktemp)
trap 'rm -f "$probe_dag" "$probe_trace"' EXIT
./target/release/rbp gen fft 2 > "$probe_dag"
probe_opt=$(RBP_TRACE="$probe_trace" \
    ./target/release/rbp solve "$probe_dag" 2 3 2 --max-states 50000 \
    | sed -n 's/^OPT = \([0-9]*\).*/\1/p') \
    || { echo "probe guard failed: settled-state count exceeded 50000 (incumbent probe lost)"; exit 1; }
[ "$probe_opt" = "12" ] \
    || { echo "probe guard failed: OPT=$probe_opt on fft 2, expected 12"; exit 1; }
ub_pruned=$(./target/release/rbp report "$probe_trace" \
    | sed -n 's/^| solver\.phase\.mpp\.ub_pruned | \([0-9]*\) |$/\1/p')
[ -n "$ub_pruned" ] && [ "$ub_pruned" -gt 0 ] \
    || { echo "probe guard failed: solver.phase.mpp.ub_pruned='$ub_pruned', expected > 0"; exit 1; }
trap - EXIT
rm -f "$probe_dag" "$probe_trace"
echo "probe guard: OPT=12 within the 50000-state ceiling, ub_pruned=$ub_pruned"

echo "== trace report smoke (fixture round trip) =="
./target/release/rbp report tests/fixtures/trace_small.jsonl | grep -q "| chain(4) | 2 | 2 |"
serve_report=$(./target/release/rbp report tests/fixtures/trace_serve.jsonl)
echo "$serve_report" | grep -q "## Serve store" \
    || { echo "report smoke: no Serve store section"; exit 1; }
echo "$serve_report" | grep -q "| serve.store.hit | 2 |" \
    || { echo "report smoke: store hit counter missing"; exit 1; }

echo "== scale smoke (10^5-node grid through the streaming tier) =="
scale_dag=$(mktemp)
scale_trace=$(mktemp)
scale_out=$(mktemp)
trap 'rm -f "$scale_dag" "$scale_trace" "$scale_out"' EXIT
./target/release/rbp gen grid 250 400 > "$scale_dag"
grep -q '^nodes 100000$' "$scale_dag" || { echo "scale smoke: bad generator output"; exit 1; }
# Small memory budget (r=4) on 8 processors; every move goes through
# the rule-enforcing streaming simulator, so a non-zero exit here
# means an *invalid* schedule, not just a slow one.
RBP_TRACE="$scale_trace" ./target/release/rbp schedule "$scale_dag" 8 4 2 --stream \
    || { echo "scale smoke: streaming schedule failed"; exit 1; }
scale_report=$(./target/release/rbp report "$scale_trace")
echo "$scale_report" | grep -q "## Scale" \
    || { echo "scale smoke: no Scale section in report"; exit 1; }
echo "$scale_report" | grep -q "| stream.nodes | 300000 |" \
    || { echo "scale smoke: stream.nodes counter wrong (want 3 schedulers x 100000)"; exit 1; }
echo "$scale_report" | grep -q "stream.nodes_per_sec" \
    || { echo "scale smoke: stream.nodes_per_sec gauge missing"; exit 1; }
echo "$scale_report" | grep -q "stream.peak_active_set" \
    || { echo "scale smoke: stream.peak_active_set gauge missing"; exit 1; }
# Streamed strategy round-trip: emit JSONL, reload it through
# `rbp improve --in` (validates the full strategy in-memory).
./target/release/rbp schedule "$scale_dag" 8 4 2 wavefront --stream --out "$scale_out" \
    || { echo "scale smoke: --out emission failed"; exit 1; }
# `grep -q` closes the pipe at the first match; the CLI then exits 0
# quietly, so under pipefail a failure here is a real one.
./target/release/rbp improve "$scale_dag" 8 4 2 --in "$scale_out" --budget-ms 1 \
    | grep -q "saved:" \
    || { echo "scale smoke: streamed JSONL did not reload"; exit 1; }
trap - EXIT
rm -f "$scale_dag" "$scale_trace" "$scale_out"
echo "scale smoke: 10^5-node grid scheduled, stream.* gauges rendered, JSONL round-trip"

echo "== portfolio smoke (fixture DAG, tight budget) =="
summary=$(./target/release/rbp portfolio tests/fixtures/chains_2x4.dag 2 3 2 --budget-ms 200 \
    | grep '^PORTFOLIO ')
echo "$summary"
total=$(echo "$summary" | sed -n 's/.* total=\([0-9]*\).*/\1/p')
baseline=$(echo "$summary" | sed -n 's/.* baseline=\([0-9]*\).*/\1/p')
[ -n "$total" ] && [ -n "$baseline" ] && [ "$total" -le "$baseline" ] \
    || { echo "portfolio smoke failed: total=$total baseline=$baseline"; exit 1; }

echo "== serve smoke (cache hit + graceful shutdown) =="
serve_log=$(mktemp)
./target/release/rbp serve --addr 127.0.0.1:0 --workers 2 >"$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$serve_log"' EXIT
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^rbp-serve listening on \(.*\)$/\1/p' "$serve_log")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve smoke failed: server never bound"; cat "$serve_log"; exit 1; }
solve_body='{"generator":{"family":"grid","params":[2,3]},"k":2,"r":3,"g":2}'
r1=$(curl -sf -X POST "http://$addr/v1/solve" -d "$solve_body")
r2=$(curl -sf -X POST "http://$addr/v1/solve" -d "$solve_body")
echo "$r1" | grep -q '"cache":"miss"' || { echo "serve smoke: first solve not a miss: $r1"; exit 1; }
echo "$r2" | grep -q '"cache":"hit"'  || { echo "serve smoke: second solve not a hit: $r2"; exit 1; }
t1=$(echo "$r1" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
t2=$(echo "$r2" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
[ -n "$t1" ] && [ "$t1" = "$t2" ] \
    || { echo "serve smoke: cached total differs: cold=$t1 warm=$t2"; exit 1; }
# Hier mode must live in the cache key: same DAG, levels=3 vs vanilla
# are distinct entries with distinct (strictly better) totals.
hier_body='{"generator":{"family":"hier_skip","params":[1]},"k":1,"r":3,"g":3,"levels":3,"green_cap":1,"green_cost":1}'
flat_body='{"generator":{"family":"hier_skip","params":[1]},"k":1,"r":3,"g":3}'
h1=$(curl -sf -X POST "http://$addr/v1/solve" -d "$hier_body")
h2=$(curl -sf -X POST "http://$addr/v1/solve" -d "$hier_body")
f1=$(curl -sf -X POST "http://$addr/v1/solve" -d "$flat_body")
echo "$h1" | grep -q '"cache":"miss"' || { echo "serve smoke: hier solve not a miss: $h1"; exit 1; }
echo "$h2" | grep -q '"cache":"hit"'  || { echo "serve smoke: hier repeat not a hit: $h2"; exit 1; }
echo "$h1" | grep -q '"mode":"hier:cap=1:cost=1"' \
    || { echo "serve smoke: hier mode token not echoed: $h1"; exit 1; }
echo "$f1" | grep -q '"cache":"miss"' \
    || { echo "serve smoke: vanilla body collided with the hier cache key: $f1"; exit 1; }
ht=$(echo "$h1" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
ft=$(echo "$f1" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
[ -n "$ht" ] && [ -n "$ft" ] && [ "$ht" -lt "$ft" ] \
    || { echo "serve smoke: hier total=$ht not < vanilla total=$ft"; exit 1; }
curl -sf -X POST "http://$addr/v1/shutdown" >/dev/null
wait "$serve_pid" || { echo "serve smoke: server exited non-zero"; exit 1; }
trap - EXIT
rm -f "$serve_log"
echo "serve smoke: cache hit (total=$t1), hier keyed separately ($ht < $ft), clean shutdown"

echo "== restart-survival smoke (--store-dir, SIGTERM kill, warm reboot hit) =="
store_dir=$(mktemp -d)
serve_log=$(mktemp)
./target/release/rbp serve --addr 127.0.0.1:0 --workers 2 --store-dir "$store_dir" \
    >"$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$serve_log" "$store_dir"' EXIT
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^rbp-serve listening on \([^ ]*\).*$/\1/p' "$serve_log")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "restart smoke: server never bound"; cat "$serve_log"; exit 1; }
solve_body='{"generator":{"family":"grid","params":[2,3]},"k":2,"r":3,"g":2}'
r1=$(curl -sf -X POST "http://$addr/v1/solve" -d "$solve_body")
echo "$r1" | grep -q '"cache":"miss"' \
    || { echo "restart smoke: first solve not a miss: $r1"; exit 1; }
t1=$(echo "$r1" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
# Abrupt SIGTERM — no graceful drain. The store's checksummed append
# log must still hold the result (crash-tail recovery covers any torn
# final record).
kill -TERM "$serve_pid"
wait "$serve_pid" || true
./target/release/rbp serve --addr 127.0.0.1:0 --workers 2 --store-dir "$store_dir" \
    >"$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^rbp-serve listening on \([^ ]*\).*$/\1/p' "$serve_log")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "restart smoke: reborn server never bound"; cat "$serve_log"; exit 1; }
r2=$(curl -sf -X POST "http://$addr/v1/solve" -d "$solve_body")
echo "$r2" | grep -q '"cache":"hit"' \
    || { echo "restart smoke: reboot did not answer warm: $r2"; exit 1; }
t2=$(echo "$r2" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
[ -n "$t1" ] && [ "$t1" = "$t2" ] \
    || { echo "restart smoke: totals differ across restart: $t1 vs $t2"; exit 1; }
curl -sf -X POST "http://$addr/v1/shutdown" >/dev/null
wait "$serve_pid" || { echo "restart smoke: server exited non-zero"; exit 1; }
trap - EXIT
rm -rf "$serve_log" "$store_dir"
echo "restart smoke: SIGTERM survived, warm hit with identical total=$t1"

echo "== clean-tree check (ci.sh changed no file) =="
if [ -n "$tree_before" ]; then
    tree_after=$(tree_state)
    [ "$tree_before" = "$tree_after" ] || {
        echo "clean-tree check failed: the working tree changed during ci.sh"
        diff <(echo "$tree_before") <(echo "$tree_after") || true
        exit 1
    }
    echo "clean-tree check: git status and the tracked diff are unchanged"
else
    echo "clean-tree check: skipped (not a git checkout)"
fi

echo "CI OK"
