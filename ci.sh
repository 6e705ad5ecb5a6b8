#!/usr/bin/env bash
# CI gate for the HDPAT reproduction. Ordered cheapest-first so fast failures
# come fast: formatting, clippy with the determinism rules of the root
# clippy.toml and [workspace.lints] (DESIGN.md §8.1), rustdoc (warnings
# denied) + doctests, then the tier-1 build + tests (which include the
# golden digests of every run point, figure table, trace, timeline and
# heatmap, the trace and telemetry
# determinism gates of DESIGN.md §10, and the structures' debug-build
# invariant checks), the full workspace suite, the release-build
# equivalence proptests and golden digests with and without debug
# assertions, the timeline/heatmap artifacts byte-identical across --jobs,
# the EXPERIMENTS.md drift gate over every figure-registry table and the
# PROTOCOL.md drift gate (DESIGN.md §9, §14), the
# serve lane (DESIGN.md §14: batch and socket replays of the
# fig14 request mix must digest byte-identically, with the warm pass
# answered entirely from the persistent run cache, plus cross-process cache
# reuse by `figure fig14`), the ops lane (a daemon with
# --ops-log/--metrics-out must produce a byte-identical replay digest, a
# reconciling metrics snapshot, and a complete request-lifecycle log, and a
# stdio daemon must dump well-formed Prometheus text, with no budget series
# when it runs without --cache-budget), the perfbench build and unit tests
# (its layer replay drives the traces, CU pipelines and TLBs directly), and
# the perf-trajectory gate (DESIGN.md §11/§16): fig14 must stay
# byte-identical to the pre-PR-4 golden run, and the median serial events/s
# of three runs must stay within 10% of the committed BENCH_PR9.json point.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy + determinism rules (clippy.toml, [workspace.lints], -D warnings)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== rustdoc (workspace, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== doctests"
cargo test --workspace --doc -q

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== workspace tests"
cargo test --workspace -q

# Release builds: the structure-vs-model proptests (the event queue's are in
# wsg-sim, whose unit tests also show a past push panicking without debug
# assertions) and the golden digests at full optimization, then again with
# debug assertions on, so the structures' invariant checks (DESIGN.md §10.5)
# run over every golden point in a release-optimised build.
echo "== release equivalence proptests + golden digests, with and without debug assertions"
cargo test --release --test equivalence --test golden_digests -q
cargo test --release -p wsg-sim -q
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true cargo test --release --test equivalence --test golden_digests -q
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true cargo test --release -p wsg-sim -q

echo "== telemetry artifacts: 3 benchmarks x 2 policies, --jobs 1 vs --jobs 4"
mkdir -p target/ci
cargo build --release -q -p wsg-bench
for b in SPMV KM RELU; do
  for p in naive hdpat; do
    ./target/release/hdpat-sim timeline "$b" --policy "$p" --scale unit \
        --jobs 1 --out "target/ci/tl_${b}_${p}_j1.csv" 2> /dev/null
    ./target/release/hdpat-sim timeline "$b" --policy "$p" --scale unit \
        --jobs 4 --out "target/ci/tl_${b}_${p}_j4.csv" 2> /dev/null
    cmp "target/ci/tl_${b}_${p}_j1.csv" "target/ci/tl_${b}_${p}_j4.csv"
    # Non-empty means more than the CSV header line.
    test "$(wc -l < "target/ci/tl_${b}_${p}_j1.csv")" -gt 1
    ./target/release/hdpat-sim heatmap "$b" --policy "$p" --scale unit \
        --jobs 1 --out "target/ci/hm_${b}_${p}_j1.csv" 2> /dev/null
    ./target/release/hdpat-sim heatmap "$b" --policy "$p" --scale unit \
        --jobs 4 --out "target/ci/hm_${b}_${p}_j4.csv" 2> /dev/null
    cmp "target/ci/hm_${b}_${p}_j1.csv" "target/ci/hm_${b}_${p}_j4.csv"
    test "$(wc -l < "target/ci/hm_${b}_${p}_j1.csv")" -gt 1
  done
done

# Regenerates every entry of the figure registry (wsg_bench::figures::all)
# at bench scale and fails if any generated table in EXPERIMENTS.md differs.
echo "== EXPERIMENTS.md drift gate (regen-experiments --check: every figure-registry table)"
cargo run --release -q -p wsg-bench --bin hdpat-sim -- regen-experiments --scale bench --check

echo "== PROTOCOL.md drift gate (regen-protocol --check)"
./target/release/hdpat-sim regen-protocol --check

echo "== serve lane: batch vs socket replay over the persistent cache (DESIGN.md §14)"
rm -rf target/ci/servecache target/ci/hdpat-ci.sock
./target/release/hdpat-sim emit-mix fig14 --scale unit --out target/ci/fig14_mix.ndjson
# Cold in-process replay: populates the content-addressed store and writes
# the reference digest.
./target/release/hdpat-sim replay target/ci/fig14_mix.ndjson \
    --cache-dir target/ci/servecache --jobs 4 \
    --out target/ci/replay_batch.txt --stats-out target/ci/replay_batch_stats.json
# Warm replay through a real daemon on the same store; --shutdown drains and
# stops it over the protocol.
./target/release/hdpat-sim serve --socket target/ci/hdpat-ci.sock --jobs 4 \
    --cache-dir target/ci/servecache 2> target/ci/serve.log &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2> /dev/null || true' EXIT
for _ in $(seq 1 100); do [ -S target/ci/hdpat-ci.sock ] && break; sleep 0.1; done
./target/release/hdpat-sim replay target/ci/fig14_mix.ndjson \
    --socket target/ci/hdpat-ci.sock --shutdown \
    --out target/ci/replay_socket.txt --stats-out target/ci/replay_socket_stats.json
wait "$SERVE_PID"
# The digest must not depend on transport or cache state...
cmp target/ci/replay_batch.txt target/ci/replay_socket.txt
# ...and the warm run must be answered entirely from the persistent store.
grep -q '"disk": 70' target/ci/replay_socket_stats.json
grep -q '"simulated": 0' target/ci/replay_socket_stats.json
# Recency lives in each entry's own mtime: the store holds no sidecar files.
test -z "$(find target/ci/servecache -name '*.atime')"

echo "== cross-process run-cache reuse (figure fig14 from the daemon's store)"
./target/release/hdpat-sim figure fig14 --scale unit > target/ci/fig14_unit_ref.txt
./target/release/hdpat-sim figure fig14 --scale unit --cache-dir target/ci/servecache \
    > target/ci/fig14_unit_cached.txt 2> target/ci/fig14_unit_cached.log
cmp target/ci/fig14_unit_ref.txt target/ci/fig14_unit_cached.txt
grep -q '0 simulation(s) executed, 0 cache hit(s), 70 disk hit(s)' target/ci/fig14_unit_cached.log

echo "== ops lane: observability on, replay digest byte-identical (ops log + metrics)"
rm -f target/ci/hdpat-ops.sock target/ci/ops.jsonl target/ci/metrics.json
./target/release/hdpat-sim serve --socket target/ci/hdpat-ops.sock --jobs 4 \
    --cache-dir target/ci/servecache \
    --ops-log target/ci/ops.jsonl --metrics-out target/ci/metrics.json \
    2> target/ci/serve_ops.log &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S target/ci/hdpat-ops.sock ] && break; sleep 0.1; done
./target/release/hdpat-sim replay target/ci/fig14_mix.ndjson \
    --socket target/ci/hdpat-ops.sock --shutdown \
    --out target/ci/replay_ops.txt --stats-out target/ci/replay_ops_stats.json
wait "$SERVE_PID"
# Observability must not change a byte of the deterministic digest...
cmp target/ci/replay_batch.txt target/ci/replay_ops.txt
# ...the warm run still answers entirely from the persistent store...
grep -q '"disk": 70' target/ci/replay_ops_stats.json
# ...the final metrics snapshot is schema-tagged and reconciles: every
# submit accounted for, all of them attributed to the disk tier...
grep -q '"type":"metrics"' target/ci/metrics.json
grep -q '"schema":3' target/ci/metrics.json
grep -q '"submitted":70' target/ci/metrics.json
grep -q '"completed":70' target/ci/metrics.json
grep -q '"disk":{"count":70' target/ci/metrics.json
# ...the disk gauge's one-scan occupancy sees all 70 entries...
grep -q '"disk":{"entries":70,' target/ci/metrics.json
# ...and the ops log carries one enqueue/schedule/complete per request.
test "$(grep -c '"ev":"enqueue"' target/ci/ops.jsonl)" -eq 70
test "$(grep -c '"ev":"schedule"' target/ci/ops.jsonl)" -eq 70
test "$(grep -c '"ev":"complete"' target/ci/ops.jsonl)" -eq 70

echo "== Prometheus exposition (stdio daemon's final --metrics-out dump)"
rm -f target/ci/metrics.prom
printf '' | ./target/release/hdpat-sim serve --stdio --jobs 1 \
    --cache-dir target/ci/servecache --metrics-out target/ci/metrics.prom 2> /dev/null
grep -q '^hdpat_disk_cache_entries 70$' target/ci/metrics.prom
grep -q '^hdpat_requests_submitted 0$' target/ci/metrics.prom
# No --cache-budget: the budget series is absent, not a zero budget. (Not
# `! grep -q`: `set -e` ignores a status inverted with `!`.)
test -z "$(grep '^hdpat_disk_cache_budget_bytes' target/ci/metrics.prom)"
# Every line is a `#` comment or exactly two space-separated tokens.
test -z "$(grep -vE '^#|^[^ ]+ [^ ]+$' target/ci/metrics.prom)"

echo "== metrics wire op (stdio daemon)"
printf '{"op":"metrics"}\n' | ./target/release/hdpat-sim serve --stdio --jobs 1 \
    --cache-dir target/ci/servecache 2> /dev/null > target/ci/metrics_op.json
grep -q '"type":"metrics"' target/ci/metrics_op.json

echo "== perfbench: build + unit tests (helpers, BENCHMARK.json metric list)"
cargo test --release -q --manifest-path perfbench/Cargo.toml

echo "== perf-trajectory gate (fig14 vs pre-PR-4 golden, median of 3, -10% events/s floor)"
for i in 1 2 3; do
  ./target/release/hdpat-sim figure fig14 --scale bench --jobs 1 \
      --perf-out "target/ci/BENCH_PR9_serial_${i}.json" > "target/ci/fig14_${i}.txt"
  cmp tests/golden/fig14_bench.txt "target/ci/fig14_${i}.txt"
  grep -q '"schema": 2' "target/ci/BENCH_PR9_serial_${i}.json"
  grep -q '"jobs": 1,' "target/ci/BENCH_PR9_serial_${i}.json"
done
cat target/ci/BENCH_PR9_serial_2.json
# Regression gate: the median serial (`--jobs 1`, one sweep worker)
# events/s of three fresh runs must stay within 10% of the committed
# trajectory point (BENCH_PR9.json `serial` block). One sample is not
# evidence — two back-to-back runs on one host have differed by 17% — so
# the gate compares the median, which a single slow run cannot drag under
# the floor.
fresh="$(for i in 1 2 3; do
  sed -n 's/.*"events_per_sec": \([0-9]*\).*/\1/p' "target/ci/BENCH_PR9_serial_${i}.json"
done | sort -n | sed -n 2p)"
base="$(sed -n '/"serial"/,/}/s/.*"events_per_sec": \([0-9]*\).*/\1/p' BENCH_PR9.json)"
floor=$((base * 9 / 10))
echo "fig14 serial: median ${fresh} events/s of 3 (committed ${base}, floor ${floor})"
test "$fresh" -ge "$floor"

echo "CI green."
