#!/usr/bin/env bash
# Tier-1 verification gate, fully offline (the workspace has zero
# external crate dependencies — see README "Hermetic build").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --offline

echo "== cells are placement-free: no thread-local state in library code =="
if grep -rn 'thread_local!' crates/*/src src; then echo "FAIL: a cell's cost and footprint must not depend on the thread that runs it (crates/harness/src/pool.rs)"; exit 1; fi

echo "== tests (offline) =="
cargo test -q --offline --workspace

echo "== clippy (offline, deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== docs (offline, no deps, whole workspace, broken links denied) =="
cargo doc --no-deps --offline --workspace

echo "== smoke: regenerate Figs. 9-11 (one aged grid; tracing disabled => byte-identical CSVs) =="
cargo run --release --offline -p cagc-bench --bin repro -- fig9 fig10 fig11
git diff --exit-code -- results/fig9.csv results/fig10.csv results/fig11.csv \
  || { echo "FAIL: untraced repro must regenerate results/fig{9,10,11}.csv byte-identical"; exit 1; }

echo "== smoke: deterministic trace (Chrome JSON, parser round-trip, seed-stable) =="
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
cargo run --release --offline -p cagc-bench --bin repro -- \
  --smoke --trace "$TRACE_TMP/a.json" | grep "parser round-trip OK"
cargo run --release --offline -p cagc-bench --bin repro -- \
  --smoke --trace "$TRACE_TMP/b.json" > /dev/null
cmp "$TRACE_TMP/a.json" "$TRACE_TMP/b.json" \
  || { echo "FAIL: same-seed Chrome traces must be byte-identical"; exit 1; }
cmp "$TRACE_TMP/a.jsonl" "$TRACE_TMP/b.jsonl" \
  || { echo "FAIL: same-seed JSONL logs must be byte-identical"; exit 1; }

echo "== smoke: trace analytics (repro inspect: profile, GC anatomy, diff) =="
# Analyzing the JSONL trace from the gate above must reproduce the
# committed inspect goldens byte-identically (the profiler folds spans
# deterministically, and parse -> analyze equals live-replay analyze),
# and the GC anatomy must account for >= 95% of traced GC wall time.
cargo run --release --offline -p cagc-bench --bin repro -- \
  --out results --trace "$TRACE_TMP/a.jsonl" inspect > /dev/null
git diff --exit-code -- results/inspect_profile.csv results/inspect_anatomy.csv results/inspect_flame.txt \
  || { echo "FAIL: repro inspect must regenerate its goldens byte-identical"; exit 1; }
accounted="$(awk -F, '/^total,/{print $6}' results/inspect_anatomy.csv)"
[ "$accounted" -ge 950 ] \
  || { echo "FAIL: GC anatomy accounts for only ${accounted} permille of GC wall time (< 950)"; exit 1; }
# Trace diff: preemption on vs off must show up as per-phase deltas.
cargo run --release --offline -p cagc-bench --bin repro -- \
  --smoke --preempt --trace "$TRACE_TMP/p.json" > /dev/null
cargo run --release --offline -p cagc-bench --bin repro -- \
  --out "$TRACE_TMP/insp" --diff "$TRACE_TMP/a.jsonl" "$TRACE_TMP/p.jsonl" inspect \
  | grep "GC anatomy diff"
grep -q "^gc_wall," "$TRACE_TMP/insp/inspect_diff.csv" \
  || { echo "FAIL: inspect --diff must report a gc_wall delta row"; exit 1; }

echo "== goldens: every figure, table, ablation and sweep at --scale quick (results/quick/) =="
# Figs. 9-11 above are three artifacts of thirty; this regenerates the whole
# `all ablations` set (26 CSVs) and compares every byte, so a change to the
# code under any of them cannot rot a committed result unseen. Experiments
# that carry asserted gates (sweep-trim, sweep-qd, sweep-fleet, sweep-chaos)
# check them here too.
cargo run --release --offline -p cagc-bench --bin repro -- \
  --scale quick --out "$TRACE_TMP/quick" all ablations > /dev/null
diff -r results/quick "$TRACE_TMP/quick" \
  || { echo "FAIL: repro --scale quick all ablations must regenerate results/quick/ byte-identical"; exit 1; }

echo "== smoke: fault sweep + power-loss recovery =="
cargo run --release --offline --example fault_sweep -- --smoke

echo "== smoke: queue-depth sweep (QD=1 equivalence + byte-determinism) =="
cargo run --release --offline -p cagc-bench --bin repro -- \
  --scale quick --out "$TRACE_TMP/qd1" sweep-qd | grep "QD=1 equivalence OK"
cargo run --release --offline -p cagc-bench --bin repro -- \
  --scale quick --out "$TRACE_TMP/qd2" sweep-qd > /dev/null
cmp "$TRACE_TMP/qd1/sweep_qd.csv" "$TRACE_TMP/qd2/sweep_qd.csv" \
  || { echo "FAIL: same-seed sweep_qd.csv must be byte-identical"; exit 1; }
cmp "$TRACE_TMP/qd1/gc_preempt_cdf.csv" "$TRACE_TMP/qd2/gc_preempt_cdf.csv" \
  || { echo "FAIL: same-seed gc_preempt_cdf.csv must be byte-identical"; exit 1; }

echo "== smoke: armed resilience is invisible on fault-free devices =="
# --resilient arms the host retry/backoff/deadline policy; with no
# injected faults it must not change a single byte (docs/FAULTS.md).
cargo run --release --offline -p cagc-bench --bin repro -- \
  --scale quick --out "$TRACE_TMP/qd3" --resilient sweep-qd > /dev/null
cmp "$TRACE_TMP/qd1/sweep_qd.csv" "$TRACE_TMP/qd3/sweep_qd.csv" \
  || { echo "FAIL: --resilient must not change fault-free sweep_qd.csv"; exit 1; }
cmp "$TRACE_TMP/qd1/gc_preempt_cdf.csv" "$TRACE_TMP/qd3/gc_preempt_cdf.csv" \
  || { echo "FAIL: --resilient must not change fault-free gc_preempt_cdf.csv"; exit 1; }

echo "== smoke: fleet sweep (analytic WAF gate + worker-count byte-determinism) =="
# The dynamic scheduler must be invisible in the output: one worker vs
# machine parallelism, byte-identical CSVs (docs/FLEET.md).
cargo run --release --offline -p cagc-bench --bin repro -- \
  --scale quick --out "$TRACE_TMP/fleet1" --workers 1 sweep-fleet \
  | grep "fleet WAF tracks analytic greedy curve"
cargo run --release --offline -p cagc-bench --bin repro -- \
  --scale quick --out "$TRACE_TMP/fleet2" --workers 0 sweep-fleet > /dev/null
cmp "$TRACE_TMP/fleet1/sweep_fleet.csv" "$TRACE_TMP/fleet2/sweep_fleet.csv" \
  || { echo "FAIL: sweep_fleet.csv must be byte-identical across worker counts"; exit 1; }
cmp "$TRACE_TMP/fleet1/fleet_qos.csv" "$TRACE_TMP/fleet2/fleet_qos.csv" \
  || { echo "FAIL: fleet_qos.csv must be byte-identical across worker counts"; exit 1; }
cmp "$TRACE_TMP/fleet1/fleet_timeline.csv" "$TRACE_TMP/fleet2/fleet_timeline.csv" \
  || { echo "FAIL: fleet_timeline.csv must be byte-identical across worker counts"; exit 1; }

echo "== smoke: observability is pay-as-you-go (default sweep-fleet vs goldens) =="
# The observability cell arms gauges + SLO tracking for one fleet; every
# other grid cell stays untraced and must keep regenerating the committed
# sweep-fleet goldens byte-identically (docs/OBSERVABILITY.md).
cargo run --release --offline -p cagc-bench --bin repro -- \
  --out results sweep-fleet > /dev/null
git diff --exit-code -- results/sweep_fleet.csv results/fleet_qos.csv results/fleet_timeline.csv \
  || { echo "FAIL: sweep-fleet must regenerate its goldens byte-identical with observability armed"; exit 1; }

echo "== smoke: chaos campaign (graceful degradation + worker-count byte-determinism) =="
# The sweep asserts its own gates (zero-fault cells byte-identical to a
# fault-free fleet; every harsh cell degrades with tenant attribution)
# and prints the token grepped here. Worker counts must be invisible in
# the bytes even when devices degrade mid-replay (docs/FAULTS.md).
cargo run --release --offline -p cagc-bench --bin repro -- \
  --scale quick --out "$TRACE_TMP/chaos1" --workers 1 sweep-chaos \
  | grep "chaos gate OK"
cargo run --release --offline -p cagc-bench --bin repro -- \
  --scale quick --out "$TRACE_TMP/chaos2" --workers 0 sweep-chaos > /dev/null
cmp "$TRACE_TMP/chaos1/sweep_chaos.csv" "$TRACE_TMP/chaos2/sweep_chaos.csv" \
  || { echo "FAIL: sweep_chaos.csv must be byte-identical across worker counts"; exit 1; }

echo "== benchmark package: unit tests + short GC-heavy and traced-chaos runs (BENCHMARK.json) =="
# benchmark/ is a workspace of its own, so `cargo test --workspace` above
# never reaches it: its tests hold the catalog <-> BENCHMARK.json drift
# check. The 3 s runs are judged on exit status only — the output checks
# (every iteration reproduces the warm-up's bytes, Ssd::audit clean; for
# host_chaos_traced: no event dropped at the tracer cap, profile and
# anatomy digests stable across iterations, device not read-only);
# timing is the benchmark driver's business, not this gate's.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
for workload in gc_write_heavy host_chaos_traced; do
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seed 7 --seconds 3 --trace 0 > /dev/null
done

echo "== perf: fleet fan-out bench vs committed baseline (docs/FLEET.md) =="
# Same retry discipline as the hotpath gate below. The w1-vs-w8 speedup
# floor is only meaningful with real cores behind the workers, so the
# scaling clause is enforced on >= 8-core machines; smaller boxes still
# gate the per-shape medians against the committed baseline.
fleet_speedup_args=()
if [ "$(nproc)" -ge 8 ]; then
  fleet_speedup_args=(--speedup-ref "$TRACE_TMP/bench/BENCH_fleet.json"
    --speedup-ref-name fleet/replay_w1
    --speedup-bench fleet/replay_w8_dynamic --speedup-min 5.0)
fi
mkdir -p "$TRACE_TMP/bench"
fleet_ok=0
for attempt in 1 2 3; do
  [ "$attempt" -gt 1 ] && echo "-- fleet perf gate attempt $attempt (previous attempt hit noise or a regression)"
  rm -f crates/bench/BENCH_fleet.json
  HARNESS_BENCH_FAST=1 cargo bench --offline -p cagc-bench --bench fleet
  mv crates/bench/BENCH_fleet.json "$TRACE_TMP/bench/"
  if cargo run --release --offline -p cagc-bench --bin bench_check -- \
       results/BENCH_fleet.json "$TRACE_TMP/bench/BENCH_fleet.json" \
       ${fleet_speedup_args[@]+"${fleet_speedup_args[@]}"}; then
    fleet_ok=1
    break
  fi
done
if [ "$fleet_ok" -ne 1 ]; then
  echo "FAIL: fleet bench regressed beyond tolerance in all 3 attempts (docs/FLEET.md)"
  exit 1
fi

echo "== perf: hotpath bench vs committed baseline (docs/PERFORMANCE.md) =="
# Smoke-budget run of the hot-path suite (HARNESS_BENCH_FAST trims the
# sample count; medians stay comparable because per-iteration time is
# unchanged). Regressions beyond the tolerance fail like correctness
# bugs; raise CAGC_BENCH_TOLERANCE_PCT on noisy machines.
# cargo runs bench binaries with the package directory as cwd, so the
# fresh artifact lands in crates/bench/; stash it in the temp dir.
# Wall time only ever inflates under competing load, so a strict check is
# retried: one quiet window in three attempts is enough to prove no
# regression, while a real regression fails all three.
# The speedup clause is the device-size gate, a ratio inside the fresh run
# (so machine speed cancels): the same 256 GC rounds on 8x the blocks may
# cost at most 3.3x (1.7-2.4x measured; 4.5-6.5x with a per-round block scan).
mkdir -p "$TRACE_TMP/bench"
perf_ok=0
for attempt in 1 2 3; do
  [ "$attempt" -gt 1 ] && echo "-- perf gate attempt $attempt (previous attempt hit noise or a regression)"
  rm -f crates/bench/BENCH_hotpath.json
  HARNESS_BENCH_FAST=1 cargo bench --offline -p cagc-bench --bench hotpath
  mv crates/bench/BENCH_hotpath.json "$TRACE_TMP/bench/"
  if cargo run --release --offline -p cagc-bench --bin bench_check -- \
       results/BENCH_hotpath.json "$TRACE_TMP/bench/BENCH_hotpath.json" \
       --speedup-ref "$TRACE_TMP/bench/BENCH_hotpath.json" \
       --speedup-ref-name hotpath/device_churn_1gb \
       --speedup-bench hotpath/device_churn_8gb --speedup-min 0.3; then
    perf_ok=1
    break
  fi
done
if [ "$perf_ok" -ne 1 ]; then
  echo "FAIL: hotpath bench regressed beyond tolerance in all 3 attempts (docs/PERFORMANCE.md)"
  exit 1
fi

echo "verify: OK"
