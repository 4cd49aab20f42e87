#!/usr/bin/env bash
# Tier-1 verification gate, fully offline (the workspace has zero
# external crate dependencies — see README "Hermetic build").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --offline

echo "== cells are placement-free: no thread-local state in library code =="
if grep -rn 'thread_local!' crates/*/src src; then echo "FAIL: a cell's cost and footprint must not depend on the thread that runs it (crates/harness/src/pool.rs)"; exit 1; fi

echo "== one owner per block fact: a block is one record, the device owns the bad-block table =="
if grep -rn 'struct Bitmap\|mod bitmap' crates/flash/src || grep -rn 'retired_count\|retired: Vec' crates/ftl/src; then
  echo "FAIL: a block's validity is one u64 in its Copy record and retirement is a flag on it; nothing keeps a second copy (crates/flash/src/block.rs)"; exit 1; fi

echo "== one owner for durable metadata: the device decides whether OOB and journal are kept =="
if grep -rn 'fn journal(' crates/core/src; then
  echo "FAIL: FlashDevice::journal_append is a no-op without a fault plan, exactly as OOB stamping is; a second gate in core lets the two drift apart (docs/FAULTS.md, Durable state)"; exit 1; fi

echo "== one record stream: a recording is written once and read where it lies =="
if grep -rn 'SpanRec\|Args::Live\|Args::Parsed\|Vec<Event>' crates/trace/src; then echo "FAIL: the Tracer's segmented Recording is the record stream — no per-event copy at ingest, no flat event vector that reallocates as it grows (docs/PERFORMANCE.md, Trace pipeline)"; exit 1; fi

echo "== one profile fold: samples as runs, scratch sized by containers, payload in two columns =="
if grep -rnE 'durs: Vec<u64>|struct PackedArg|Segments<PackedArg>' crates/trace/src \
  || find crates/trace/src -name '*.rs' -exec sed -n '/struct Lane[<[:space:]{]/,/^}/p' {} + \
     | grep -nE '(^|[^[:alnum:]_])(start|end)[[:space:]]*:[[:space:]]*Vec<'; then
  echo "FAIL: a profile bucket keeps its durations as sorted (value, count) runs, the fold's lanes are runs of the one 24-byte container array plus their prefix-max ends, and a payload is a u16 key column and a u64 value column (docs/PERFORMANCE.md, Samples as runs)"; exit 1; fi

echo "== one perf ledger: no committed host-time baseline, no second bench runner =="
if [ -n "$(git ls-files 'results/BENCH_*.json' 'crates/*/BENCH_*.json')" ] || grep -rn 'harness::bench\|bench_check' crates src Cargo.toml; then
  echo "FAIL: speed claims are parent-vs-change on benchmark/; the workspace gates host time only as ratios inside one run (ROADMAP Decisions)"; exit 1; fi

echo "== one request path: Ssd::submit, one k-way merge, no request copied to be driven =="
if grep -rn 'process_status\|process_checked' crates src examples tests \
  || grep -rn 'BinaryHeap' crates/fleet/src \
  || grep -rn 'clone_from(contents)\|\.\.req\.clone()\|\.\.r\.clone()' crates/host/src crates/fleet/src crates/bench/src; then
  echo "FAIL: a command reaches the FTL through Ssd::submit, tenant streams merge in workloads::mixer::merge, and a driver restamps a RequestView instead of cloning a Request (DESIGN.md, System inventory)"; exit 1; fi

echo "== one trace layout: 16-byte records, a run table and one content slab, read as views =="
if grep -n 'pub requests: Vec<' crates/workloads/src/trace.rs || grep -rn 'to_request' crates \
  || sed -n '/struct Record {/,/^}/p' crates/workloads/src/trace.rs | grep -nE ':[[:space:]]*(u64|Nanos|usize)\b'; then
  echo "FAIL: a Trace is 16-byte records (four u32s: the low halves of arrival and LPN, pages + operation, slab offset) plus a run table holding the high halves once per run, plus one ContentId slab that every producer fills in place; no 64-bit field in a Record, no Vec<Request> behind it and no view copied back into an owned Request (docs/PERFORMANCE.md, 16-byte records)"; exit 1; fi

echo "== one flat index: 32-byte slab records and 8-byte probe cells =="
if grep -nE 'Vec<Option<Slot>>|hash: u64' crates/dedup/src/index.rs; then
  echo "FAIL: a fingerprint-index record is a plain Copy record where refs == 0 marks a free slot, and a probe cell holds a 32-bit tag, never the whole 64-bit key (docs/PERFORMANCE.md, A flat fingerprint index)"; exit 1; fi

echo "== one sharer list: intrusive lists in flat u32 columns, 32-bit forward-map entries =="
if grep -nE 'RSlot|Many\(Vec<|pos: Vec<' crates/ftl/src/rmap.rs || grep -nE ':[[:space:]]*Vec<Ppn>' crates/ftl/src/mapping.rs; then
  echo "FAIL: a PPN's sharers are an intrusive list (a u32 head per PPN, [prev, next] links and an owner PPN per LPN), allocated from the geometry and never per set, and a forward-map entry is a u32 behind the 64-bit API (docs/PERFORMANCE.md, Intrusive sharer lists)"; exit 1; fi

echo "== one move, one order: every GC copy through relocate_page, every host store through store_page =="
if grep -rnE 'fn migrate_blind|gc_batch|fn program_foreground' crates/core/src || grep -n 'match self.cfg.scheme' crates/core/src/gc.rs; then
  echo "FAIL: GC drains every victim through one per-page step that copies blindly or runs the Fig. 5 decision, and the host side stores through Ssd::store_page, the one owner of the out-of-place order (DESIGN.md, CAGC GC workflow)"; exit 1; fi

echo "== one fold: every fleet rollup merges one record type =="
if grep -rnE 'struct TenantSloSummary|fn merge_totals|fn target_for|targets: Vec<\(String' crates/fleet/src \
  || grep -n 'pub hist: Histogram' crates/fleet/src/report.rs; then
  echo "FAIL: a fleet rollup folds the device records themselves (TrafficTotals::merge, TenantReport::merge, TenantSloTrack::merge) through one first-appearance upsert; no second tenant record, no mix wrapper, no per-tenant SLO override table (docs/FLEET.md, Rollups)"; exit 1; fi

echo "== one host loop: the engine draws commands from a stream and hands each reap to a sink =="
if grep -rnE 'fn replay_open_loop_detailed|fn replay_closed_loop_detailed|Arrive \{' crates/host/src || grep -rn 'interleave_n_tagged' crates; then
  echo "FAIL: HostInterface::replay is one event loop over a (tag, RequestView) stream that draws open-loop arrivals lazily and hands each reaped CmdLatency to a caller sink; no per-command twin of a replay, no arrival events scheduled up front, no merged trace materialised for the fleet's host mode (docs/HOST_INTERFACE.md, Queue model)"; exit 1; fi

echo "== one value, no knob: derived thresholds and fixed costs are not settable =="
if grep -rnE 'pub (gc_low|gc_high|gc_reserve_blocks|read_miss_ns|lookup_ns|trim_ns|idle_threshold_ns|prehash_ns|program_retry_backoff_ns|max_read_retries|ecc_decode_ns|coalesce_depth|coalesce_ns|fetch_ns|completion_ns):' crates \
  || grep -rnE '^[[:space:]]*(pub(\([a-z]+\))? )?(gc_slice_pages|gc_urgent_fraction|max_program_retries|gc_pump|victim_seed|placement):' crates \
  || grep -rnE 'endurance_limit|wearout_slope|FleetTelemetryConfig|enum ConfigError' crates; then
  echo "FAIL: GC thresholds are GcThresholds::of(flash), the GC slice, the retry budget and the victim seed are SsdConfig consts, no cold region is cold_threshold: None, the host pumps whenever the device preempts and its controller costs are fixed by the presets; fleet telemetry takes a TraceConfig, config errors are Strings (DESIGN.md, what stays settable)"; exit 1; fi

echo "== one owner for closed: the allocator closes, one rule seals, the device says what is collectible =="
walk="$(sed -n '/fn select_by_walk(/,/^    }$/p' crates/core/src/gc.rs)"
if grep -rn 'fn seal_if_closed_short' crates \
  || [ "$(grep -rn '\.seal(' crates/core/src | wc -l)" -gt 1 ] \
  || [ -z "$walk" ] || grep -nE 'is_open|is_retired|is_free|invalid_count' <<<"$walk"; then
  echo "FAIL: Ssd::program_region seals, once per program attempt, a block the allocator no longer calls open, and select_by_walk reads FlashDevice::collectible_blocks with no filter of its own (docs/PERFORMANCE.md, Victim index)"; exit 1; fi

echo "== one report schema: a report is written once, by its ToJson; human views are Tables =="
if grep -rn 'fn render(&self) -> String' crates/core/src crates/host/src crates/fleet/src crates/trace/src \
  || grep -rn 'fn fmt_duration' crates; then
  echo "FAIL: a report's one schema is its ToJson; a human view is a cagc_metrics::Table whose cells the caller picks, and the only text renderers are Json::render and Table::render (docs/OBSERVABILITY.md, Report sections)"; exit 1; fi

echo "== one CSV encoder: every CSV row is written by Table::to_csv =="
if grep -rnE --include='*.rs' 'String::from\("[^"]*,[^"]*\\n"\)|"[^"]*(\},|,\{)[^"]*\\n"' crates/*/src src \
  | grep -v '^crates/metrics/src/table\.rs:'; then
  echo "FAIL: a CSV artifact is a cagc_metrics::Table whose to_csv writes the header and every row, quoting a cell that holds a comma or a quote; no code outside crates/metrics/src/table.rs joins CSV cells (DESIGN.md, Adding an experiment)"; exit 1; fi

echo "== tests (offline) =="
cargo test -q --offline --workspace

echo "== metrics tests in release: bucket arithmetic at the top of u64 without overflow checks =="
cargo test --release -q --offline -p cagc-metrics

echo "== clippy (offline, deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== docs (offline, no deps, whole workspace, broken links denied) =="
cargo doc --no-deps --offline --workspace

TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT

# Every CSV of a fresh repro output directory equals its committed twin.
matches_golden() { # <committed dir> <fresh out dir> <what a difference means>
  for f in "$2"/*.csv; do
    cmp "$1/$(basename "$f")" "$f" || { echo "FAIL: $3"; exit 1; }
  done
}

echo "== goldens: every figure, table, ablation and sweep at the default scale (results/) =="
# One untraced default-scale run regenerates all 26 CSVs results/ commits and
# compares every byte, so no default-scale result can go stale unseen (the
# prose test holds EXPERIMENTS.md to these files). Its sweep-fleet arms the
# observability cell (gauges + SLO tracking for one fleet); every other fleet
# cell stays unobserved and must still match its golden (docs/OBSERVABILITY.md).
cargo run --release --offline -p cagc-bench --bin repro -- \
  --out "$TRACE_TMP/default" all ablations > /dev/null
diff <(cd results/quick && ls) <(cd "$TRACE_TMP/default" && ls) \
  || { echo "FAIL: repro all ablations must write the 26 CSVs results/quick/ names"; exit 1; }
matches_golden results "$TRACE_TMP/default" \
  "repro all ablations must regenerate the default-scale CSVs in results/ byte-identical"

echo "== smoke: deterministic trace (Chrome JSON, parser round-trip, seed-stable) =="
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
# The same 26 CSVs at the quick scale, compared byte for byte. Experiments
# that carry asserted gates (sweep-trim, sweep-qd with its QD=1 equivalence,
# sweep-fleet, sweep-chaos) check them here and in the default-scale run.
cargo run --release --offline -p cagc-bench --bin repro -- \
  --scale quick --out "$TRACE_TMP/quick" all ablations > /dev/null
diff -r results/quick "$TRACE_TMP/quick" \
  || { echo "FAIL: repro --scale quick all ablations must regenerate results/quick/ byte-identical"; exit 1; }

# Worker-count identity of the fleet and chaos sweeps (--workers 1 and 2
# against these same goldens) is tier-1's: crates/bench/tests/fleet_goldens.rs.
# Armed resilience on fault-free runs is too: crates/host/tests/host_interface.rs.

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

echo "== perf: GC round cost does not grow with the device (docs/PERFORMANCE.md, Gates) =="
# The workspace's one host-time gate, a ratio inside one run so machine
# speed cancels and no baseline is kept: the same 256 GC rounds on 8x the
# blocks may cost at most 3.3x (it retries in-process, since load only
# inflates wall time). Whether a change is faster is benchmark/'s question.
cargo bench --offline -p cagc-flash --bench device_size

echo "verify: OK"
