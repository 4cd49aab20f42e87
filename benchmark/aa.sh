#!/usr/bin/env bash
# A/A check: run the whole benchmark twice on one build and require that
# every end-to-end metric agrees within its bound and that every simulated
# result and count is bit-identical (see README.md, "Comparing two
# outputs"). Host time only ever inflates under competing load, so a pair
# that disagrees is measured again: one quiet window in three attempts
# shows agreement, while a real difference (a simulated result that is not
# deterministic) fails all three.
# Usage: benchmark/aa.sh [seed]   (default 7; about 6 minutes per attempt)
set -euo pipefail
cd "$(dirname "$0")"
seed="${1:-7}"

cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/cagc-benchmark"

for attempt in 1 2 3; do
  for side in a b; do
    "$bin" --seed "$seed" --out "out/aa_$side"
  done
  if "$bin" compare --strict "out/aa_a/benchmark_seed$seed.json" "out/aa_b/benchmark_seed$seed.json"; then
    echo "aa: OK (seed $seed, attempt $attempt)"
    exit 0
  fi
  echo "-- aa attempt $attempt disagreed"
done
echo "aa: FAILED (seed $seed): the two sides disagreed in all 3 attempts"
exit 1
