#!/usr/bin/env bash
# Paired benchmark runs of two builds of gnnone-benchmark, a parent and a
# change. For each seed 1..PAIRS and each workload, both binaries run back
# to back for the run length BENCHMARK.json fixes, with tracing off; the
# order inside a pair flips with every seed (odd seeds run the parent
# first). Each run's stdout (report line + result line) is appended to
# OUT_DIR/parent.jsonl or OUT_DIR/change.jsonl, and the --compare verdicts
# under the BENCHMARK.json bounds go to OUT_DIR/compare.txt.
#
#   scripts/bench_pairs.sh PARENT_BIN CHANGE_BIN OUT_DIR [PAIRS=10]
#
# Build each binary in its own checkout of the commit it measures:
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml
# puts it at benchmark/target/release/gnnone-benchmark.
#
# Exits 1 when any run reported a wrong output or --compare found a
# regression; every run and the comparison still complete first.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN OUT_DIR [PAIRS=10]" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
parent=$(realpath "$1")
change=$(realpath "$2")
mkdir -p "$3"
out=$(realpath "$3")
pairs=${4:-10}
seconds=$(grep -o '"run_seconds": *[0-9]*' "$root/BENCHMARK.json" | grep -o '[0-9]*$')

status=0
run() { # SIDE BIN WORKLOAD SEED
  "$2" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 >> "$out/$1.jsonl" || {
    echo "bench_pairs: $1 run of $3 seed $4 failed" >&2
    status=1
  }
}

for seed in $(seq 1 "$pairs"); do
  for workload in launch road skew trickle; do
    if [ $((seed % 2)) -eq 1 ]; then
      run parent "$parent" "$workload" "$seed"
      run change "$change" "$workload" "$seed"
    else
      run change "$change" "$workload" "$seed"
      run parent "$parent" "$workload" "$seed"
    fi
  done
done

"$change" --compare "$out/parent.jsonl" "$out/change.jsonl" \
  --bounds "$root/BENCHMARK.json" > "$out/compare.txt" || status=1
cat "$out/compare.txt"
exit "$status"
