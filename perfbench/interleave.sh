#!/usr/bin/env bash
# Interleaved A/B sets of benchmark runs, then their comparison.
#
#   perfbench/interleave.sh <checkoutA> <checkoutB> <outdir> [runs]
#
# For seed i = 1..runs it runs every workload once from each checkout,
# alternating which side goes first, and saves each run's output under
# <outdir>/a and <outdir>/b (standard error under <outdir>/logs). Each
# checkout builds into its own .bench_build. B_SEED_OFFSET sets B's seeds
# apart (default 0: both sides see the same inputs, as an A/B of two
# versions should). Every run lasts the run_seconds of A's BENCHMARK.json;
# WORKLOADS replaces its workload list, to A/B `sim-paper` and `grid-sweep`,
# which it leaves out. The comparison is printed by `perfbench compare`
# and saved as <outdir>/compare.txt.
set -euo pipefail
if [ $# -lt 3 ]; then
  sed -n '2,14p' "$0" >&2
  exit 2
fi
A=$(cd "$1" && pwd)
B=$(cd "$2" && pwd)
OUT=$3
RUNS=${4:-10}
WORKLOADS=${WORKLOADS:-$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$A/BENCHMARK.json")}
OFFSET=${B_SEED_OFFSET:-0}
SECS=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$A/BENCHMARK.json")
mkdir -p "$OUT/a" "$OUT/b" "$OUT/logs"

bench() { # <checkout> <args...>
  local dir=$1
  shift
  (cd "$dir" && CARGO_TARGET_DIR="$dir/.bench_build" cargo run --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml -- "$@")
}

for i in $(seq 1 "$RUNS"); do
  for w in $WORKLOADS; do
    if (( i % 2 )); then order="a b"; else order="b a"; fi
    for side in $order; do
      if [ "$side" = a ]; then dir=$A seed=$i; else dir=$B seed=$((i + OFFSET)); fi
      bench "$dir" --workload "$w" --seed "$seed" --seconds "$SECS" --trace 0 \
        > "$OUT/$side/$w-$i.out" 2> "$OUT/logs/$side-$w-$i.err"
    done
  done
done
bench "$A" compare "$OUT/a" "$OUT/b" --bench "$A/BENCHMARK.json" | tee "$OUT/compare.txt"
