#!/usr/bin/env bash
# Cross-process certification fan-out harness (DESIGN.md §11).
#
# Generates a seeded random instance, splits its agents across N worker
# *processes* of tools/bncg_certify, merges the serialized shard results,
# and diffs the merged certificate against the single-process in-process
# certifier. Any byte of difference (verdict, witness, tie-breaks, move
# counts) fails the run — this is the end-to-end parity gate: tier-1 ctest
# entries pin 1/2/7 workers, CI's smoke step runs 4 workers at n=512.
#
# Usage: scripts/certify_fanout.sh [options]
#   --workers N        worker processes (default 4)
#   --n N              vertices of the generated instance (default 512)
#   --m M              edges (default 2n)
#   --seed S           instance seed (default 1)
#   --model sum|max|both   usage-cost model(s) to run (default both)
#   --bin PATH         bncg_certify binary (default: $BNCG_CERTIFY_BIN, else
#                      build it into ${BNCG_BUILD_DIR:-<repo>/build})
#   --keep-dir         keep the scratch directory (prints its path)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

workers=4
n=512
m=""
seed=1
models="both"
bin="${BNCG_CERTIFY_BIN:-}"
keep_dir=0

while [ "$#" -gt 0 ]; do
  case "$1" in
    --workers) workers="$2"; shift 2 ;;
    --n) n="$2"; shift 2 ;;
    --m) m="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --model) models="$2"; shift 2 ;;
    --bin) bin="$2"; shift 2 ;;
    --keep-dir) keep_dir=1; shift ;;
    *) echo "certify_fanout: unknown option: $1" >&2; exit 2 ;;
  esac
done
case "$workers" in
  ''|*[!0-9]*|0) echo "certify_fanout: --workers must be a positive integer" >&2; exit 2 ;;
esac
case "$n" in
  ''|*[!0-9]*|0) echo "certify_fanout: --n must be a positive integer" >&2; exit 2 ;;
esac
[ -n "$m" ] || m=$(( 2 * n ))
case "$models" in
  sum|max) model_list="$models" ;;
  both) model_list="sum max" ;;
  *) echo "certify_fanout: bad --model: $models" >&2; exit 2 ;;
esac

if [ -z "$bin" ]; then
  build_dir="${BNCG_BUILD_DIR:-${repo_root}/build}"
  cmake -B "$build_dir" -S "$repo_root" >/dev/null
  cmake --build "$build_dir" --target bncg_certify -j "$(nproc)" >/dev/null
  bin="${build_dir}/bncg_certify"
fi
[ -x "$bin" ] || { echo "certify_fanout: not executable: $bin" >&2; exit 2; }

work_dir="$(mktemp -d "${TMPDIR:-/tmp}/bncg_fanout.XXXXXX")"
pids=()
cleanup() {
  # Never leave orphaned worker processes, whatever the exit path.
  for pid in "${pids[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  if [ "$keep_dir" -eq 1 ]; then
    echo "certify_fanout: scratch kept at $work_dir" >&2
  else
    rm -rf "$work_dir"
  fi
}
trap cleanup EXIT
trap 'trap - INT TERM; cleanup; exit 130' INT TERM

graph="$work_dir/instance.edges"
if ! "$bin" gen --n "$n" --m "$m" --seed "$seed" --out "$graph" 2>"$work_dir/gen.log"; then
  echo "certify_fanout: instance generation failed (n=$n m=$m seed=$seed)" >&2
  cat "$work_dir/gen.log" >&2 || true
  exit 1
fi

for model in $model_list; do
  deletions_flag=""
  [ "$model" = "max" ] && deletions_flag="--include-deletions"

  # Fan out: worker i certifies agents [i*n/W, (i+1)*n/W) concurrently.
  pids=()
  shard_files=()
  for (( i = 0; i < workers; i++ )); do
    lo=$(( i * n / workers ))
    hi=$(( (i + 1) * n / workers ))
    shard="$work_dir/${model}.shard${i}"
    shard_files+=("$shard")
    # shellcheck disable=SC2086
    "$bin" worker --graph "$graph" --range "${lo}:${hi}" \
      --shard-index "$i" --shard-count "$workers" \
      --model "$model" $deletions_flag \
      --out "$shard" 2>>"$work_dir/${model}.worker.log" &
    pids+=($!)
  done
  # Wait for EVERY worker before judging the batch: a single early failure
  # must not leave the other workers running as orphans, and every
  # nonzero exit must surface (not only the first one observed).
  failed=0
  for pid in "${pids[@]}"; do
    if ! wait "$pid"; then
      echo "certify_fanout: worker process $pid failed (model $model)" >&2
      failed=1
    fi
  done
  pids=()
  if [ "$failed" -ne 0 ]; then
    cat "$work_dir/${model}.worker.log" >&2 || true
    exit 1
  fi

  # Merge the shard files, then diff against the single-process verdict.
  # shellcheck disable=SC2086
  if ! "$bin" merge "${shard_files[@]}" \
      >"$work_dir/${model}.merged" 2>>"$work_dir/${model}.worker.log"; then
    echo "certify_fanout: merge refused the shard set (model $model)" >&2
    cat "$work_dir/${model}.worker.log" >&2 || true
    exit 1
  fi
  if ! "$bin" certify --graph "$graph" --model "$model" $deletions_flag \
      >"$work_dir/${model}.single" 2>>"$work_dir/${model}.worker.log"; then
    echo "certify_fanout: single-process certify failed (model $model)" >&2
    cat "$work_dir/${model}.worker.log" >&2 || true
    exit 1
  fi

  if ! diff -u "$work_dir/${model}.single" "$work_dir/${model}.merged"; then
    echo "certify_fanout: MISMATCH between fan-out merge and single-process certify" \
         "(model $model, $workers workers, n=$n m=$m seed=$seed)" >&2
    exit 1
  fi
  verdict="$(grep -o 'verdict=[A-Z]*' "$work_dir/${model}.merged")"
  echo "certify_fanout: model=$model workers=$workers n=$n m=$m" \
       "$verdict — merged == single-process"
done
echo "certify_fanout: OK"
