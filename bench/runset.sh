#!/usr/bin/env bash
# Runs one same-code set: RUNS untraced runs of every workload, seeds
# SEED0, SEED0+1, ..., appended to the set file OUT (JSON lines).
#   bash bench/runset.sh /tmp/setA.jsonl 10 100
# Compare two sets with: bash bench/run.sh -compare A.jsonl B.jsonl
set -euo pipefail
out=${1:?usage: runset.sh OUT.jsonl [RUNS] [SEED0]}
runs=${2:-10}
seed0=${3:-1}
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
for ((i = 0; i < runs; i++)); do
  for w in kv-read-mostly kv-durable-write txn-zipf-2pc lib-skipmap; do
    bash "$here/run.sh" --workload "$w" --seed $((seed0 + i)) --seconds 15 --trace 0 --append "$out" | tail -n 1
  done
done
