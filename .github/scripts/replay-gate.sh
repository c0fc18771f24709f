#!/usr/bin/env bash
# Determinism gate for one experiment under one set of flags: a serial
# run, a --jobs run that fills a cold cache, and a warm run replayed from
# that cache must write byte-identical CSV, trace JSONL and trace CSV
# (each trace CSV rendered from its JSONL by `trace-csv`).
#
# usage: replay-gate.sh TAG EXPERIMENT JOBS [FLAG...]
# The three runs write out/TAG-serial, out/TAG-jobs and out/TAG-warm.
set -euo pipefail
tag=$1
experiment=$2
jobs=$3
shift 3
cache=$(mktemp -d)  # a cold cache even on a reused checkout
cli() { PYTHONPATH=src python -m repro.cli "$experiment" "$@"; }
cli "$@" --csv "out/$tag-serial" --trace "out/$tag-serial"
cli "$@" --jobs "$jobs" --cache "$cache" --csv "out/$tag-jobs" --trace "out/$tag-jobs"
cli "$@" --jobs "$jobs" --cache "$cache" --csv "out/$tag-warm" --trace "out/$tag-warm"
PYTHONPATH=src python -m repro.cli trace-csv "out/$tag-serial" "out/$tag-jobs" "out/$tag-warm"
for file in "$experiment.csv" "$experiment.trace.jsonl" "$experiment.trace.csv"; do
  cmp "out/$tag-serial/$file" "out/$tag-jobs/$file"
  cmp "out/$tag-serial/$file" "out/$tag-warm/$file"
done
