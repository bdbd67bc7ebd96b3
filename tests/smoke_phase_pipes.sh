#!/bin/sh
# p2p_phase reads its input once, so a report that arrives through a pipe
# ingests whatever its dialect: for CSV and JSON, a report piped to
# --in /dev/stdin and one written into a FIFO give the summary the same
# report gives from a regular file (source name aside).
#
#   usage: smoke_phase_pipes.sh <p2p_sweep> <p2p_phase>
set -e
sweep=$1
phase=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
mkfifo "$dir/fifo"
for f in csv json; do
  "$sweep" --grid "lambda=0.5:3.0:24;us=0.2:1.7:24" --theory-only \
    --format "$f" --out "$dir/region.$f" 2>/dev/null
  "$phase" --in "$dir/region.$f" --summary "$dir/file.json" 2>/dev/null
  cat "$dir/region.$f" |
    "$phase" --in /dev/stdin --summary "$dir/stdin.json" 2>/dev/null
  cat "$dir/region.$f" > "$dir/fifo" &
  "$phase" --in "$dir/fifo" --summary "$dir/fifo.json" 2>/dev/null
  wait
  for run in stdin fifo; do
    grep -v '"source"' "$dir/file.json" > "$dir/want"
    grep -v '"source"' "$dir/$run.json" > "$dir/got"
    cmp "$dir/want" "$dir/got"
  done
  echo "$f: /dev/stdin and FIFO ingest match the file"
done
