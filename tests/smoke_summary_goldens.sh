#!/bin/sh
# The committed summary JSON archives are goldens: the commands that
# produced them, run on the committed grid archives, must reproduce every
# experiments/*_summary.json byte for byte — four p2p_phase digests and two
# p2p_sweep --adaptive accountings.
#
#   usage: smoke_summary_goldens.sh <p2p_sweep> <p2p_phase> <experiments dir>
set -e
sweep=$1
phase=$2
exp=$3
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$phase" --in "$exp/region_theory.csv" --cell-px 4 \
  --ppm "$dir/phase_region_theory.ppm" \
  --summary "$dir/phase_region_theory_summary.json"
"$phase" --in "$exp/mix_example2_region.csv" --threads 8 \
  --ppm "$dir/phase_mix_example2.ppm" --svg "$dir/phase_mix_example2.svg" \
  --frontier "$dir/phase_mix_example2_frontier.csv" \
  --summary "$dir/phase_mix_example2_summary.json"
"$phase" --in "$exp/policy_rarest_region.csv" \
  --diff "$exp/policy_baseline_region.csv" \
  --diff-ppm "$dir/phase_policy_rarest_diff.ppm" \
  --diff-svg "$dir/phase_policy_rarest_diff.svg" \
  --summary "$dir/phase_policy_rarest_summary.json"
"$phase" --in "$exp/region_adaptive.csv" --cell-px 4 \
  --ppm "$dir/phase_region_adaptive.ppm" \
  --svg "$dir/phase_region_adaptive.svg" \
  --summary "$dir/phase_region_adaptive_summary.json"
"$sweep" --grid "lambda=0.5:3.0:5;us=0.2:1.7:5" --adaptive 4 \
  --theory-only --threads 8 --out "$dir/region_adaptive.csv" \
  --summary "$dir/region_adaptive_summary.json"
"$sweep" --mix example2:3,1 \
  --grid "us=0.5:1.5:3;gamma=inf;lambda=0.6:3.0:4;mu=0.8:1.2:3;mix=0:1:3" \
  --adaptive 2 --theory-only --threads 8 \
  --out "$dir/mix_adaptive_volume.csv" \
  --summary "$dir/mix_adaptive_volume_summary.json"

for f in phase_region_theory phase_mix_example2 phase_policy_rarest \
         phase_region_adaptive region_adaptive mix_adaptive_volume; do
  cmp "$exp/${f}_summary.json" "$dir/${f}_summary.json"
  echo "${f}_summary.json matches"
done
