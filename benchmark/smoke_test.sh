#!/usr/bin/env bash
# ctest benchmark_smoke: one fast pass of every workload (one timed process
# each, five warm replays, no serial baseline) plus the traced pass, in
# about a minute. Checks the metric line format and that every expected
# metric is printed. The harness itself reports correct=false when an answer
# misses the reference, an exact counter differs from its pinned value, a
# warm replay differs from its cold pass, or the stage spans plus
# trace.unattributed_s do not add up to trace.wall_s.
#   bash benchmark/smoke_test.sh build-benchmark/xgw_benchmark
set -euo pipefail

out="$("$1" --smoke --seed 1)"
status=0
metric_re='^[a-z0-9-]+ [A-Za-z0-9_.]+ -?[0-9][0-9.e+-]* [A-Za-z0-9_/%.-]+ n=[0-9]+$'

while IFS= read -r line; do
  case "$line" in
    '{'* | *' # '*) continue ;;
  esac
  if [[ ! "$line" =~ $metric_re ]]; then
    echo "malformed line: $line"
    status=1
  fi
done <<< "$out"

for w in gpp-sigma-si16 ff-epsilon-si16 st-si16 serve-si16-batch; do
  for m in wall_s rerun_s peak_rss_mb setup_s mf.bands_s fft.est_s \
           chi.build_s sigma.diag_s cas.put_ms trace.wall_s \
           trace.unattributed_s trace.overhead_frac; do
    if ! grep -q "^$w $m " <<< "$out"; then
      echo "missing metric: $w $m"
      status=1
    fi
  done
done

last="$(tail -n 1 <<< "$out")"
if [[ "$last" != '{"correct":true,'* ]]; then
  grep '^FAILED' <<< "$out" || true
  echo "run not correct: ${last:0:200}"
  status=1
fi
exit "$status"
