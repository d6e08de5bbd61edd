#!/bin/bash
# Regenerates bench_output.txt: every experiment binary at full dataset scale.
#
# SIMT_THREADS controls the worker count of the simulator's pooled launch
# path (see src/simt/exec_pool.h); defaults to the host core count. The
# simulated metrics are thread-count invariant, only host wall clock changes.
cd "$(dirname "$0")"
export SIMT_THREADS="${SIMT_THREADS:-$(nproc)}"
mkdir -p results
{
  echo "###### config: SIMT_THREADS=${SIMT_THREADS}"
  echo
  for b in build/bench/*; do
    if [ -x "$b" ] && [ -f "$b" ]; then
      echo "###### $(basename "$b")"
      if [ "$(basename "$b")" = micro_simt ]; then
        # Machine-readable copy (name / real_time / items_per_second) for
        # tracking the serial-vs-pooled launch speedup across revisions.
        "$b" --benchmark_out=results/BENCH_simt.json --benchmark_out_format=json
      elif [ "$(basename "$b")" = table4_adaptive ]; then
        # Archive the adaptive runtime's decision trace and counter registry
        # next to the bench output (deterministic: diffable across revisions).
        "$b" --trace-out=results/TRACE_table4_adaptive.jsonl \
             --trace-format=jsonl \
             --metrics-out=results/METRICS_table4_adaptive.json
      elif [ "$(basename "$b")" = ext_service ]; then
        # Archive the serving-layer acceptance numbers (fused MS-BFS
        # throughput, concurrency makespans) as a diffable artifact.
        "$b" | tee results/BENCH_service.txt
      elif [ "$(basename "$b")" = ext_resilience ]; then
        # Archive the resilience acceptance numbers (fault overhead,
        # dead-device degradation) as a diffable artifact.
        "$b" | tee results/BENCH_resilience.txt
      elif [ "$(basename "$b")" = ext_cache ]; then
        # Archive the result-cache acceptance numbers (warm/cold speedup,
        # hit rates on Zipfian streams) as a diffable artifact.
        "$b" | tee results/BENCH_cache.txt
      elif [ "$(basename "$b")" = ext_dynamic ]; then
        # Archive the dynamic-graph acceptance numbers (incremental-patch
        # vs replace-everything steady-state QPS) as a diffable artifact.
        "$b" | tee results/BENCH_dynamic.txt
      elif [ "$(basename "$b")" = ext_fleet ]; then
        # Archive the fleet-serving acceptance numbers (replicated makespan
        # scaling, failover, sharded execution) as a diffable artifact.
        "$b" | tee results/BENCH_fleet.txt
      elif [ "$(basename "$b")" = ext_hybrid ]; then
        # Archive the host-hybrid vs fused-device-loop comparison (adaptive
        # fused GPU-only time, hybrid time, host/device iteration split).
        "$b" | tee results/BENCH_hybrid.txt
      elif [ "$(basename "$b")" = ext_cc ]; then
        # Archive the connected-components numbers (speedups over union-find,
        # adaptive modeled time and sweep counts) as a diffable artifact.
        "$b" | tee results/ext_cc.txt
      elif [ "$(basename "$b")" = ext_direction ]; then
        # Machine-readable push-vs-pull-vs-DO numbers (per-dataset times,
        # pull-iteration counts, DO/push speedups) for cross-revision diffs.
        "$b" --json-out=results/BENCH_direction.json
      elif [ "$(basename "$b")" = ext_representation ]; then
        # Machine-readable layout-axis numbers (plain/relabelled/adaptive
        # times, the adaptive pick, speedups) for cross-revision diffs.
        "$b" --json-out=results/BENCH_representation.json
      else
        "$b"
      fi
      echo
    fi
  done
} 2>&1
