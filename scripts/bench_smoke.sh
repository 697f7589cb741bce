#!/usr/bin/env bash
# Smoke-run the perf-trajectory benches: the host SpMV scaling bench
# (bench_out/spmv_scaling.csv + BENCH_spmv.json), the trace-timeline
# bench with its recording-overhead gate (bench_out/fig_trace_timeline.csv
# + BENCH_trace.json; *fails* when tracing costs more than the gate), and
# the pipelined barrier-schedule bench (bench_out/fig_pipeline.csv +
# BENCH_pipeline.json; *fails* when pipelined CG/PCG exceed 1/2 marginal
# barrier epochs per iteration or leave the classic-vs-pipelined drift
# envelope), and the serving-layer bench (bench_out/fig_serve.csv +
# BENCH_serve.json; *fails* when the warm preprocessing cache doesn't beat
# cold p50 by 3x on the replayed small-solve trace, when one batched
# multi-RHS solve doesn't beat k independent solves on requests/sec, or
# when either amortization changes a single bit of any answer), and the
# adaptive re-tiering bench (bench_out/fig_adaptive.csv +
# BENCH_adaptive.json; *fails* when the residual-driven controller moves
# more total value bytes than the static classification on any SPD matrix,
# reaches a different termination status, or is not strictly cheaper on at
# least half the population), and the multi-device sharding bench
# (bench_out/fig_shard.csv + BENCH_shard.json; *fails* when any shard
# count changes a single bit of any solve versus the single-device
# engine, or when 4-way sharding keeps more than 0.35 of the largest grid
# matrix's packed payload on one device).
#
# After the fresh run, the **gate-regression guard** diffs every committed
# BENCH_*.json baseline against its freshly generated counterpart with
# `gate_diff`: a boolean gate field that flips true -> false fails the
# smoke even if the fresh bench itself "passed" (a gate silently dropped
# from the JSON counts as schema drift and only warns). Timing fields are
# ignored — wall-clock noise never fails the build. Set
# MF_SKIP_GATE_GUARD=1 to skip the guard (e.g. when intentionally
# regenerating baselines).
#
# Knobs (see crates/bench/src/bin/{spmv_scaling,fig_trace_timeline,fig_pipeline,fig_serve,fig_adaptive,fig_shard}.rs):
#   MF_SPMV_GRID      Poisson grid side (default 320 -> 102,400 rows)
#   MF_SPMV_REPS      timed reps per thread count (default 20)
#   MF_SPMV_THREADS   comma list of thread counts (default 1,2,4,8)
#   MF_TRACE_GRID     Poisson grid side for the trace bench (default 320)
#   MF_TRACE_ITERS    fixed iteration count (default 25)
#   MF_TRACE_REPS     timed reps per config (default 3)
#   MF_TRACE_GATE_PCT overhead gate in percent (default 5)
#   MF_PIPE_GRID      Poisson grid side for the schedule bench (default 32)
#   MF_PIPE_WARPS     warp count for the traced runs (default 2)
#   MF_PIPE_BUDGET    fixed iteration budget of the density window (default 12)
#   MF_PIPE_REPS      timed reps per solve (default 2)
#   MF_PIPE_COUNT     extra suite matrices in the solve table (default 2)
#   MF_SERVE_GRID     smallest Poisson proxy side of the pool (default 20)
#   MF_SERVE_MATS     matrix pool size (default 4)
#   MF_SERVE_REQS     replayed trace length (default 96)
#   MF_SERVE_ITERS    per-request refinement budget (default 3; 0 = tolerance mode)
#   MF_SERVE_BATCH    k of the batched multi-RHS workload (default 8)
#   MF_SERVE_WARM_GATE  required cold/warm p50 ratio (default 3.0)
#   MF_ADAPT_TOL      convergence tolerance of the adaptive bench (default 1e-10)
#   MF_ADAPT_MAXITER  iteration cap of the adaptive bench (default 4000)
#   MF_ADAPT_SCALE    size multiplier on the adaptive population (default 1)
#   MF_SHARD_GRID     largest Poisson side of the sharding bench (default 96)
#   MF_SHARD_TOL      convergence tolerance of the sharding bench (default 1e-10)
#   MF_SHARD_MAXITER  iteration cap of the sharding bench (default 2000)
#   MF_SHARD_WARPS    warp cap of both engines in the sharding bench (default 4)
#   MF_SHARD_SPLIT_GATE  max per-device payload fraction at 4 shards (default 0.35)
#   MF_SKIP_GATE_GUARD  1 = skip the committed-baseline gate-flip guard
set -euo pipefail
cd "$(dirname "$0")/.."

# Snapshot the committed baselines before the fresh run overwrites them.
baseline_dir=""
if [[ "${MF_SKIP_GATE_GUARD:-0}" != "1" ]]; then
    baseline_dir="$(mktemp -d)"
    trap 'rm -rf "$baseline_dir"' EXIT
    cp BENCH_*.json "$baseline_dir"/ 2>/dev/null || true
fi

# Build-if-missing covers every bin this script runs: a single invocation
# works on a clean checkout.
cargo build --release --locked --offline -p mf-bench \
    --bin spmv_scaling --bin fig_trace_timeline --bin fig_pipeline --bin fig_serve \
    --bin fig_adaptive --bin fig_shard --bin gate_diff
./target/release/spmv_scaling
./target/release/fig_trace_timeline --trace-dir bench_out/traces
./target/release/fig_pipeline
./target/release/fig_serve
./target/release/fig_adaptive
./target/release/fig_shard

# Gate-regression guard: committed baseline vs fresh, boolean gate fields
# only. gate_diff names the offending field (and writes it to the job
# summary under GitHub Actions) and exits 1 on a true -> false flip.
if [[ -n "$baseline_dir" ]]; then
    guard_failed=0
    for baseline in "$baseline_dir"/BENCH_*.json; do
        [[ -e "$baseline" ]] || continue
        fresh="$(basename "$baseline")"
        if [[ ! -f "$fresh" ]]; then
            echo "warning: committed $fresh has no freshly generated counterpart" >&2
            continue
        fi
        ./target/release/gate_diff "$baseline" "$fresh" || guard_failed=1
    done
    if (( guard_failed )); then
        echo "FAIL: bench gate regression against committed baselines (see above)" >&2
        exit 1
    fi
    echo "gate-regression guard PASS"
fi
