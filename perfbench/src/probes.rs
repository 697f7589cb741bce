//! Per-layer probes for the traced run: the public kernels beneath the
//! solve entries, timed on the workload's own matrix in this process,
//! together with the ceilings and baselines that bound them.
//!
//! A probe is skipped when the workload's traced stream already recorded
//! spans of that name, so stream measurements take precedence.

use std::time::Instant;

use mf_baselines::Baseline;
use mf_gpu::{DeviceSpec, FaultPlan};
use mf_kernels::{blas1, ilu0_boosted, spmv_csr, spmv_mixed, spmv_mixed_par, SharedTiles, VisFlag};
use mf_precision::Precision;
use mf_serve::{ServeConfig, SolveService};
use mf_solver::{
    threaded::run_cg_threaded_adaptive, HostParallelism, MilleFeuille, SolverConfig,
    SolverWorkspace,
};
use mf_sparse::{Csr, TiledMatrix};

use crate::rng;
use crate::trace::Tracer;
use crate::workload::ServeCounters;
use crate::workloads::serve_mixed::BATCH_K;

const MAX_REPS: usize = 2_000;

/// Calls `f` under span `name` at least `min_reps` times and until
/// `budget_s` has passed; returns the last result and the repetitions.
fn probe<R>(
    tr: &mut Tracer,
    name: &'static str,
    min_reps: usize,
    budget_s: f64,
    mut f: impl FnMut() -> R,
) -> (R, usize) {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let r = std::hint::black_box(tr.span(name, reps as u64, &mut f));
        reps += 1;
        if reps >= MAX_REPS || (reps >= min_reps && start.elapsed().as_secs_f64() >= budget_s) {
            return (r, reps);
        }
    }
}

/// Runs every probe on `a`; derived quantities go into `tr`'s counters.
/// Returns the cache counters of the one-tenant serve session when it ran.
pub fn run(a: &Csr, tr: &mut Tracer, budget_s: f64, seed: u64) -> Option<ServeCounters> {
    let n = a.nrows;
    let threads = crate::host::threads();
    let facade = MilleFeuille::with_defaults(DeviceSpec::a100());
    let cfg = facade.config.clone();
    let x = rng::rhs(seed, 41, 0, n);
    let b = rng::rhs(seed, 41, 1, n);
    let mut y = vec![0.0; n];

    probe(tr, "sparse.fingerprint", 5, budget_s, || a.fingerprint());
    let (tiled, _) = probe(tr, "sparse.tile", 3, budget_s, || {
        TiledMatrix::from_csr_with(a, cfg.tile_size, &cfg.classify)
    });
    let hist = tiled.nnz_precision_histogram();
    let low = 1.0 - hist[Precision::Fp64.tile_code() as usize] as f64 / tiled.nnz().max(1) as f64;
    tr.count("precision.low_prec_nnz_ratio", low);
    probe(tr, "sparse.matvec", 5, budget_s, || a.matvec(&x, &mut y));

    // Kernels. Every visibility flag is `Keep`, so the tile state never
    // changes between repetitions.
    let mut shared = SharedTiles::load(&tiled);
    let flags = vec![VisFlag::Keep; tiled.tile_cols];
    probe(tr, "kernels.spmv_mixed", 5, budget_s, || {
        spmv_mixed(&tiled, &mut shared, &flags, &x, &mut y)
    });
    tr.count(
        "kernels.spmv_computed_bytes",
        (tiled.memory_bytes().total() + 16 * n) as f64,
    );
    probe(tr, "kernels.spmv_mixed_par", 5, budget_s, || {
        spmv_mixed_par(&tiled, &mut shared, &flags, &x, &mut y, threads)
    });
    probe(tr, "kernels.spmv_csr", 5, budget_s, || {
        spmv_csr(a, &x, &mut y)
    });
    probe(tr, "kernels.dot", 5, budget_s, || blas1::dot(&x, &b));
    probe(tr, "kernels.axpy", 5, budget_s, || {
        blas1::axpy(1e-3, &x, &mut y)
    });
    // Streaming copy over the CSR matrix's footprint: the bandwidth of the
    // cache level the SpMV working set lives in.
    let words = a.memory_bytes().div_ceil(8).max(1024);
    let src = rng::rhs(seed, 42, 0, words);
    let mut dst = vec![0.0; words];
    probe(tr, "kernels.stream_copy", 5, budget_s, || {
        dst.copy_from_slice(&src)
    });
    tr.count("kernels.stream_copy_bytes", (16 * words) as f64);
    std::hint::black_box(&dst);
    let (ilu, _) = probe(tr, "kernels.ilu0", 3, budget_s, || ilu0_boosted(a));
    if let Ok((ilu, _)) = ilu {
        let (mut scratch, mut z) = (vec![0.0; n], vec![0.0; n]);
        probe(tr, "kernels.sptrsv", 5, budget_s, || {
            ilu.apply_recursive_into(
                &b,
                mf_kernels::sptrsv::DEFAULT_TRSV_LEAF,
                &mut scratch,
                &mut z,
            )
        });
    }

    // Solver.
    if !tr.has("solver.preprocess") {
        probe(tr, "solver.preprocess", 3, budget_s, || {
            facade.preprocess(a)
        });
    }
    let serial = MilleFeuille::new(
        DeviceSpec::a100(),
        SolverConfig {
            host_parallelism: HostParallelism::Serial,
            ..cfg.clone()
        },
    );
    probe(tr, "solver.preprocess_serial", 3, budget_s, || {
        serial.preprocess(a)
    });
    // The ticketed build at every available thread, whatever `Auto` picks
    // for this matrix's size.
    let ticketed = MilleFeuille::new(
        DeviceSpec::a100(),
        SolverConfig {
            host_parallelism: HostParallelism::Threads(threads),
            ..cfg.clone()
        },
    );
    probe(tr, "solver.preprocess_ticketed", 3, budget_s, || {
        ticketed.preprocess(a)
    });
    let pre = facade.preprocess(a);
    if !tr.has("solver.iterate") {
        let mut ws = SolverWorkspace::new();
        let (rep, reps) = probe(tr, "solver.iterate", 3, budget_s, || {
            facade.solve_cg_preprocessed(a, &pre, &b, &mut ws)
        });
        tr.count("solver.iterate_iterations", (rep.iterations * reps) as f64);
    }
    for (name, warps) in [("threaded.cg_w1", 1), ("threaded.cg_w2", threads.min(2))] {
        let (rep, reps) = probe(tr, name, 3, budget_s, || {
            run_cg_threaded_adaptive(
                &pre.tiled,
                &b,
                cfg.tolerance,
                cfg.max_iter,
                warps,
                cfg.watchdog,
                &FaultPlan::default(),
                &cfg.trace,
                cfg.adaptive,
            )
        });
        tr.count(
            if warps == 1 {
                "threaded.cg_w1_iterations"
            } else {
                "threaded.cg_w2_iterations"
            },
            (rep.iterations * reps) as f64,
        );
    }
    probe(tr, "baselines.csr_cg", 3, budget_s, || {
        Baseline::cusparse().solve_cg(a, &b, &cfg)
    });

    if tr.has("serve.prepare_hit") {
        return None;
    }
    // One-tenant serve session: a miss, hits, singles and one batch.
    let svc = SolveService::new(ServeConfig {
        precondition: true,
        ..ServeConfig::default()
    });
    for _ in 0..16 {
        let sp = tr.begin("serve.prepare", 0);
        let (_, hit) = svc.prepare(a);
        tr.end_as(
            sp,
            Some(if hit {
                "serve.prepare_hit"
            } else {
                "serve.prepare_miss"
            }),
        );
    }
    for k in 0..3 {
        tr.span("serve.single", k, || {
            svc.solve(a, &rng::rhs(seed, 43, k, n))
        });
    }
    let rhss: Vec<Vec<f64>> = (0..BATCH_K as u64)
        .map(|k| rng::rhs(seed, 44, k, n))
        .collect();
    tr.span("serve.batch", 0, || svc.solve_batch(a, &rhss));
    let s = svc.cache_stats();
    Some(ServeCounters {
        hits: s.hits,
        misses: s.misses,
        evictions: s.evictions,
        resident_bytes: svc.cache_bytes(),
    })
}
