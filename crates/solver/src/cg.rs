//! The conjugate-gradient core (paper Algorithm 1 / Algorithm 3).
//!
//! One numeric loop serves both execution modes; the [`Coster`] decides how
//! the time of each step is charged. The numerics are exact: every SpMV
//! multiplies the (possibly dynamically lowered) quantized tile values, so
//! mixed precision genuinely perturbs convergence.

use crate::config::{SolverConfig, MAX_CONSECUTIVE_RESTARTS};
use crate::coster::Coster;
use crate::partial::PartialState;
use crate::report::{BreakdownEvent, BreakdownKind, RecoveryAction, SolveFailure};
use crate::workspace::SolverWorkspace;
use mf_gpu::Timeline;
use mf_kernels::{blas1, spmv_mixed, spmv_mixed_par, MixedSpmvStats, SharedTiles, VisFlag};
use mf_sparse::TiledMatrix;

/// Dispatches the mixed SpMV serially or tile-row-striped according to the
/// resolved host thread count. The two paths are bitwise-identical
/// (see `mf_kernels::spmv`), so the choice is purely a wall-clock one.
pub(crate) fn mixed_spmv(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    flags: &[VisFlag],
    x: &[f64],
    y: &mut [f64],
    threads: usize,
) -> MixedSpmvStats {
    if threads > 1 {
        spmv_mixed_par(m, shared, flags, x, y, threads)
    } else {
        spmv_mixed(m, shared, flags, x, y)
    }
}

/// Raw output of a solver core loop.
#[derive(Clone, Debug)]
pub struct CoreResult {
    /// Solution iterate.
    pub x: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Converged by the relative-residual criterion.
    pub converged: bool,
    /// Final relative residual from the recurrence.
    pub final_relres: f64,
    /// Modeled time of the solve loop.
    pub timeline: Timeline,
    /// Accumulated SpMV statistics.
    pub spmv_stats: MixedSpmvStats,
    /// Per-iteration relative residuals (when traced).
    pub residual_history: Vec<f64>,
    /// Per-iteration relative errors vs. the reference (when configured).
    pub error_history: Vec<f64>,
    /// Per-iteration |p| range histograms (when traced).
    pub p_range_history: Vec<[usize; 5]>,
    /// Per-iteration bypassed-tile counts (when traced).
    pub bypass_history: Vec<usize>,
    /// Per-iteration histogram of *current* tile precisions in the on-chip
    /// copy `[FP64, FP32, FP16, FP8]` (when traced; paper Fig. 7).
    pub precision_history: Vec<[usize; 4]>,
    /// Every breakdown the loop observed and what was done about it.
    pub breakdowns: Vec<BreakdownEvent>,
    /// Set when the loop terminated abnormally (non-finite state or a
    /// restart fixed point); `None` for convergence or plain iteration
    /// exhaustion.
    pub failure: Option<SolveFailure>,
    /// Structured event trace (when `SolverConfig::trace` is enabled).
    pub trace: Option<mf_trace::Trace>,
    /// Re-tier plans the adaptive controller applied, in order (empty
    /// unless `SolverConfig::adaptive` is armed).
    pub retier_trail: Vec<mf_precision::RetierDecision>,
}

impl CoreResult {
    /// A fresh not-yet-run result: no solution, `∞` residual, empty
    /// histories. Cores fill it in as the loop executes.
    pub fn empty() -> CoreResult {
        CoreResult {
            x: Vec::new(),
            iterations: 0,
            converged: false,
            final_relres: f64::INFINITY,
            timeline: Timeline::new(),
            spmv_stats: MixedSpmvStats::default(),
            residual_history: Vec::new(),
            error_history: Vec::new(),
            p_range_history: Vec::new(),
            bypass_history: Vec::new(),
            precision_history: Vec::new(),
            breakdowns: Vec::new(),
            failure: None,
            trace: None,
            retier_trail: Vec::new(),
        }
    }

    /// Records a breakdown observed at the *current* (0-based) iteration —
    /// call before `iterations` is advanced past it.
    pub(crate) fn record_breakdown(
        &mut self,
        iteration: usize,
        kind: BreakdownKind,
        action: RecoveryAction,
    ) {
        self.breakdowns.push(BreakdownEvent {
            iteration,
            kind,
            action,
        });
    }
}

/// Builds the host-side event tracer for a sequential core (recorded as
/// warp 0) when tracing is enabled; one `Option` branch otherwise.
pub(crate) fn host_tracer(cfg: &SolverConfig) -> Option<mf_trace::WarpTracer> {
    cfg.trace
        .enabled
        .then(|| mf_trace::WarpTracer::new(0, cfg.trace.capacity_per_warp))
}

/// Records one SpMV call's per-precision byte counters, bypass hits, and
/// the current on-chip precision histogram. Shared by the sequential CG
/// and BiCGSTAB cores so both emit the same event shape.
pub(crate) fn record_spmv_trace(
    tracer: &mf_trace::WarpTracer,
    stats: &MixedSpmvStats,
    shared: &SharedTiles,
) {
    for (code, bytes) in stats.bytes_by_precision().into_iter().enumerate() {
        if bytes > 0 {
            tracer.record(mf_trace::EventKind::SpmvBytes, code as u64, bytes);
        }
    }
    tracer.record(
        mf_trace::EventKind::Bypass,
        stats.tiles_bypassed as u64,
        stats.nnz_bypassed as u64,
    );
    tracer.record(
        mf_trace::EventKind::Precision,
        mf_trace::pack_precision_histogram(current_precision_histogram(shared)),
        0,
    );
}

/// Finalizes a sequential core's trace: merge the single host stream and
/// fold in the breakdown trail as epilogue events.
pub(crate) fn finish_host_trace(tracer: Option<mf_trace::WarpTracer>, result: &mut CoreResult) {
    if let Some(t) = tracer {
        let mut trace = mf_trace::Trace::merge(vec![t.finish()]);
        crate::report::append_breakdown_epilogue(&mut trace, &result.breakdowns);
        result.trace = Some(trace);
    }
}

/// Relative error `‖x − x*‖₂ / ‖x*‖₂`.
pub(crate) fn rel_error(x: &[f64], reference: &[f64]) -> f64 {
    let mut diff = 0.0;
    let mut norm = 0.0;
    for (a, b) in x.iter().zip(reference) {
        diff += (a - b) * (a - b);
        norm += b * b;
    }
    (diff / norm.max(f64::MIN_POSITIVE)).sqrt()
}

/// Runs CG on the tiled matrix. `shared` is the on-chip tile copy (loaded
/// once, mutated by dynamic lowering); `partial` controls the Finding-3
/// strategy (pass a disabled state for plain mixed/FP64 runs).
pub fn run_cg(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    b: &[f64],
    cfg: &SolverConfig,
    coster: &Coster,
    partial: &mut PartialState,
) -> CoreResult {
    run_cg_ws(
        m,
        shared,
        b,
        cfg,
        coster,
        partial,
        &mut SolverWorkspace::new(),
    )
}

/// Workspace-reusing variant of [`run_cg`]: every loop vector comes from
/// `ws`, so a warm workspace makes the iteration loop allocation-free (the
/// returned result still clones the solution out once per solve).
pub fn run_cg_ws(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    b: &[f64],
    cfg: &SolverConfig,
    coster: &Coster,
    partial: &mut PartialState,
    ws: &mut SolverWorkspace,
) -> CoreResult {
    let n = m.nrows;
    assert_eq!(b.len(), n);
    assert_eq!(m.nrows, m.ncols, "CG needs a square (SPD) matrix");

    let mut tl = Timeline::new();
    coster.solve_start(&mut tl);

    let mut result = CoreResult::empty();
    let tracer = host_tracer(cfg);

    let norm_b = blas1::norm2(b);
    if norm_b == 0.0 {
        // x = 0 solves the system exactly.
        result.x = vec![0.0; n];
        result.converged = true;
        result.final_relres = 0.0;
        result.timeline = tl;
        finish_host_trace(tracer, &mut result);
        return result;
    }

    // x0 = 0 ⇒ r0 = b, p0 = r0 (paper Algorithm 1 lines 1–3). The vectors
    // live in the workspace; `ensure` zero-fills them without reallocating
    // once warm.
    ws.ensure(n);
    let SolverWorkspace { x, r, p, u, .. } = ws;
    r.copy_from_slice(b);
    p.copy_from_slice(b);
    let threads = cfg.host_parallelism.threads_for(m.nnz());
    let mut rr = blas1::dot(r, r);

    // Adaptive re-tiering (controller v2): a pure state machine observing
    // the residual trajectory at every convergence check. Built from the
    // tile census alone, so every engine replays the identical decision
    // sequence. The refresh SpMV runs with all-Keep flags — it computes
    // the *true* residual of the re-tiered operator.
    let mut ctrl = cfg
        .adaptive
        .map(|ac| crate::adaptive::controller_for(m, ac));
    let retier_keep = ctrl.as_ref().map(|_| keep_flags(m.tile_cols));

    let iters = cfg.fixed_iterations.unwrap_or(cfg.max_iter);
    let check_convergence = cfg.fixed_iterations.is_none();
    let mut consecutive_restarts = 0usize;

    for j in 0..iters {
        // ---- Step A: vis_flag retrieval + mixed-precision SpMV µ = A·p.
        if let Some(t) = &tracer {
            t.stamp(j as i64, 0);
        }
        partial.update(p);
        if partial.enabled() {
            coster.visflag_scan(&mut tl);
        }
        let stats = mixed_spmv(m, shared, &partial.vis_flags, p, u, threads);
        result.spmv_stats.merge(&stats);
        if let Some(t) = &tracer {
            record_spmv_trace(t, &stats, shared);
        }
        coster.spmv(&mut tl, m, shared, &partial.vis_flags, &stats);

        // ---- Step B: α = (r,r) / (µ,p).
        let py = blas1::dot(u, p);
        coster.dot(&mut tl, true);
        let alpha = rr / py;
        if !alpha.is_finite() || py <= 0.0 {
            // Curvature breakdown (quantization can push a borderline SPD
            // system off the cone, and fixed-iteration benchmark runs keep
            // iterating past exact convergence). Restart the direction from
            // the current residual — but charge the *full* iteration: the
            // GPU kernel executes every step regardless of degenerate
            // scalars.
            let kind = if py.is_finite() && py <= 0.0 {
                BreakdownKind::Curvature
            } else {
                BreakdownKind::NonFinite
            };
            p.copy_from_slice(r);
            rr = blas1::dot(r, r);
            coster.axpy(&mut tl, 2);
            coster.dot(&mut tl, true);
            coster.axpy(&mut tl, 1);
            coster.iteration_end(&mut tl);
            let iter_idx = result.iterations;
            result.iterations += 1;
            consecutive_restarts += 1;
            let relres = rr.sqrt() / norm_b;
            if relres.is_finite() {
                result.final_relres = relres;
            }
            if cfg.trace_residuals {
                result.residual_history.push(relres);
            }
            if let Some(reference) = &cfg.reference_solution {
                result.error_history.push(rel_error(x, reference));
            }
            if cfg.trace_partial {
                result.p_range_history.push(partial.p_range_histogram(p));
                result.bypass_history.push(stats.tiles_bypassed);
                result
                    .precision_history
                    .push(current_precision_histogram(shared));
            }
            // Abort when recovery is impossible: the residual itself went
            // non-finite, or restarting keeps reproducing the same state (a
            // restart leaves x and r untouched, so repeated restarts are a
            // fixed point — exempting fixed-iteration benchmark runs).
            let abort_nonfinite = !rr.is_finite();
            let abort_stalled =
                check_convergence && consecutive_restarts >= MAX_CONSECUTIVE_RESTARTS;
            let action = if abort_nonfinite || abort_stalled {
                RecoveryAction::Aborted
            } else {
                RecoveryAction::Restarted
            };
            result.record_breakdown(iter_idx, kind, action);
            if abort_nonfinite {
                result.failure = Some(SolveFailure::NonFinite {
                    iteration: iter_idx,
                });
                break;
            }
            if abort_stalled {
                result.failure = Some(SolveFailure::Stalled {
                    iteration: iter_idx,
                });
                break;
            }
            continue;
        }
        consecutive_restarts = 0;

        // ---- Step C: x += αp; r −= αµ; z = (r,r).
        blas1::axpy(alpha, p, x);
        blas1::axpy(-alpha, u, r);
        coster.axpy(&mut tl, 2);
        let rr_new = blas1::dot(r, r);
        coster.dot(&mut tl, true);
        if !rr_new.is_finite() {
            // Overflowed residual recurrence: the iterate is poisoned and a
            // restart would rebuild from the same non-finite r. Fail
            // observably instead of NaN-spinning to max_iter (final_relres
            // keeps its last finite value).
            let iter_idx = result.iterations;
            result.iterations += 1;
            result.record_breakdown(iter_idx, BreakdownKind::NonFinite, RecoveryAction::Aborted);
            result.failure = Some(SolveFailure::NonFinite {
                iteration: iter_idx,
            });
            coster.iteration_end(&mut tl);
            break;
        }

        // ---- Step D: β = z/(r,r)_old; p = r + βp.
        let beta = rr_new / rr;
        rr = rr_new;
        blas1::xpay(r, beta, p);
        coster.axpy(&mut tl, 1);
        coster.iteration_end(&mut tl);

        result.iterations += 1;
        let relres = rr_new.sqrt() / norm_b;
        result.final_relres = relres;

        if cfg.trace_residuals {
            result.residual_history.push(relres);
        }
        if let Some(reference) = &cfg.reference_solution {
            result.error_history.push(rel_error(x, reference));
        }
        if cfg.trace_partial {
            result.p_range_history.push(partial.p_range_histogram(p));
            result.bypass_history.push(stats.tiles_bypassed);
            result
                .precision_history
                .push(current_precision_histogram(shared));
        }

        if check_convergence && relres < cfg.tolerance {
            result.converged = true;
            break;
        }

        // ---- Adaptive re-tier epoch (after the convergence check, so a
        // converged solve never re-tiers): apply the plan to the on-chip
        // tiles, then refresh the recurrence from the true residual of the
        // re-tiered operator — r = b − A·x, p = r — because the recurrence
        // tracks the *old* operator. Breakdown-restart iterations `continue`
        // above and are never observed.
        if let Some(c) = ctrl.as_mut() {
            if let Some(d) = c.observe(result.iterations, relres, cfg.tolerance) {
                let touched: usize = d
                    .actions
                    .iter()
                    .map(|a| {
                        (m.tile_nnz[a.tile as usize + 1] - m.tile_nnz[a.tile as usize]) as usize
                    })
                    .sum();
                shared.apply_retier(m, &d.actions);
                coster.retier(&mut tl, touched);
                let keepf = retier_keep.as_ref().expect("armed with controller");
                let rstats = mixed_spmv(m, shared, keepf, x, u, threads);
                result.spmv_stats.merge(&rstats);
                coster.spmv(&mut tl, m, shared, keepf, &rstats);
                for i in 0..n {
                    r[i] = b[i] - u[i];
                }
                p.copy_from_slice(r);
                rr = blas1::dot(r, r);
                coster.axpy(&mut tl, 2);
                coster.dot(&mut tl, true);
                if let Some(t) = &tracer {
                    let (pa, pb) = crate::adaptive::retier_trace_payload(&d);
                    t.record(mf_trace::EventKind::Retier, pa, pb);
                }
                result.retier_trail.push(d);
            }
        }
    }

    finish_host_trace(tracer, &mut result);
    result.x = x.clone();
    result.timeline = tl;
    result
}

/// Histogram of the on-chip copy's *current* tile precisions,
/// `[FP64, FP32, FP16, FP8]` (paper Fig. 7's color counts).
pub fn current_precision_histogram(shared: &SharedTiles) -> [usize; 4] {
    let mut h = [0usize; 4];
    for &p in &shared.current_prec {
        h[p.tile_code() as usize] += 1;
    }
    h
}

/// Builds an all-`Keep` flag vector — the flag set a plain (non-dynamic)
/// tiled SpMV runs with; callers driving [`mf_kernels::spmv_mixed`] outside
/// the solver loops use it to opt out of Finding 3.
///
/// ```
/// use mf_solver::cg::keep_flags;
/// use mf_kernels::VisFlag;
/// assert_eq!(keep_flags(3), vec![VisFlag::Keep; 3]);
/// assert_eq!(keep_flags(0).len(), 1); // always indexable
/// ```
pub fn keep_flags(tile_cols: usize) -> Vec<VisFlag> {
    vec![VisFlag::Keep; tile_cols.max(1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::coster::{Coster, MultiCoster, SingleCoster};
    use mf_gpu::{CostModel, DeviceSpec};
    use mf_precision::ClassifyOptions;
    use mf_sparse::{Coo, Csr, TiledMatrix};

    fn poisson1d(n: usize) -> Csr {
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 4.0);
            if i > 0 {
                a.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                a.push(i, i + 1, -1.0);
            }
        }
        a.to_csr()
    }

    fn setup(
        a: &Csr,
        cfg: &SolverConfig,
    ) -> (TiledMatrix, SharedTiles, Coster, PartialState, Vec<f64>) {
        let m = TiledMatrix::from_csr_with(a, cfg.tile_size, &ClassifyOptions::default());
        let shared = SharedTiles::load(&m);
        let cost = CostModel::new(DeviceSpec::a100());
        let coster = Coster::Single(SingleCoster::new(cost, &m, cfg.tile_size));
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        let eps_abs = cfg.tolerance * blas1::norm2(&b);
        let partial =
            PartialState::new(cfg.partial_convergence, m.tile_cols, cfg.tile_size, eps_abs);
        (m, shared, coster, partial, b)
    }

    #[test]
    fn cg_converges_on_poisson() {
        let a = poisson1d(200);
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let res = run_cg(&m, &mut shared, &b, &cfg, &coster, &mut partial);
        assert!(res.converged, "relres {}", res.final_relres);
        assert!(res.iterations < 200);
        // b = A·1 so x ≈ 1.
        for v in &res.x {
            assert!((v - 1.0).abs() < 1e-7, "{v}");
        }
    }

    #[test]
    fn cg_true_residual_matches_recurrence() {
        let a = poisson1d(150);
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let res = run_cg(&m, &mut shared, &b, &cfg, &coster, &mut partial);
        let mut ax = vec![0.0; 150];
        m.matvec(&res.x, &mut ax);
        let true_res: f64 = b
            .iter()
            .zip(&ax)
            .map(|(bi, ai)| (bi - ai) * (bi - ai))
            .sum::<f64>()
            .sqrt()
            / blas1::norm2(&b);
        // Bypass perturbs the recurrence slightly; orders must agree.
        assert!(true_res < 1e-8, "true relres {true_res}");
    }

    #[test]
    fn fixed_iterations_run_exactly() {
        let a = poisson1d(64);
        let cfg = SolverConfig::benchmark_100_iters();
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let res = run_cg(&m, &mut shared, &b, &cfg, &coster, &mut partial);
        assert_eq!(res.iterations, 100);
        assert!(!res.converged);
    }

    #[test]
    fn zero_rhs_trivially_converges() {
        let a = poisson1d(32);
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, _) = setup(&a, &cfg);
        let res = run_cg(&m, &mut shared, &vec![0.0; 32], &cfg, &coster, &mut partial);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert!(res.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn traces_recorded_when_enabled() {
        let a = poisson1d(64);
        let mut cfg = SolverConfig::convergence_study();
        cfg.reference_solution = Some(vec![1.0; 64]);
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let res = run_cg(&m, &mut shared, &b, &cfg, &coster, &mut partial);
        assert_eq!(res.residual_history.len(), res.iterations);
        assert_eq!(res.error_history.len(), res.iterations);
        assert_eq!(res.p_range_history.len(), res.iterations);
        // Residuals trend down.
        assert!(res.residual_history.last().unwrap() < &res.residual_history[0]);
        // Error approaches zero.
        assert!(res.error_history.last().unwrap() < &1e-8);
    }

    #[test]
    fn indefinite_matrix_fails_finite_with_breakdown_trail() {
        // A = −I is negative definite: (p, A·p) < 0 immediately, and a
        // restart reproduces the same state — the solve must terminate as
        // Stalled with a finite report, not NaN-spin to max_iter.
        let mut a = Coo::new(64, 64);
        for i in 0..64 {
            a.push(i, i, -1.0);
        }
        let csr = a.to_csr();
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, _) = setup(&csr, &cfg);
        let b = vec![1.0; 64];
        let res = run_cg(&m, &mut shared, &b, &cfg, &coster, &mut partial);
        assert!(!res.converged);
        assert!(res.final_relres.is_finite());
        assert!(res.x.iter().all(|v| v.is_finite()));
        assert_eq!(res.iterations, crate::config::MAX_CONSECUTIVE_RESTARTS);
        assert!(matches!(
            res.failure,
            Some(crate::report::SolveFailure::Stalled { .. })
        ));
        assert!(!res.breakdowns.is_empty());
        assert!(res
            .breakdowns
            .iter()
            .all(|e| e.kind == crate::report::BreakdownKind::Curvature));
        assert_eq!(
            res.breakdowns.last().unwrap().action,
            crate::report::RecoveryAction::Aborted
        );
    }

    #[test]
    fn fixed_iteration_mode_keeps_restarting_without_abort() {
        // Benchmark semantics: fixed-iteration runs charge every iteration
        // even when each one is a breakdown restart — no stall abort.
        let mut a = Coo::new(32, 32);
        for i in 0..32 {
            a.push(i, i, -1.0);
        }
        let csr = a.to_csr();
        let cfg = SolverConfig {
            fixed_iterations: Some(20),
            ..SolverConfig::default()
        };
        let (m, mut shared, coster, mut partial, _) = setup(&csr, &cfg);
        let b = vec![1.0; 32];
        let res = run_cg(&m, &mut shared, &b, &cfg, &coster, &mut partial);
        assert_eq!(res.iterations, 20);
        assert!(res.failure.is_none());
        assert_eq!(res.breakdowns.len(), 20);
        assert!(res
            .breakdowns
            .iter()
            .all(|e| e.action == crate::report::RecoveryAction::Restarted));
    }

    #[test]
    fn workspace_reuse_is_identical_and_allocation_free() {
        let a = poisson1d(300);
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let mut ws = crate::workspace::SolverWorkspace::with_size(300);
        let ptrs = [ws.x.as_ptr(), ws.r.as_ptr(), ws.p.as_ptr(), ws.u.as_ptr()];
        let res1 = run_cg_ws(&m, &mut shared, &b, &cfg, &coster, &mut partial, &mut ws);
        assert!(res1.converged);

        // Second solve of the same system from fresh dynamic state, reusing
        // the warm workspace: identical report, stable buffer pointers.
        let mut shared2 = SharedTiles::load(&m);
        let eps_abs = cfg.tolerance * blas1::norm2(&b);
        let mut partial2 =
            PartialState::new(cfg.partial_convergence, m.tile_cols, cfg.tile_size, eps_abs);
        let res2 = run_cg_ws(&m, &mut shared2, &b, &cfg, &coster, &mut partial2, &mut ws);

        assert_eq!(res1.iterations, res2.iterations);
        assert_eq!(res1.x, res2.x);
        assert_eq!(res1.final_relres, res2.final_relres);
        assert_eq!(
            [ws.x.as_ptr(), ws.r.as_ptr(), ws.p.as_ptr(), ws.u.as_ptr()],
            ptrs,
            "workspace buffers must be reused, not reallocated"
        );
    }

    #[test]
    fn forced_thread_counts_do_not_change_results() {
        use crate::config::HostParallelism;
        let a = poisson1d(250);
        let base = SolverConfig {
            host_parallelism: HostParallelism::Serial,
            ..SolverConfig::default()
        };
        let (m, mut shared, coster, mut partial, b) = setup(&a, &base);
        let serial = run_cg(&m, &mut shared, &b, &base, &coster, &mut partial);
        for t in [2usize, 5] {
            let cfg = SolverConfig {
                host_parallelism: HostParallelism::Threads(t),
                ..SolverConfig::default()
            };
            let (m2, mut sh2, coster2, mut p2, b2) = setup(&a, &cfg);
            let par = run_cg(&m2, &mut sh2, &b2, &cfg, &coster2, &mut p2);
            assert_eq!(serial.iterations, par.iterations, "threads={t}");
            assert_eq!(serial.x, par.x, "threads={t}");
        }

        // The facade's tile build (parallel classification under forced
        // threads) is bit-identical too, on a matrix at or above
        // `AUTO_PAR_NNZ`. Each 16-row band scales its values into another
        // precision class, so classification has real work to get wrong.
        let mut big = mf_collection::poisson2d(120, 120);
        assert!(big.nnz() >= crate::config::AUTO_PAR_NNZ);
        let scales = [1.0, 1.0 + 2f64.powi(-9), 1.0 + 2f64.powi(-20), 1.0 + 1e-13];
        for r in 0..big.nrows {
            for k in big.rowptr[r]..big.rowptr[r + 1] {
                big.vals[k] *= scales[(r / 16) % scales.len()];
            }
        }
        let tiles = |host_parallelism| {
            let cfg = SolverConfig {
                host_parallelism,
                ..SolverConfig::default()
            };
            crate::MilleFeuille::new(DeviceSpec::a100(), cfg)
                .preprocess(&big)
                .tiled
        };
        let want = tiles(HostParallelism::Serial);
        let classes = want
            .tile_precision_histogram()
            .iter()
            .filter(|&&c| c > 0)
            .count();
        assert!(classes >= 3, "want mixed tile precisions, got {classes}");
        for t in [2usize, 4] {
            let got = tiles(HostParallelism::Threads(t));
            assert_eq!(got.tile_prec, want.tile_prec, "threads={t}");
            assert_eq!(got.tile_rowidx, want.tile_rowidx, "threads={t}");
            assert_eq!(got.tile_colidx, want.tile_colidx, "threads={t}");
            assert_eq!(got.tile_nnz, want.tile_nnz, "threads={t}");
            assert_eq!(got.nonrow, want.nonrow, "threads={t}");
            assert_eq!(got.csr_rowptr, want.csr_rowptr, "threads={t}");
            assert_eq!(got.row_index, want.row_index, "threads={t}");
            assert_eq!(got.csr_colidx, want.csr_colidx, "threads={t}");
            assert_eq!(got.vals_raw(), want.vals_raw(), "threads={t}");
            assert_eq!(got.val_offsets, want.val_offsets, "threads={t}");
        }
    }

    #[test]
    fn multi_kernel_mode_matches_numerics() {
        let a = poisson1d(120);
        let cfg = SolverConfig {
            partial_convergence: false,
            ..SolverConfig::default()
        };
        let (m, mut sh1, coster_s, mut p1, b) = setup(&a, &cfg);
        let res_s = run_cg(&m, &mut sh1, &b, &cfg, &coster_s, &mut p1);

        let mut sh2 = SharedTiles::load(&m);
        let coster_m = Coster::Multi(MultiCoster::new(
            CostModel::new(DeviceSpec::a100()),
            m.nrows,
        ));
        let mut p2 = PartialState::new(false, m.tile_cols, 16, 1e-10);
        let res_m = run_cg(&m, &mut sh2, &b, &cfg, &coster_m, &mut p2);

        // Same numerics, different time accounting.
        assert_eq!(res_s.iterations, res_m.iterations);
        assert_eq!(res_s.x, res_m.x);
        assert!(res_m.timeline.get(mf_gpu::Phase::Sync) > res_s.timeline.get(mf_gpu::Phase::Sync));
    }

    #[test]
    fn event_trace_is_inert_and_covers_every_iteration() {
        let a = poisson1d(96);
        let base = SolverConfig::default();
        let (m, mut sh1, coster, mut p1, b) = setup(&a, &base);
        let off = run_cg(&m, &mut sh1, &b, &base, &coster, &mut p1);
        assert!(off.trace.is_none(), "tracing defaults off");

        let cfg = SolverConfig {
            trace: mf_trace::TraceConfig::on(),
            ..SolverConfig::default()
        };
        let (m2, mut sh2, coster2, mut p2, b2) = setup(&a, &cfg);
        let on = run_cg(&m2, &mut sh2, &b2, &cfg, &coster2, &mut p2);
        assert_eq!(off.x, on.x, "tracing must not perturb the numerics");
        assert_eq!(off.iterations, on.iterations);
        assert_eq!(off.final_relres, on.final_relres);

        let trace = on.trace.expect("tracing enabled -> trace present");
        assert_eq!(trace.warps, 1, "sequential core records as warp 0");
        assert_eq!(trace.count(mf_trace::EventKind::IterStart), on.iterations);
        assert_eq!(trace.count(mf_trace::EventKind::Bypass), on.iterations);
        assert_eq!(trace.count(mf_trace::EventKind::Precision), on.iterations);
        assert!(trace.count(mf_trace::EventKind::SpmvBytes) >= on.iterations);
        assert_eq!(
            trace.bytes_by_precision().iter().sum::<u64>() as usize,
            on.spmv_stats.value_bytes(),
            "trace byte counters agree with the aggregate stats"
        );
        assert_eq!(
            trace.bypassed_tiles() as usize,
            on.spmv_stats.tiles_bypassed
        );
    }

    /// The Step-A memo reuses a charge only for an unchanged state, so the
    /// modeled timeline is bitwise the one that walks every tile at every
    /// iteration — over a solve that both bypasses and lowers tiles.
    #[test]
    fn memoized_spmv_charge_is_bitwise_the_recomputed_one() {
        let mut a = Coo::new(128, 128);
        for i in 0..32 {
            a.push(i, i, 4.0);
        }
        for i in 32..128 {
            a.push(i, i, 2.0 + 0.1 * (i % 3) as f64);
            if i > 32 {
                a.push(i, i - 1, -1.0);
            }
            if i + 1 < 128 {
                a.push(i, i + 1, -1.0);
            }
        }
        let csr = a.to_csr();
        let cfg = SolverConfig::default();
        let (m, mut shared, memo, mut partial, b) = setup(&csr, &cfg);
        let res = run_cg(&m, &mut shared, &b, &cfg, &memo, &mut partial);
        assert!(res.spmv_stats.tiles_bypassed > 0, "{:?}", res.spmv_stats);
        assert!(res.spmv_stats.conversions > 0, "{:?}", res.spmv_stats);

        let (m, mut shared, _, mut partial, b) = setup(&csr, &cfg);
        let walk = Coster::Single(
            SingleCoster::new(CostModel::new(DeviceSpec::a100()), &m, cfg.tile_size)
                .without_spmv_memo(),
        );
        let reference = run_cg(&m, &mut shared, &b, &cfg, &walk, &mut partial);
        assert_eq!(res.iterations, reference.iterations);
        for phase in mf_gpu::Phase::ALL {
            assert_eq!(
                res.timeline.get(phase).to_bits(),
                reference.timeline.get(phase).to_bits(),
                "{phase:?}"
            );
        }
    }

    #[test]
    fn partial_convergence_bypasses_late_iterations() {
        // Decoupled system: the scaled-identity block is a single isolated
        // eigenvalue that CG eliminates within a few iterations, while the
        // unshifted Laplacian chain needs ~n iterations — so mid-solve the
        // identity columns' p entries sit far below ε·10⁻³ and bypass
        // (exactly the m3plates behaviour of Fig. 4).
        let mut a = Coo::new(128, 128);
        for i in 0..32 {
            a.push(i, i, 4.0);
        }
        for i in 32..128 {
            a.push(i, i, 2.0);
            if i > 32 {
                a.push(i, i - 1, -1.0);
            }
            if i + 1 < 128 {
                a.push(i, i + 1, -1.0);
            }
        }
        let csr = a.to_csr();
        let cfg = SolverConfig {
            trace_partial: true,
            ..SolverConfig::default()
        };
        let (m, mut shared, coster, mut partial, b) = setup(&csr, &cfg);
        let res = run_cg(&m, &mut shared, &b, &cfg, &coster, &mut partial);
        assert!(res.converged);
        assert!(
            res.spmv_stats.tiles_bypassed > 0,
            "identity block columns should bypass: {:?}",
            res.spmv_stats
        );
    }
}
