//! Pipelined (Ghysels–Vanroose) CG and PCG — sequential reference cores.
//!
//! The classic CG iteration needs **two** dependent global reductions per
//! iteration (`(p, Ap)` before α, `(r, r)` before β), each a full
//! synchronization epoch on the device. The pipelined recurrence
//! restructures the algorithm so one fused reduction pair per iteration
//! suffices, and that reduction's result is only consumed *after* the next
//! SpMV has been issued — on a GPU the reduction latency hides behind the
//! SpMV (Rupp et al., arXiv:1410.4054; Ghysels & Vanroose; PAPERS.md). The
//! price is two/four extra recurrence-maintained vectors and a modest,
//! *characterized* rounding drift relative to classic CG — asserted against
//! an explicit envelope by `tests/pipelined_parity.rs`, never hidden behind
//! loosened tolerances.
//!
//! Per iteration (CG): one SpMV `q = A·w`, one fused six-vector update
//! ([`blas1::cg_pipelined_update`]), one fused dot pair
//! `(γ', δ') = ((r,r), (w,r))` ([`blas1::dot2`]). The auxiliary vectors
//! maintain `s = A·p`, `z = A·s` and `w = A·r` by recurrence, so no extra
//! SpMVs run. Scalars:
//!
//! ```text
//! β = γ/γ_old            (0 on fresh start/restart)
//! α = γ/(δ − (β/α_old)·γ)  (γ/δ on fresh start/restart)
//! ```
//!
//! PCG adds the preconditioner chain `m = M⁻¹w`, `n = A·m` and maintains
//! `u = M⁻¹r`, `q = M⁻¹s`, `z = A·q` by recurrence — one SpTRSV pair, one
//! SpMV, one fused eight-vector update and one fused reduction (γ, δ plus
//! the residual norm ρ) per iteration.
//!
//! Breakdown semantics mirror the classic cores exactly: a non-positive
//! α-denominator is a curvature breakdown, a non-finite α a numeric one;
//! recovery discards the direction history by flagging a fresh start (β = 0
//! rebuilds `p`, `s`, `z` from the current `r`, `w`, `q` on the next
//! iteration — no extra dots, no extra synchronization), `x` and `r` stay
//! untouched, and [`MAX_CONSECUTIVE_RESTARTS`] restarts in convergence mode
//! abort as `Stalled`.

use crate::cg::{
    current_precision_histogram, finish_host_trace, host_tracer, mixed_spmv, record_spmv_trace,
    rel_error, CoreResult,
};
use crate::config::{SolverConfig, MAX_CONSECUTIVE_RESTARTS};
use crate::coster::{Coster, MultiCoster};
use crate::partial::PartialState;
use crate::precond::charge_factorization;
use crate::report::{BreakdownKind, RecoveryAction, SolveFailure};
use crate::workspace::SolverWorkspace;
use mf_gpu::Timeline;
use mf_kernels::{blas1, Ilu0, SharedTiles};
use mf_sparse::TiledMatrix;

/// Pipelined scalar update: returns `(beta, alpha, denom)` for the current
/// `(γ, δ)` pair. `fresh` selects the steepest-descent start used on
/// iteration 0 and after every breakdown restart. Shared with the threaded
/// engines so the sequential and in-kernel recurrences cannot diverge.
pub(crate) fn pipeline_scalars(
    fresh: bool,
    gamma: f64,
    gamma_old: f64,
    delta: f64,
    alpha_old: f64,
) -> (f64, f64, f64) {
    if fresh {
        (0.0, gamma / delta, delta)
    } else {
        let beta = gamma / gamma_old;
        let denom = delta - (beta / alpha_old) * gamma;
        (beta, gamma / denom, denom)
    }
}

/// Classifies a pipelined scalar breakdown exactly like the classic cores
/// classify `(p, Ap) ≤ 0` vs non-finite α.
pub(crate) fn breakdown_kind(alpha: f64, denom: f64) -> Option<BreakdownKind> {
    if !alpha.is_finite() {
        if denom.is_finite() && denom <= 0.0 {
            Some(BreakdownKind::Curvature)
        } else {
            Some(BreakdownKind::NonFinite)
        }
    } else if denom <= 0.0 {
        Some(BreakdownKind::Curvature)
    } else {
        None
    }
}

/// Pipelined CG on the tiled matrix (fresh workspace).
pub fn run_cg_pipelined(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    b: &[f64],
    cfg: &SolverConfig,
    coster: &Coster,
    partial: &mut PartialState,
) -> CoreResult {
    run_cg_pipelined_ws(
        m,
        shared,
        b,
        cfg,
        coster,
        partial,
        &mut SolverWorkspace::new(),
    )
}

/// Workspace-reusing pipelined CG (see [`crate::cg::run_cg_ws`] for the
/// workspace contract). Vector map: `q = A·w` lives in `ws.u`, `s = A·p`
/// in `ws.s`, `z = A·s` in `ws.t`, plus the new `ws.w`.
pub fn run_cg_pipelined_ws(
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
        result.x = vec![0.0; n];
        result.converged = true;
        result.final_relres = 0.0;
        result.timeline = tl;
        finish_host_trace(tracer, &mut result);
        return result;
    }

    ws.ensure(n);
    let SolverWorkspace {
        x,
        r,
        p,
        u: q,
        s,
        t: z,
        w,
        ..
    } = ws;
    r.copy_from_slice(b);
    let threads = cfg.host_parallelism.threads_for(m.nnz());

    // Init (x0 = 0): r = b, w = A·r, γ = (r,r), δ = (w,r). The fused init
    // SpMV is the pipeline's one-time extra cost over classic CG.
    partial.update(r);
    if partial.enabled() {
        coster.visflag_scan(&mut tl);
    }
    let stats = mixed_spmv(m, shared, &partial.vis_flags, r, w, threads);
    result.spmv_stats.merge(&stats);
    if let Some(t) = &tracer {
        t.stamp(0, 0);
        record_spmv_trace(t, &stats, shared);
    }
    coster.spmv_unsync(&mut tl, m, shared, &partial.vis_flags, &stats);
    let (mut gamma, mut delta) = blas1::dot2(r, w, r);
    coster.dot_unsync(&mut tl, true);
    coster.barrier(&mut tl); // the init epoch publishing w, γ₀, δ₀

    // Adaptive re-tiering: the refresh recomputes r = b − A·x and the
    // recurrence seeds w = A·r, (γ, δ) from the re-tiered operator and
    // flags a fresh (steepest-descent) start — the pipelined analogue of
    // the classic core's r/p rebuild.
    let mut ctrl = cfg
        .adaptive
        .map(|ac| crate::adaptive::controller_for(m, ac));
    let retier_keep = ctrl.as_ref().map(|_| crate::cg::keep_flags(m.tile_cols));

    let iters = cfg.fixed_iterations.unwrap_or(cfg.max_iter);
    let check_convergence = cfg.fixed_iterations.is_none();
    let mut consecutive_restarts = 0usize;
    let mut gamma_old = 1.0f64;
    let mut alpha_old = 1.0f64;
    let mut fresh = true;

    for j in 0..iters {
        if let Some(t) = &tracer {
            t.stamp(j as i64, 0);
        }
        // ---- SpMV q = A·w. On the device this overlaps the reduction that
        // produced (γ, δ); sequentially it simply runs first.
        partial.update(w);
        if partial.enabled() {
            coster.visflag_scan(&mut tl);
        }
        let stats = mixed_spmv(m, shared, &partial.vis_flags, w, q, threads);
        result.spmv_stats.merge(&stats);
        if let Some(t) = &tracer {
            record_spmv_trace(t, &stats, shared);
        }
        coster.spmv_unsync(&mut tl, m, shared, &partial.vis_flags, &stats);

        // ---- Scalars from the previous reduction.
        let (beta, alpha, denom) = pipeline_scalars(fresh, gamma, gamma_old, delta, alpha_old);
        if let Some(kind) = breakdown_kind(alpha, denom) {
            // Breakdown restart: discard the direction history (β = 0 next
            // iteration rebuilds p, s, z from r, w, q) without touching x or
            // r — the same fixed-point-compatible semantics as classic CG.
            fresh = true;
            coster.barrier(&mut tl); // epochs stay aligned with the normal path
            let iter_idx = result.iterations;
            result.iterations += 1;
            consecutive_restarts += 1;
            let relres = gamma.sqrt() / norm_b;
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
                result.p_range_history.push(partial.p_range_histogram(w));
                result.bypass_history.push(stats.tiles_bypassed);
                result
                    .precision_history
                    .push(current_precision_histogram(shared));
            }
            let abort_nonfinite = !gamma.is_finite();
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

        // ---- Fused six-vector update (one pass; see blas1).
        blas1::cg_pipelined_update(alpha, beta, q, p, s, z, x, r, w);
        coster.axpy_unsync(&mut tl, 6);

        // ---- Fused dot pair for the *next* iteration's scalars, then THE
        // one barrier epoch of the iteration (the schedule's whole point).
        let (gamma_new, delta_new) = blas1::dot2(r, w, r);
        coster.dot_unsync(&mut tl, true);
        coster.barrier(&mut tl);

        gamma_old = gamma;
        alpha_old = alpha;
        gamma = gamma_new;
        delta = delta_new;
        fresh = false;

        result.iterations += 1;
        if !gamma.is_finite() {
            // Poisoned residual recurrence — abort observably, exactly like
            // the classic core's (r,r) check.
            let iter_idx = result.iterations - 1;
            result.record_breakdown(iter_idx, BreakdownKind::NonFinite, RecoveryAction::Aborted);
            result.failure = Some(SolveFailure::NonFinite {
                iteration: iter_idx,
            });
            break;
        }
        let relres = gamma.sqrt() / norm_b;
        result.final_relres = relres;

        if cfg.trace_residuals {
            result.residual_history.push(relres);
        }
        if let Some(reference) = &cfg.reference_solution {
            result.error_history.push(rel_error(x, reference));
        }
        if cfg.trace_partial {
            result.p_range_history.push(partial.p_range_histogram(w));
            result.bypass_history.push(stats.tiles_bypassed);
            result
                .precision_history
                .push(current_precision_histogram(shared));
        }

        if check_convergence && relres < cfg.tolerance {
            result.converged = true;
            break;
        }

        // ---- Adaptive re-tier epoch (after the convergence check):
        // re-tier, then reseed the whole recurrence from the true residual
        // of the re-tiered operator: r = b − A·x (via the q temp), w = A·r,
        // (γ, δ) = ((r,r), (w,r)), fresh start.
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
                let xstats = mixed_spmv(m, shared, keepf, x, q, threads);
                result.spmv_stats.merge(&xstats);
                coster.spmv_unsync(&mut tl, m, shared, keepf, &xstats);
                for i in 0..n {
                    r[i] = b[i] - q[i];
                }
                coster.axpy_unsync(&mut tl, 1);
                let wstats = mixed_spmv(m, shared, keepf, r, w, threads);
                result.spmv_stats.merge(&wstats);
                coster.spmv_unsync(&mut tl, m, shared, keepf, &wstats);
                let (g, dl) = blas1::dot2(r, w, r);
                gamma = g;
                delta = dl;
                coster.dot_unsync(&mut tl, true);
                coster.barrier(&mut tl);
                fresh = true;
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

/// Pipelined ILU(0)-preconditioned CG (fresh workspace).
pub fn run_pcg_pipelined(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    ilu: &Ilu0,
    b: &[f64],
    cfg: &SolverConfig,
    mc: &MultiCoster,
    partial: &mut PartialState,
) -> CoreResult {
    run_pcg_pipelined_ws(
        m,
        shared,
        ilu,
        b,
        cfg,
        mc,
        partial,
        &mut SolverWorkspace::new(),
    )
}

/// Workspace-reusing pipelined PCG. Vector map: `u = M⁻¹r` lives in
/// `ws.z`, `z = A·q` in `ws.t`, the SpTRSV intermediate in `ws.y`, plus
/// the new `ws.w` (`A·u`), `ws.m` (`M⁻¹w`), `ws.n` (`A·m`) and `ws.q`
/// (`M⁻¹s`). Like [`crate::precond::run_pcg_ws`] it charges through a
/// [`MultiCoster`]; the threaded single-kernel engine is the in-kernel
/// variant.
#[allow(clippy::too_many_arguments)]
pub fn run_pcg_pipelined_ws(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    ilu: &Ilu0,
    b: &[f64],
    cfg: &SolverConfig,
    mc: &MultiCoster,
    partial: &mut PartialState,
    ws: &mut SolverWorkspace,
) -> CoreResult {
    let n = m.nrows;
    assert_eq!(b.len(), n);

    let mut tl = Timeline::new();
    charge_factorization(mc, &mut tl, ilu.nnz(), n);

    let mut result = CoreResult::empty();

    let norm_b = blas1::norm2(b);
    if norm_b == 0.0 {
        result.x = vec![0.0; n];
        result.converged = true;
        result.final_relres = 0.0;
        result.timeline = tl;
        return result;
    }

    ws.ensure(n);
    // The recursive-block SpTRSV schedules of this factor pair, built once
    // per solve; the level count lets the cost model price recursive-block
    // vs level-scheduled (see MultiCoster::sptrsv_adaptive).
    let trsv = ilu.plan(cfg.trsv_leaf);
    let (trsv_stats, lu_levels) = (trsv.stats(), trsv.levels());
    let SolverWorkspace {
        x,
        r,
        p,
        s,
        t: z,
        z: u,
        y,
        w,
        m: mvec,
        n: nvec,
        q,
        ..
    } = ws;
    r.copy_from_slice(b);
    let threads = cfg.host_parallelism.threads_for(m.nnz());

    // Init (x0 = 0): r = b, u = M⁻¹r, w = A·u, γ = (r,u), δ = (w,u),
    // ρ = (r,r) = ‖b‖².
    trsv.apply_into(r, y, u);
    mc.sptrsv_adaptive(&mut tl, &trsv_stats, ilu.nnz(), lu_levels);
    partial.update(u);
    let stats = mixed_spmv(m, shared, &partial.vis_flags, u, w, threads);
    result.spmv_stats.merge(&stats);
    mc.spmv(&mut tl, m, &stats);
    let (mut gamma, mut delta) = blas1::dot2(r, w, u);
    mc.dot(&mut tl, true);
    let mut rho = norm_b * norm_b;

    let iters = cfg.fixed_iterations.unwrap_or(cfg.max_iter);
    let check_convergence = cfg.fixed_iterations.is_none();
    let mut consecutive_restarts = 0usize;
    let mut gamma_old = 1.0f64;
    let mut alpha_old = 1.0f64;
    let mut fresh = true;

    for _j in 0..iters {
        // ---- Preconditioner chain m = M⁻¹w, then SpMV n = A·m. On the
        // device these overlap the reduction that produced (γ, δ, ρ).
        trsv.apply_into(w, y, mvec);
        mc.sptrsv_adaptive(&mut tl, &trsv_stats, ilu.nnz(), lu_levels);
        partial.update(mvec);
        let stats = mixed_spmv(m, shared, &partial.vis_flags, mvec, nvec, threads);
        result.spmv_stats.merge(&stats);
        mc.spmv(&mut tl, m, &stats);

        // ---- Scalars from the previous reduction.
        let (beta, alpha, denom) = pipeline_scalars(fresh, gamma, gamma_old, delta, alpha_old);
        if let Some(kind) = breakdown_kind(alpha, denom) {
            // Breakdown restart: same flag-only recovery as pipelined CG
            // (β = 0 rebuilds p, s, q, z from u, w, m, n next iteration).
            fresh = true;
            let iter_idx = result.iterations;
            result.iterations += 1;
            consecutive_restarts += 1;
            let relres = rho.sqrt() / norm_b;
            if relres.is_finite() {
                result.final_relres = relres;
            }
            if cfg.trace_residuals {
                result.residual_history.push(relres);
            }
            let abort_nonfinite = !gamma.is_finite();
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

        // ---- Fused eight-vector update (one pass; see blas1).
        blas1::pcg_pipelined_update(alpha, beta, mvec, nvec, p, s, q, z, x, r, u, w);
        mc.axpy(&mut tl);
        mc.axpy(&mut tl);

        // ---- Fused reduction for the next iteration: γ' = (r,u),
        // δ' = (w,u), plus the residual norm ρ' = (r,r) the convergence
        // test needs (γ is *not* a norm under preconditioning).
        let (gamma_new, delta_new) = blas1::dot2(r, w, u);
        mc.dot(&mut tl, false);
        let rho_new = blas1::dot(r, r);
        mc.dot(&mut tl, true);

        gamma_old = gamma;
        alpha_old = alpha;
        gamma = gamma_new;
        delta = delta_new;
        rho = rho_new;
        fresh = false;

        result.iterations += 1;
        if !rho.is_finite() {
            let iter_idx = result.iterations - 1;
            result.record_breakdown(iter_idx, BreakdownKind::NonFinite, RecoveryAction::Aborted);
            result.failure = Some(SolveFailure::NonFinite {
                iteration: iter_idx,
            });
            break;
        }
        let relres = rho.sqrt() / norm_b;
        result.final_relres = relres;
        if cfg.trace_residuals {
            result.residual_history.push(relres);
        }
        if check_convergence && relres < cfg.tolerance {
            result.converged = true;
            break;
        }
    }

    result.x = x.clone();
    result.timeline = tl;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{run_cg, run_cg_ws};
    use crate::coster::SingleCoster;
    use mf_gpu::{CostModel, DeviceSpec};
    use mf_kernels::ilu0;
    use mf_precision::ClassifyOptions;
    use mf_sparse::{Coo, Csr};

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
    fn pipelined_cg_converges_on_poisson() {
        let a = poisson1d(200);
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let res = run_cg_pipelined(&m, &mut shared, &b, &cfg, &coster, &mut partial);
        assert!(res.converged, "relres {}", res.final_relres);
        assert!(res.iterations < 220);
        for v in &res.x {
            assert!((v - 1.0).abs() < 1e-7, "{v}");
        }
    }

    #[test]
    fn pipelined_matches_classic_iteration_count_closely() {
        // The rounding drift of the pipelined recurrence may cost a few
        // iterations but must stay in the same regime.
        let a = poisson1d(300);
        let cfg = SolverConfig::default();
        let (m, mut sh1, coster, mut p1, b) = setup(&a, &cfg);
        let classic = run_cg(&m, &mut sh1, &b, &cfg, &coster, &mut p1);
        let (m2, mut sh2, coster2, mut p2, b2) = setup(&a, &cfg);
        let pipe = run_cg_pipelined(&m2, &mut sh2, &b2, &cfg, &coster2, &mut p2);
        assert!(classic.converged && pipe.converged);
        let (c, p) = (classic.iterations as f64, pipe.iterations as f64);
        assert!(
            (p - c).abs() <= (0.2 * c).max(5.0),
            "classic {c} vs pipelined {p} iterations"
        );
    }

    #[test]
    fn pipelined_fixed_iterations_run_exactly() {
        let a = poisson1d(64);
        let cfg = SolverConfig::benchmark_100_iters();
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let res = run_cg_pipelined(&m, &mut shared, &b, &cfg, &coster, &mut partial);
        assert_eq!(res.iterations, 100);
        assert!(!res.converged);
    }

    #[test]
    fn pipelined_zero_rhs_trivially_converges() {
        let a = poisson1d(32);
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, _) = setup(&a, &cfg);
        let res = run_cg_pipelined(&m, &mut shared, &vec![0.0; 32], &cfg, &coster, &mut partial);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn pipelined_indefinite_matrix_stalls_finite() {
        // A = −I: δ = (Ar, r) < 0 immediately; every fresh start breaks
        // down again, so the solve must stop as Stalled after the restart
        // budget with a finite report — exactly the classic semantics.
        let mut a = Coo::new(64, 64);
        for i in 0..64 {
            a.push(i, i, -1.0);
        }
        let csr = a.to_csr();
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, _) = setup(&csr, &cfg);
        let b = vec![1.0; 64];
        let res = run_cg_pipelined(&m, &mut shared, &b, &cfg, &coster, &mut partial);
        assert!(!res.converged);
        assert!(res.final_relres.is_finite());
        assert!(res.x.iter().all(|v| v.is_finite()));
        assert_eq!(res.iterations, MAX_CONSECUTIVE_RESTARTS);
        assert!(matches!(res.failure, Some(SolveFailure::Stalled { .. })));
        assert!(res
            .breakdowns
            .iter()
            .all(|e| e.kind == BreakdownKind::Curvature));
    }

    #[test]
    fn pipelined_workspace_reuse_is_identical() {
        let a = poisson1d(300);
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let mut ws = SolverWorkspace::with_size(300);
        let ptrs = [ws.x.as_ptr(), ws.w.as_ptr(), ws.t.as_ptr()];
        let res1 = run_cg_pipelined_ws(&m, &mut shared, &b, &cfg, &coster, &mut partial, &mut ws);
        assert!(res1.converged);

        let mut shared2 = SharedTiles::load(&m);
        let eps_abs = cfg.tolerance * blas1::norm2(&b);
        let mut partial2 =
            PartialState::new(cfg.partial_convergence, m.tile_cols, cfg.tile_size, eps_abs);
        let res2 = run_cg_pipelined_ws(&m, &mut shared2, &b, &cfg, &coster, &mut partial2, &mut ws);
        assert_eq!(res1.iterations, res2.iterations);
        assert_eq!(res1.x, res2.x);
        assert_eq!(
            [ws.x.as_ptr(), ws.w.as_ptr(), ws.t.as_ptr()],
            ptrs,
            "workspace buffers must be reused"
        );
    }

    #[test]
    fn pipelined_trace_is_inert_and_counts_iterations() {
        let a = poisson1d(96);
        let base = SolverConfig::default();
        let (m, mut sh1, coster, mut p1, b) = setup(&a, &base);
        let off = run_cg_pipelined(&m, &mut sh1, &b, &base, &coster, &mut p1);
        assert!(off.trace.is_none());

        let cfg = SolverConfig {
            trace: mf_trace::TraceConfig::on(),
            ..SolverConfig::default()
        };
        let (m2, mut sh2, coster2, mut p2, b2) = setup(&a, &cfg);
        let on = run_cg_pipelined(&m2, &mut sh2, &b2, &cfg, &coster2, &mut p2);
        assert_eq!(off.x, on.x, "tracing must not perturb the numerics");
        assert_eq!(off.iterations, on.iterations);
        let trace = on.trace.expect("tracing enabled");
        let s = trace.summary();
        assert_eq!(s.warps, 1);
        assert_eq!(s.iterations, on.iterations);
    }

    #[test]
    fn pipelined_pcg_converges_fast_on_tridiagonal() {
        // ILU(0) of a tridiagonal is exact, so like classic PCG the
        // pipelined variant needs only a couple of iterations.
        let a = poisson1d(400);
        let ilu = ilu0(&a).unwrap();
        let cfg = SolverConfig::default();
        let m = TiledMatrix::from_csr_with(&a, 16, &ClassifyOptions::default());
        let mut shared = SharedTiles::load(&m);
        let mc = MultiCoster::new(CostModel::new(DeviceSpec::a100()), a.nrows);
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        let mut partial = PartialState::new(false, m.tile_cols, 16, 1e-10);
        let res = run_pcg_pipelined(&m, &mut shared, &ilu, &b, &cfg, &mc, &mut partial);
        assert!(res.converged, "relres {}", res.final_relres);
        assert!(res.iterations <= 4, "{} iterations", res.iterations);
        for v in &res.x {
            assert!((v - 1.0).abs() < 1e-6);
        }
        assert!(res.timeline.get(mf_gpu::Phase::SpTrsv) > 0.0);
    }

    #[test]
    fn pipelined_pcg_fixed_iterations_and_zero_rhs() {
        let a = poisson1d(64);
        let ilu = ilu0(&a).unwrap();
        let m = TiledMatrix::from_csr_with(&a, 16, &ClassifyOptions::default());
        let mc = MultiCoster::new(CostModel::new(DeviceSpec::a100()), a.nrows);

        let cfg = SolverConfig {
            fixed_iterations: Some(12),
            ..SolverConfig::default()
        };
        let mut shared = SharedTiles::load(&m);
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        let mut partial = PartialState::new(false, m.tile_cols, 16, 1e-10);
        let res = run_pcg_pipelined(&m, &mut shared, &ilu, &b, &cfg, &mc, &mut partial);
        assert_eq!(res.iterations, 12);

        let mut shared2 = SharedTiles::load(&m);
        let mut partial2 = PartialState::new(false, m.tile_cols, 16, 1e-10);
        let res0 = run_pcg_pipelined(
            &m,
            &mut shared2,
            &ilu,
            &vec![0.0; 64],
            &SolverConfig::default(),
            &mc,
            &mut partial2,
        );
        assert!(res0.converged);
        assert_eq!(res0.iterations, 0);
    }

    #[test]
    fn pipelined_residual_trajectory_tracks_classic() {
        // Drift characterization at the unit level: both recurrences'
        // residual trajectories agree closely while above the rounding
        // floor (the harness-level envelope test sweeps this across
        // fixtures). Below ~100·ε relative the pipelined recurrence is
        // known to level off differently — that part is floor noise, not
        // drift, and is excluded from the envelope.
        let a = poisson1d(200);
        let cfg = SolverConfig {
            trace_residuals: true,
            fixed_iterations: Some(40),
            partial_convergence: false,
            ..SolverConfig::default()
        };
        let (m, mut sh1, coster, mut p1, b) = setup(&a, &cfg);
        let mut ws = SolverWorkspace::new();
        let classic = run_cg_ws(&m, &mut sh1, &b, &cfg, &coster, &mut p1, &mut ws);
        let (m2, mut sh2, coster2, mut p2, b2) = setup(&a, &cfg);
        let pipe = run_cg_pipelined(&m2, &mut sh2, &b2, &cfg, &coster2, &mut p2);
        assert_eq!(classic.residual_history.len(), 40);
        assert_eq!(pipe.residual_history.len(), 40);
        let floor = 100.0 * f64::EPSILON;
        for (i, (c, p)) in classic
            .residual_history
            .iter()
            .zip(&pipe.residual_history)
            .enumerate()
        {
            if *c < floor || *p < floor {
                break;
            }
            let drift = (p / c).ln().abs();
            assert!(
                drift < 0.5,
                "iteration {i}: classic {c:e} vs pipelined {p:e} (|ln ratio| {drift:.3})"
            );
        }
    }
}
