//! ILU(0)-preconditioned CG and BiCGSTAB (paper §III-C last paragraph,
//! evaluated in §IV-C / Fig. 10).
//!
//! The paper applies preconditioning in its *multi-kernel* method ("We
//! apply the recursive block SpTRSV algorithm \[41\] to our multi-kernel
//! method"), so both loops here charge through a [`MultiCoster`]; the
//! Mille-feuille advantage comes from (a) the tiled mixed-precision SpMV
//! and (b) the recursive-block SpTRSV, whose square sub-blocks run as
//! parallel SpMVs instead of serialized dependency levels.

use crate::cg::{mixed_spmv, CoreResult};
use crate::config::{SolverConfig, MAX_CONSECUTIVE_RESTARTS};
use crate::coster::MultiCoster;
use crate::partial::PartialState;
use crate::report::{BreakdownKind, RecoveryAction, SolveFailure};
use crate::workspace::SolverWorkspace;
use mf_gpu::{Phase, Timeline};
use mf_kernels::{blas1, BlockJacobi, Ic0, Ilu0, SharedTiles};
use mf_sparse::TiledMatrix;

/// Charges the ILU(0) factorization itself (done once, on device — modeled
/// as two triangular sweeps over the pattern).
pub fn charge_factorization(mc: &MultiCoster, tl: &mut Timeline, nnz: usize, n: usize) {
    let body = mc.cost.sptrsv_us(nnz, n, (n / 32).max(1));
    tl.add(Phase::Factorize, 2.0 * body);
    tl.add(Phase::Sync, 2.0 * mc.cost.launch_us());
}

/// Preconditioned CG with `M = L·U` from ILU(0), applied through the
/// recursive-block SpTRSV.
pub fn run_pcg(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    ilu: &Ilu0,
    b: &[f64],
    cfg: &SolverConfig,
    mc: &MultiCoster,
    partial: &mut PartialState,
) -> CoreResult {
    run_pcg_ws(
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

/// Workspace-reusing variant of [`run_pcg`] (see [`crate::cg::run_cg_ws`]).
#[allow(clippy::too_many_arguments)]
pub fn run_pcg_ws(
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
        x, r, z, p, u, y, ..
    } = ws;
    r.copy_from_slice(b);
    let threads = cfg.host_parallelism.threads_for(m.nnz());
    trsv.apply_into(r, y, z);
    mc.sptrsv_adaptive(&mut tl, &trsv_stats, ilu.nnz(), lu_levels);
    p.copy_from_slice(z);
    let mut rz = blas1::dot(r, z);
    mc.dot(&mut tl, true);

    // Adaptive re-tiering: same controller state machine as the CG core
    // (see `crate::adaptive`); the refresh re-derives z and rz through the
    // preconditioner because the recurrence tracks the old operator.
    let mut ctrl = cfg
        .adaptive
        .map(|ac| crate::adaptive::controller_for(m, ac));
    let retier_keep = ctrl.as_ref().map(|_| crate::cg::keep_flags(m.tile_cols));

    let iters = cfg.fixed_iterations.unwrap_or(cfg.max_iter);
    let check_convergence = cfg.fixed_iterations.is_none();
    let mut consecutive_restarts = 0usize;

    for _j in 0..iters {
        partial.update(p);
        let stats = mixed_spmv(m, shared, &partial.vis_flags, p, u, threads);
        result.spmv_stats.merge(&stats);
        mc.spmv(&mut tl, m, &stats);

        let pu = blas1::dot(p, u);
        mc.dot(&mut tl, true);
        let alpha = rz / pu;
        if !alpha.is_finite() || pu <= 0.0 {
            // Breakdown restart — the kernel sequence still runs, charge it.
            let kind = if pu.is_finite() && pu <= 0.0 {
                BreakdownKind::Curvature
            } else {
                BreakdownKind::NonFinite
            };
            p.copy_from_slice(z);
            rz = blas1::dot(r, z);
            mc.axpy(&mut tl);
            mc.axpy(&mut tl);
            mc.dot(&mut tl, true);
            mc.dot(&mut tl, true);
            mc.axpy(&mut tl);
            let iter_idx = result.iterations;
            result.iterations += 1;
            consecutive_restarts += 1;
            // A restart leaves x and r untouched, so repeating it is a
            // fixed point (see crate::cg) — abort instead of spinning.
            let abort_nonfinite = !rz.is_finite();
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

        blas1::axpy(alpha, p, x);
        blas1::axpy(-alpha, u, r);
        mc.axpy(&mut tl);
        mc.axpy(&mut tl);

        let rr = blas1::dot(r, r);
        mc.dot(&mut tl, true);
        if !rr.is_finite() {
            // Poisoned residual: no restart can rebuild finite state from
            // it. Abort observably (final_relres keeps its last value).
            let iter_idx = result.iterations;
            result.iterations += 1;
            result.record_breakdown(iter_idx, BreakdownKind::NonFinite, RecoveryAction::Aborted);
            result.failure = Some(SolveFailure::NonFinite {
                iteration: iter_idx,
            });
            break;
        }

        trsv.apply_into(r, y, z);
        mc.sptrsv_adaptive(&mut tl, &trsv_stats, ilu.nnz(), lu_levels);

        let rz_new = blas1::dot(r, z);
        mc.dot(&mut tl, true);
        let beta = rz_new / rz;
        rz = rz_new;
        blas1::xpay(z, beta, p);
        mc.axpy(&mut tl);

        result.iterations += 1;
        let relres = rr.sqrt() / norm_b;
        result.final_relres = relres;
        if cfg.trace_residuals {
            result.residual_history.push(relres);
        }
        if check_convergence && relres < cfg.tolerance {
            result.converged = true;
            break;
        }
        if !beta.is_finite() {
            // β = (r,z)_new/(r,z) went non-finite — the preconditioned
            // correlation collapsed. Record and abort.
            let iter_idx = result.iterations - 1;
            result.record_breakdown(iter_idx, BreakdownKind::NonFinite, RecoveryAction::Aborted);
            result.failure = Some(SolveFailure::NonFinite {
                iteration: iter_idx,
            });
            break;
        }

        // ---- Adaptive re-tier epoch (after the convergence check):
        // re-tier the tiles, then rebuild r = b − A·x, z = M⁻¹r, p = z and
        // rz = (r,z) from the re-tiered operator.
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
                mc.retier(&mut tl, touched);
                let keepf = retier_keep.as_ref().expect("armed with controller");
                let rstats = mixed_spmv(m, shared, keepf, x, u, threads);
                result.spmv_stats.merge(&rstats);
                mc.spmv(&mut tl, m, &rstats);
                for i in 0..n {
                    r[i] = b[i] - u[i];
                }
                mc.axpy(&mut tl);
                trsv.apply_into(r, y, z);
                mc.sptrsv_adaptive(&mut tl, &trsv_stats, ilu.nnz(), lu_levels);
                p.copy_from_slice(z);
                rz = blas1::dot(r, z);
                mc.dot(&mut tl, true);
                result.retier_trail.push(d);
            }
        }
    }

    result.x = x.clone();
    result.timeline = tl;
    result
}

/// IC(0)-preconditioned CG (`M = L·Lᵀ`) — an extension beyond the paper's
/// ILU(0) evaluation that suits the SPD class: symmetric preconditioning
/// keeps the preconditioned operator SPD and the factorization costs half
/// the ILU work.
pub fn run_pcg_ic(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    ic: &Ic0,
    b: &[f64],
    cfg: &SolverConfig,
    mc: &MultiCoster,
    partial: &mut PartialState,
) -> CoreResult {
    run_pcg_ic_ws(
        m,
        shared,
        ic,
        b,
        cfg,
        mc,
        partial,
        &mut SolverWorkspace::new(),
    )
}

/// Workspace-reusing variant of [`run_pcg_ic`].
#[allow(clippy::too_many_arguments)]
pub fn run_pcg_ic_ws(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    ic: &Ic0,
    b: &[f64],
    cfg: &SolverConfig,
    mc: &MultiCoster,
    partial: &mut PartialState,
    ws: &mut SolverWorkspace,
) -> CoreResult {
    let n = m.nrows;
    assert_eq!(b.len(), n);

    let mut tl = Timeline::new();
    charge_factorization(mc, &mut tl, ic.l.nnz(), n);

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
    let trsv = ic.plan(cfg.trsv_leaf);
    let (trsv_stats, lu_levels) = (trsv.stats(), trsv.levels());
    let SolverWorkspace {
        x, r, z, p, u, y, ..
    } = ws;
    r.copy_from_slice(b);
    let threads = cfg.host_parallelism.threads_for(m.nnz());
    trsv.apply_into(r, y, z);
    mc.sptrsv_adaptive(&mut tl, &trsv_stats, ic.nnz(), lu_levels);
    p.copy_from_slice(z);
    let mut rz = blas1::dot(r, z);
    mc.dot(&mut tl, true);

    let iters = cfg.fixed_iterations.unwrap_or(cfg.max_iter);
    let check_convergence = cfg.fixed_iterations.is_none();
    let mut consecutive_restarts = 0usize;

    for _j in 0..iters {
        partial.update(p);
        let stats = mixed_spmv(m, shared, &partial.vis_flags, p, u, threads);
        result.spmv_stats.merge(&stats);
        mc.spmv(&mut tl, m, &stats);

        let pu = blas1::dot(p, u);
        mc.dot(&mut tl, true);
        let alpha = rz / pu;
        if !alpha.is_finite() || pu <= 0.0 {
            // Breakdown restart — the kernel sequence still runs, charge it.
            let kind = if pu.is_finite() && pu <= 0.0 {
                BreakdownKind::Curvature
            } else {
                BreakdownKind::NonFinite
            };
            p.copy_from_slice(z);
            rz = blas1::dot(r, z);
            mc.axpy(&mut tl);
            mc.axpy(&mut tl);
            mc.dot(&mut tl, true);
            mc.dot(&mut tl, true);
            mc.axpy(&mut tl);
            let iter_idx = result.iterations;
            result.iterations += 1;
            consecutive_restarts += 1;
            // A restart leaves x and r untouched, so repeating it is a
            // fixed point (see crate::cg) — abort instead of spinning.
            let abort_nonfinite = !rz.is_finite();
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

        blas1::axpy(alpha, p, x);
        blas1::axpy(-alpha, u, r);
        mc.axpy(&mut tl);
        mc.axpy(&mut tl);
        let rr = blas1::dot(r, r);
        mc.dot(&mut tl, true);
        if !rr.is_finite() {
            // Poisoned residual: no restart can rebuild finite state from
            // it. Abort observably (final_relres keeps its last value).
            let iter_idx = result.iterations;
            result.iterations += 1;
            result.record_breakdown(iter_idx, BreakdownKind::NonFinite, RecoveryAction::Aborted);
            result.failure = Some(SolveFailure::NonFinite {
                iteration: iter_idx,
            });
            break;
        }

        trsv.apply_into(r, y, z);
        mc.sptrsv_adaptive(&mut tl, &trsv_stats, ic.nnz(), lu_levels);

        let rz_new = blas1::dot(r, z);
        mc.dot(&mut tl, true);
        let beta = rz_new / rz;
        rz = rz_new;
        blas1::xpay(z, beta, p);
        mc.axpy(&mut tl);

        result.iterations += 1;
        let relres = rr.sqrt() / norm_b;
        result.final_relres = relres;
        if cfg.trace_residuals {
            result.residual_history.push(relres);
        }
        if check_convergence && relres < cfg.tolerance {
            result.converged = true;
            break;
        }
        if !beta.is_finite() {
            // β = (r,z)_new/(r,z) went non-finite — the preconditioned
            // correlation collapsed. Record and abort.
            let iter_idx = result.iterations - 1;
            result.record_breakdown(iter_idx, BreakdownKind::NonFinite, RecoveryAction::Aborted);
            result.failure = Some(SolveFailure::NonFinite {
                iteration: iter_idx,
            });
            break;
        }
    }

    result.x = x.clone();
    result.timeline = tl;
    result
}

/// CG preconditioned with the adaptive-precision block-Jacobi `M⁻¹` — an
/// extension following the mixed-precision preconditioning line the paper's
/// related work cites (Anzt et al. / Ginkgo). Fully parallel preconditioner
/// application (no dependency levels), with each block's inverse stored in
/// the narrowest precision its conditioning tolerates.
pub fn run_pcg_bj(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    bj: &BlockJacobi,
    b: &[f64],
    cfg: &SolverConfig,
    mc: &MultiCoster,
    partial: &mut PartialState,
) -> CoreResult {
    run_pcg_bj_ws(
        m,
        shared,
        bj,
        b,
        cfg,
        mc,
        partial,
        &mut SolverWorkspace::new(),
    )
}

/// Workspace-reusing variant of [`run_pcg_bj`].
#[allow(clippy::too_many_arguments)]
pub fn run_pcg_bj_ws(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    bj: &BlockJacobi,
    b: &[f64],
    cfg: &SolverConfig,
    mc: &MultiCoster,
    partial: &mut PartialState,
    ws: &mut SolverWorkspace,
) -> CoreResult {
    let n = m.nrows;
    assert_eq!(b.len(), n);

    let mut tl = Timeline::new();
    // Factorization: one dense inversion per block, parallel over blocks.
    tl.add(
        Phase::Factorize,
        mc.cost.kernel_body_us(
            2.0 * bj
                .inv_blocks
                .iter()
                .map(|blk| (blk.len() as f64).powf(1.5))
                .sum::<f64>(),
            bj.storage_bytes() as f64 * 2.0,
            mc.cost.blas1_warps(n.max(1)),
        ),
    );
    tl.add(Phase::Sync, mc.cost.launch_us());

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
    let SolverWorkspace { x, r, z, p, u, .. } = ws;
    r.copy_from_slice(b);
    let threads = cfg.host_parallelism.threads_for(m.nnz());
    bj.apply_into(r, z);
    mc.block_jacobi(&mut tl, bj);
    p.copy_from_slice(z);
    let mut rz = blas1::dot(r, z);
    mc.dot(&mut tl, true);

    let iters = cfg.fixed_iterations.unwrap_or(cfg.max_iter);
    let check_convergence = cfg.fixed_iterations.is_none();
    let mut consecutive_restarts = 0usize;

    for _j in 0..iters {
        partial.update(p);
        let stats = mixed_spmv(m, shared, &partial.vis_flags, p, u, threads);
        result.spmv_stats.merge(&stats);
        mc.spmv(&mut tl, m, &stats);

        let pu = blas1::dot(p, u);
        mc.dot(&mut tl, true);
        let alpha = rz / pu;
        if !alpha.is_finite() || pu <= 0.0 {
            // Breakdown restart — the kernel sequence still runs, charge it.
            let kind = if pu.is_finite() && pu <= 0.0 {
                BreakdownKind::Curvature
            } else {
                BreakdownKind::NonFinite
            };
            p.copy_from_slice(z);
            rz = blas1::dot(r, z);
            mc.axpy(&mut tl);
            mc.axpy(&mut tl);
            mc.dot(&mut tl, true);
            mc.dot(&mut tl, true);
            mc.axpy(&mut tl);
            let iter_idx = result.iterations;
            result.iterations += 1;
            consecutive_restarts += 1;
            // A restart leaves x and r untouched, so repeating it is a
            // fixed point (see crate::cg) — abort instead of spinning.
            let abort_nonfinite = !rz.is_finite();
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

        blas1::axpy(alpha, p, x);
        blas1::axpy(-alpha, u, r);
        mc.axpy(&mut tl);
        mc.axpy(&mut tl);
        let rr = blas1::dot(r, r);
        mc.dot(&mut tl, true);
        if !rr.is_finite() {
            // Poisoned residual: no restart can rebuild finite state from
            // it. Abort observably (final_relres keeps its last value).
            let iter_idx = result.iterations;
            result.iterations += 1;
            result.record_breakdown(iter_idx, BreakdownKind::NonFinite, RecoveryAction::Aborted);
            result.failure = Some(SolveFailure::NonFinite {
                iteration: iter_idx,
            });
            break;
        }

        bj.apply_into(r, z);
        mc.block_jacobi(&mut tl, bj);

        let rz_new = blas1::dot(r, z);
        mc.dot(&mut tl, true);
        let beta = rz_new / rz;
        rz = rz_new;
        blas1::xpay(z, beta, p);
        mc.axpy(&mut tl);

        result.iterations += 1;
        let relres = rr.sqrt() / norm_b;
        result.final_relres = relres;
        if cfg.trace_residuals {
            result.residual_history.push(relres);
        }
        if check_convergence && relres < cfg.tolerance {
            result.converged = true;
            break;
        }
        if !beta.is_finite() {
            // β = (r,z)_new/(r,z) went non-finite — the preconditioned
            // correlation collapsed. Record and abort.
            let iter_idx = result.iterations - 1;
            result.record_breakdown(iter_idx, BreakdownKind::NonFinite, RecoveryAction::Aborted);
            result.failure = Some(SolveFailure::NonFinite {
                iteration: iter_idx,
            });
            break;
        }
    }

    result.x = x.clone();
    result.timeline = tl;
    result
}

/// Preconditioned BiCGSTAB (right preconditioning: `p̂ = M⁻¹p`,
/// `ŝ = M⁻¹s`).
#[allow(clippy::too_many_arguments)]
pub fn run_pbicgstab(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    ilu: &Ilu0,
    b: &[f64],
    cfg: &SolverConfig,
    mc: &MultiCoster,
    partial: &mut PartialState,
) -> CoreResult {
    run_pbicgstab_ws(
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

/// Workspace-reusing variant of [`run_pbicgstab`].
#[allow(clippy::too_many_arguments)]
pub fn run_pbicgstab_ws(
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
        r0s,
        p,
        u: v,
        s,
        t,
        y,
        phat,
        shat,
        ..
    } = ws;
    r.copy_from_slice(b);
    r0s.copy_from_slice(b);
    p.copy_from_slice(b);
    let threads = cfg.host_parallelism.threads_for(m.nnz());
    let mut rho = blas1::dot(r, r0s);

    let iters = cfg.fixed_iterations.unwrap_or(cfg.max_iter);
    let check_convergence = cfg.fixed_iterations.is_none();
    let mut consecutive_restarts = 0usize;

    for _j in 0..iters {
        // p̂ = M⁻¹ p ; v = A p̂.
        trsv.apply_into(p, y, phat);
        mc.sptrsv_adaptive(&mut tl, &trsv_stats, ilu.nnz(), lu_levels);
        partial.update(phat);
        let st1 = mixed_spmv(m, shared, &partial.vis_flags, phat, v, threads);
        result.spmv_stats.merge(&st1);
        mc.spmv(&mut tl, m, &st1);

        let denom = blas1::dot(v, r0s);
        mc.dot(&mut tl, true);
        let alpha = rho / denom;
        if !alpha.is_finite() || denom.abs() < f64::MIN_POSITIVE {
            // Breakdown restart — charge the remaining pipeline.
            let kind = if !alpha.is_finite() {
                BreakdownKind::NonFinite
            } else {
                BreakdownKind::Rho
            };
            p.copy_from_slice(r);
            rho = blas1::dot(r, r0s);
            if rho.abs() < f64::MIN_POSITIVE {
                rho = blas1::dot(r, r);
            }
            mc.axpy(&mut tl);
            mc.sptrsv_adaptive(&mut tl, &trsv_stats, ilu.nnz(), lu_levels);
            mc.spmv(&mut tl, m, &st1);
            mc.dot(&mut tl, true);
            mc.dot(&mut tl, true);
            mc.axpy(&mut tl);
            mc.axpy(&mut tl);
            mc.axpy(&mut tl);
            mc.dot(&mut tl, true);
            mc.dot(&mut tl, true);
            mc.axpy(&mut tl);
            let iter_idx = result.iterations;
            result.iterations += 1;
            consecutive_restarts += 1;
            // Same fixed-point argument as the sequential BiCGSTAB core.
            let abort_nonfinite = !rho.is_finite();
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

        blas1::waxpy(r, -alpha, v, s);
        mc.axpy(&mut tl);

        // ŝ = M⁻¹ s ; t = A ŝ.
        trsv.apply_into(s, y, shat);
        mc.sptrsv_adaptive(&mut tl, &trsv_stats, ilu.nnz(), lu_levels);
        partial.update(shat);
        let st2 = mixed_spmv(m, shared, &partial.vis_flags, shat, t, threads);
        result.spmv_stats.merge(&st2);
        mc.spmv(&mut tl, m, &st2);

        let ts_dot = blas1::dot(t, s);
        let tt = blas1::dot(t, t);
        mc.dot(&mut tl, false);
        mc.dot(&mut tl, true); // scalar pair -> one readback
        let omega = if tt > 0.0 { ts_dot / tt } else { 0.0 };

        for i in 0..n {
            x[i] += alpha * phat[i] + omega * shat[i];
        }
        mc.axpy(&mut tl);
        mc.axpy(&mut tl);
        blas1::waxpy(s, -omega, t, r);
        mc.axpy(&mut tl);

        let rho_new = blas1::dot(r, r0s);
        mc.dot(&mut tl, false);
        let rr = blas1::dot(r, r);
        mc.dot(&mut tl, true); // scalar pair -> one readback
        consecutive_restarts = 0; // x and r advanced: real progress

        if !rr.is_finite() {
            let iter_idx = result.iterations;
            result.iterations += 1;
            result.record_breakdown(iter_idx, BreakdownKind::NonFinite, RecoveryAction::Aborted);
            result.failure = Some(SolveFailure::NonFinite {
                iteration: iter_idx,
            });
            break;
        }

        result.iterations += 1;
        let relres = rr.sqrt() / norm_b;
        result.final_relres = relres;
        if cfg.trace_residuals {
            result.residual_history.push(relres);
        }
        if check_convergence && relres < cfg.tolerance {
            result.converged = true;
            break;
        }

        let beta = (rho_new / rho) * (alpha / omega);
        if !beta.is_finite() || omega == 0.0 || rho_new.abs() < f64::MIN_POSITIVE {
            let kind = if omega == 0.0 {
                BreakdownKind::Omega
            } else if rho_new.abs() < f64::MIN_POSITIVE {
                BreakdownKind::Rho
            } else {
                BreakdownKind::NonFinite
            };
            result.record_breakdown(result.iterations - 1, kind, RecoveryAction::Restarted);
            p.copy_from_slice(r);
            rho = blas1::dot(r, r0s);
            if rho.abs() < f64::MIN_POSITIVE {
                rho = blas1::dot(r, r);
            }
            mc.axpy(&mut tl); // the p-update kernel still runs
            continue;
        }
        rho = rho_new;
        blas1::bicgstab_p_update(r, beta, omega, v, p);
        mc.axpy(&mut tl);
    }

    result.x = x.clone();
    result.timeline = tl;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn nonsym1d(n: usize) -> Csr {
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 4.0);
            if i > 0 {
                a.push(i, i - 1, -1.75);
            }
            if i + 1 < n {
                a.push(i, i + 1, -0.25);
            }
        }
        a.to_csr()
    }

    fn setup(
        a: &Csr,
    ) -> (
        TiledMatrix,
        SharedTiles,
        MultiCoster,
        PartialState,
        Vec<f64>,
    ) {
        let m = TiledMatrix::from_csr_with(a, 16, &ClassifyOptions::default());
        let shared = SharedTiles::load(&m);
        let mc = MultiCoster::new(CostModel::new(DeviceSpec::a100()), a.nrows);
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        let partial = PartialState::new(false, m.tile_cols, 16, 1e-10);
        (m, shared, mc, partial, b)
    }

    #[test]
    fn pcg_converges_much_faster_than_cg() {
        let a = poisson1d(400);
        let ilu = ilu0(&a).unwrap();
        let cfg = SolverConfig::default();
        let (m, mut shared, mc, mut partial, b) = setup(&a);
        let res = run_pcg(&m, &mut shared, &ilu, &b, &cfg, &mc, &mut partial);
        assert!(res.converged, "relres {}", res.final_relres);
        // ILU(0) of a tridiagonal is exact -> 1-2 iterations.
        assert!(res.iterations <= 3, "{} iterations", res.iterations);
        for v in &res.x {
            assert!((v - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn pcg_timeline_includes_factorize_and_sptrsv() {
        let a = poisson1d(200);
        let ilu = ilu0(&a).unwrap();
        let cfg = SolverConfig::default();
        let (m, mut shared, mc, mut partial, b) = setup(&a);
        let res = run_pcg(&m, &mut shared, &ilu, &b, &cfg, &mc, &mut partial);
        assert!(res.timeline.get(Phase::Factorize) > 0.0);
        assert!(res.timeline.get(Phase::SpTrsv) > 0.0);
        assert!(res.timeline.get(Phase::Sync) > 0.0);
    }

    #[test]
    fn pbicgstab_converges_on_nonsymmetric() {
        let a = nonsym1d(300);
        let ilu = ilu0(&a).unwrap();
        let cfg = SolverConfig::default();
        let (m, mut shared, mc, mut partial, b) = setup(&a);
        let res = run_pbicgstab(&m, &mut shared, &ilu, &b, &cfg, &mc, &mut partial);
        assert!(res.converged, "relres {}", res.final_relres);
        assert!(res.iterations <= 3, "{} iterations", res.iterations);
        for v in &res.x {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn fixed_iterations_respected() {
        let a = nonsym1d(64);
        let ilu = ilu0(&a).unwrap();
        let cfg = SolverConfig {
            fixed_iterations: Some(10),
            ..SolverConfig::default()
        };
        let (m, mut shared, mc, mut partial, b) = setup(&a);
        let res = run_pbicgstab(&m, &mut shared, &ilu, &b, &cfg, &mc, &mut partial);
        assert_eq!(res.iterations, 10);
    }

    #[test]
    fn pcg_ic_converges_on_spd() {
        let a = poisson1d(300);
        let ic = mf_kernels::Ic0::new(&a).unwrap();
        let cfg = SolverConfig::default();
        let (m, mut shared, mc, mut partial, b) = setup(&a);
        let res = run_pcg_ic(&m, &mut shared, &ic, &b, &cfg, &mc, &mut partial);
        assert!(res.converged, "relres {}", res.final_relres);
        // IC(0) of a tridiagonal is exact Cholesky -> 1-2 iterations.
        assert!(res.iterations <= 3, "{}", res.iterations);
        for v in &res.x {
            assert!((v - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = poisson1d(32);
        let ilu = ilu0(&a).unwrap();
        let cfg = SolverConfig::default();
        let (m, mut shared, mc, mut partial, _) = setup(&a);
        let res = run_pcg(
            &m,
            &mut shared,
            &ilu,
            &vec![0.0; 32],
            &cfg,
            &mc,
            &mut partial,
        );
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }
}
