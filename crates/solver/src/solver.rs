//! The `MilleFeuille` facade: preprocessing, mode selection, dispatch.

use crate::bicgstab::run_bicgstab_ws;
use crate::cg::{run_cg_ws, CoreResult};
use crate::config::{KernelMode, PipelineMode, SolverConfig};
use crate::coster::{Coster, MultiCoster, SingleCoster};
use crate::partial::PartialState;
use crate::pipelined::{run_cg_pipelined_ws, run_pcg_pipelined_ws};
use crate::precond::{run_pbicgstab, run_pcg, run_pcg_bj, run_pcg_ic};
use crate::report::{ExecutedMode, SolveReport};
use crate::workspace::SolverWorkspace;
use mf_gpu::{CostModel, DeviceSpec, Phase, ShmemPlan, Timeline};
use mf_kernels::{blas1, ilu0_boosted, Ic0, Ilu0, SharedTiles};
use mf_sparse::{Csr, TiledMatrix};

/// The Mille-feuille solver: tile-grained mixed precision + single-kernel
/// execution + partial-convergence-aware dynamic lowering.
///
/// ```
/// use mf_gpu::DeviceSpec;
/// use mf_solver::{MilleFeuille, SolverConfig};
/// use mf_sparse::Coo;
///
/// // A tiny SPD system.
/// let mut a = Coo::new(4, 4);
/// for i in 0..4 {
///     a.push(i, i, 4.0);
///     if i > 0 { a.push(i, i - 1, -1.0); }
///     if i + 1 < 4 { a.push(i, i + 1, -1.0); }
/// }
/// let a = a.to_csr();
/// let b = vec![1.0; 4];
///
/// let solver = MilleFeuille::new(DeviceSpec::a100(), SolverConfig::default());
/// let report = solver.solve_cg(&a, &b);
/// assert!(report.converged);
/// ```
/// Prepends one [`BreakdownKind::FactorShift`] event per diagonal-boosting
/// attempt to a solve's breakdown trail, so reports show the factorization
/// recovery before any iteration-time events. The shifts come from
/// [`mf_kernels::ilu0_boosted`] / [`Ic0::new_boosted`]; `iteration` is 0
/// because the shifts happen before the first iteration.
///
/// [`BreakdownKind::FactorShift`]: crate::report::BreakdownKind::FactorShift
fn prepend_factor_shifts(breakdowns: &mut Vec<crate::report::BreakdownEvent>, shifts: &[f64]) {
    use crate::report::{BreakdownEvent, BreakdownKind, RecoveryAction};
    if shifts.is_empty() {
        return;
    }
    let mut trail: Vec<BreakdownEvent> = shifts
        .iter()
        .map(|_| BreakdownEvent {
            iteration: 0,
            kind: BreakdownKind::FactorShift,
            action: RecoveryAction::Restarted,
        })
        .collect();
    trail.extend(breakdowns.iter().copied());
    *breakdowns = trail;
}

#[derive(Clone, Debug)]
pub struct MilleFeuille {
    /// Device model the solve is priced on.
    pub device: DeviceSpec,
    /// Solver configuration.
    pub config: SolverConfig,
}

/// Everything produced by preprocessing (paper Fig. 14 measures its cost).
pub struct Preprocessed {
    /// The tiled mixed-precision matrix.
    pub tiled: TiledMatrix,
    /// Modeled preprocessing time, µs.
    pub timeline: Timeline,
    /// Host wall-clock of the conversion in this simulation, µs.
    pub wall_us: f64,
}

impl MilleFeuille {
    /// Creates a solver for `device` with `config`.
    pub fn new(device: DeviceSpec, config: SolverConfig) -> MilleFeuille {
        MilleFeuille { device, config }
    }

    /// Creates a solver with default configuration.
    pub fn with_defaults(device: DeviceSpec) -> MilleFeuille {
        MilleFeuille::new(device, SolverConfig::default())
    }

    fn cost(&self) -> CostModel {
        CostModel::new(self.device.clone())
    }

    /// Converts a CSR matrix into the tiled format, charging the modeled
    /// preprocessing cost (format conversion + task distribution + initial
    /// precision assignment — the three components §IV-H lists).
    ///
    /// Classification dominates conversion time, so when
    /// [`SolverConfig::host_parallelism`] resolves to more than one thread
    /// the mixed-precision build classifies tiles in parallel
    /// ([`TiledMatrix::from_csr_par`]); the result is bit-identical to the
    /// serial [`TiledMatrix::from_csr_with`].
    pub fn preprocess(&self, a: &Csr) -> Preprocessed {
        let start = std::time::Instant::now();
        let (ts, copts) = (self.config.tile_size, &self.config.classify);
        let tiled = if let Some(p) = self.config.uniform_precision {
            TiledMatrix::from_csr_uniform(a, ts, p)
        } else if !self.config.mixed_precision {
            TiledMatrix::from_csr_uniform(a, ts, mf_precision::Precision::Fp64)
        } else if self.config.host_parallelism.threads_for(a.nnz()) > 1 {
            TiledMatrix::from_csr_par(a, ts, copts)
        } else {
            TiledMatrix::from_csr_with(a, ts, copts)
        };
        let wall_us = start.elapsed().as_secs_f64() * 1e6;

        let cost = self.cost();
        let mut tl = Timeline::new();
        let nnz = a.nnz() as f64;
        // Conversion pass: read CSR (12 B/nnz), classify (4 round-trips per
        // value), write the tiled arrays (~10 B/nnz + tile metadata).
        let conv = cost.kernel_body_us(16.0 * nnz, 26.0 * nnz, cost.spmv_warps(a.nnz().max(1)));
        // Schedule construction: one pass over the tile metadata.
        let sched = cost.kernel_body_us(
            2.0 * tiled.tile_count() as f64,
            13.0 * tiled.tile_count() as f64,
            cost.blas1_warps(tiled.tile_count().max(1)),
        );
        tl.add(Phase::Preprocess, conv + sched);
        tl.add(Phase::Sync, 2.0 * cost.launch_us());
        Preprocessed {
            tiled,
            timeline: tl,
            wall_us,
        }
    }

    /// The §III-C mode decision for a preprocessed matrix.
    pub fn decide_mode(&self, tiled: &TiledMatrix) -> ExecutedMode {
        match self.config.kernel_mode {
            KernelMode::SingleKernel => ExecutedMode::SingleKernel,
            KernelMode::MultiKernel => ExecutedMode::MultiKernel,
            KernelMode::Auto => {
                if !ShmemPlan::use_single_kernel(tiled, &self.device) {
                    return ExecutedMode::MultiKernel;
                }
                // Capacity admits the single kernel; confirm it actually
                // wins (tile-scattered matrices can be dominated by the
                // dependency-array atomic traffic — the "overhead outweighs
                // the benefit" clause of §III-C).
                let single = SingleCoster::new(self.cost(), tiled, self.config.tile_size)
                    .estimate_cg_iteration_us(&tiled.tile_prec);
                let multi =
                    MultiCoster::new(self.cost(), tiled.nrows).estimate_cg_iteration_us(tiled);
                // Slightly conservative: the estimate is a CG iteration,
                // and the multi-kernel fallback is never worse than the
                // baselines — prefer it on a near-tie.
                if single <= multi * 0.90 {
                    ExecutedMode::SingleKernel
                } else {
                    ExecutedMode::MultiKernel
                }
            }
        }
    }

    fn partial_state(&self, tiled: &TiledMatrix, b: &[f64], mode: ExecutedMode) -> PartialState {
        // The dynamic strategy needs the persistent on-chip tile copy, so it
        // only runs in single-kernel mode (§III-D). Adaptive re-tiering
        // forces it off: the one-way on-chip lowering would fight the
        // controller's plans, and a bypassed tile would skip the refresh
        // SpMV's true-residual contribution.
        let enabled = self.config.partial_convergence
            && self.config.adaptive.is_none()
            && mode == ExecutedMode::SingleKernel;
        let eps_abs = self.config.tolerance * self.config.partial_safety * blas1::norm2(b);
        PartialState::new(
            enabled,
            tiled.tile_cols,
            self.config.tile_size,
            eps_abs.max(f64::MIN_POSITIVE),
        )
    }

    fn assemble(
        &self,
        a: &Csr,
        pre: &Preprocessed,
        mode: ExecutedMode,
        warp_count: usize,
        core: CoreResult,
    ) -> SolveReport {
        let mut timeline = pre.timeline.clone();
        timeline.merge(&core.timeline);
        SolveReport {
            x: core.x,
            converged: core.converged,
            iterations: core.iterations,
            final_relres: core.final_relres,
            mode,
            timeline,
            spmv_stats: core.spmv_stats,
            tiled_memory: pre.tiled.memory_bytes(),
            csr_memory: a.memory_bytes(),
            warp_count,
            residual_history: core.residual_history,
            error_history: core.error_history,
            p_range_history: core.p_range_history,
            bypass_history: core.bypass_history,
            precision_history: core.precision_history,
            preprocess_wall_us: pre.wall_us,
            preprocess_passes: 1,
            breakdowns: core.breakdowns,
            failure: core.failure,
            trace: core.trace,
            retier_trail: core.retier_trail,
        }
    }

    /// Resolves [`SolverConfig::pipeline`] for a preprocessed matrix.
    /// Explicit modes win; `Auto` picks the pipelined schedule when the
    /// modeled barrier savings are a nontrivial share (>5%) of a
    /// single-kernel iteration — i.e. on synchronization-dominated
    /// (small/medium) systems, where the pipelined recurrence's rounding
    /// drift buys real time. Multi-kernel mode stays classic under `Auto`:
    /// every operation is its own kernel there, so the barrier epochs the
    /// pipeline removes were never being paid.
    pub fn decide_pipeline(&self, tiled: &TiledMatrix, mode: ExecutedMode) -> bool {
        match self.config.pipeline {
            PipelineMode::Classic => false,
            PipelineMode::Pipelined => true,
            PipelineMode::Auto => {
                if mode != ExecutedMode::SingleKernel {
                    return false;
                }
                let sc = SingleCoster::new(self.cost(), tiled, self.config.tile_size);
                let classic = sc.estimate_cg_iteration_us(&tiled.tile_prec);
                let piped = sc.estimate_cg_pipelined_iteration_us(&tiled.tile_prec);
                piped < classic * 0.95
            }
        }
    }

    /// Solves `A x = b`, picking the method by matrix structure the way the
    /// paper partitions SuiteSparse: CG for (likely) symmetric positive
    /// definite matrices, BiCGSTAB otherwise.
    ///
    /// The structure heuristic can be fooled (a symmetric, diagonally
    /// dominated-looking matrix that is actually indefinite). When CG then
    /// aborts on curvature breakdowns and
    /// [`SolverConfig::auto_switch_on_breakdown`] is on (the default), the
    /// system is re-dispatched to BiCGSTAB; the returned report is the
    /// BiCGSTAB one with CG's breakdown trail prepended and the handoff
    /// recorded as a [`crate::report::RecoveryAction::SwitchedSolver`]
    /// event.
    pub fn solve_auto(&self, a: &Csr, b: &[f64]) -> SolveReport {
        use crate::report::{BreakdownEvent, BreakdownKind, RecoveryAction};
        if !mf_sparse::MatrixStats::compute(a).likely_spd() {
            return self.solve_bicgstab(a, b);
        }
        // CG admits the pipelined schedule; [`SolverConfig::pipeline`]
        // (resolved per matrix by `decide_pipeline`) picks it here. The
        // explicit `solve_cg` / `solve_cg_pipelined` entries ignore the
        // knob — callers asking for a schedule by name get that schedule.
        let pre = self.preprocess(a);
        let mode = self.decide_mode(&pre.tiled);
        let pipelined = self.decide_pipeline(&pre.tiled, mode);
        let cg = self.run_cg_dispatch(a, &pre, mode, b, &mut SolverWorkspace::new(), pipelined);
        let curvature_abort = cg.failure.is_some()
            && cg
                .breakdowns
                .iter()
                .any(|e| e.kind == BreakdownKind::Curvature);
        if !(curvature_abort && self.config.auto_switch_on_breakdown) {
            return cg;
        }
        // Re-dispatch to BiCGSTAB on the SAME preprocessed matrix — the
        // tiled format is method-agnostic, so a second CSR→tiled pass would
        // be pure waste (and the report would double-charge Preprocess).
        let mut handoff = cg.breakdowns;
        handoff.push(BreakdownEvent {
            iteration: cg.iterations,
            kind: BreakdownKind::Curvature,
            action: RecoveryAction::SwitchedSolver,
        });
        let mut rep = self.run_bicgstab_dispatch(a, &pre, b, &mut SolverWorkspace::new());
        handoff.extend(rep.breakdowns.iter().copied());
        rep.breakdowns = handoff;
        // The handoff report carries the full trajectory: CG's pre-switch
        // residual/error history followed by BiCGSTAB's (previously the CG
        // history was silently discarded).
        let mut residuals = cg.residual_history;
        residuals.extend(rep.residual_history.iter().copied());
        rep.residual_history = residuals;
        let mut errors = cg.error_history;
        errors.extend(rep.error_history.iter().copied());
        rep.error_history = errors;
        rep
    }

    /// Solves `A x = b` with CG (A must be SPD).
    pub fn solve_cg(&self, a: &Csr, b: &[f64]) -> SolveReport {
        self.solve_cg_ws(a, b, &mut SolverWorkspace::new())
    }

    /// [`Self::solve_cg`] with a caller-provided [`SolverWorkspace`]:
    /// repeated solves reuse the iterate buffers instead of reallocating
    /// them (the report, tiled matrix and on-chip copy still allocate).
    pub fn solve_cg_ws(&self, a: &Csr, b: &[f64], ws: &mut SolverWorkspace) -> SolveReport {
        let pre = self.preprocess(a);
        let mode = self.decide_mode(&pre.tiled);
        self.run_cg_dispatch(a, &pre, mode, b, ws, false)
    }

    /// [`Self::solve_cg_ws`] on an already-preprocessed matrix: the serving
    /// layer's cache-hit path. `pre` must come from [`Self::preprocess`]
    /// with this same config on this same `a` — then the solve is bitwise
    /// identical to a cold [`Self::solve_cg_ws`] (the report differs only
    /// in `preprocess_passes`/`preprocess_wall_us`, which the caller
    /// adjusts).
    pub fn solve_cg_preprocessed(
        &self,
        a: &Csr,
        pre: &Preprocessed,
        b: &[f64],
        ws: &mut SolverWorkspace,
    ) -> SolveReport {
        let mode = self.decide_mode(&pre.tiled);
        self.run_cg_dispatch(a, pre, mode, b, ws, false)
    }

    /// Solves `A x = b` with *pipelined* (Ghysels–Vanroose) CG: the SpMV
    /// input is carried by the `w = A·r` recurrence, so one fused update +
    /// one fused dot pair + ONE barrier epoch per iteration replace the
    /// classic schedule's four synchronization points. Same breakdown /
    /// restart semantics as [`Self::solve_cg`]; the residual trajectory
    /// drifts from classic CG only by rounding (see DESIGN.md §12).
    pub fn solve_cg_pipelined(&self, a: &Csr, b: &[f64]) -> SolveReport {
        self.solve_cg_pipelined_ws(a, b, &mut SolverWorkspace::new())
    }

    /// [`Self::solve_cg_pipelined`] with a caller-provided workspace.
    pub fn solve_cg_pipelined_ws(
        &self,
        a: &Csr,
        b: &[f64],
        ws: &mut SolverWorkspace,
    ) -> SolveReport {
        let pre = self.preprocess(a);
        let mode = self.decide_mode(&pre.tiled);
        self.run_cg_dispatch(a, &pre, mode, b, ws, true)
    }

    /// Shared tail of the CG entry points: build the mode-matched coster
    /// and run whichever recurrence `pipelined` selects.
    fn run_cg_dispatch(
        &self,
        a: &Csr,
        pre: &Preprocessed,
        mode: ExecutedMode,
        b: &[f64],
        ws: &mut SolverWorkspace,
        pipelined: bool,
    ) -> SolveReport {
        let mut shared = SharedTiles::load(&pre.tiled);
        let mut partial = self.partial_state(&pre.tiled, b, mode);
        let coster = self.build_coster(&pre.tiled, mode);
        let core = if pipelined {
            run_cg_pipelined_ws(
                &pre.tiled,
                &mut shared,
                b,
                &self.config,
                &coster,
                &mut partial,
                ws,
            )
        } else {
            run_cg_ws(
                &pre.tiled,
                &mut shared,
                b,
                &self.config,
                &coster,
                &mut partial,
                ws,
            )
        };
        let warps = coster.warp_count();
        self.assemble(a, pre, mode, warps, core)
    }

    /// Solves `A x = b` with the *real* multi-threaded single-kernel CG
    /// engine (warps as OS threads, atomic-counter synchronization). The
    /// solve inherits `tolerance`, `max_iter`, [`SolverConfig::watchdog`]
    /// and [`SolverConfig::adaptive`] from this facade's config;
    /// `max_warps` caps the thread count.
    pub fn solve_cg_threaded(
        &self,
        a: &Csr,
        b: &[f64],
        max_warps: usize,
    ) -> crate::threaded::ThreadedReport {
        let pre = self.preprocess(a);
        crate::threaded::run_cg_threaded_adaptive(
            &pre.tiled,
            b,
            self.config.tolerance,
            self.config.max_iter,
            max_warps,
            self.config.watchdog,
            &mf_gpu::FaultPlan::default(),
            &self.config.trace,
            self.config.adaptive,
        )
    }

    /// Threaded single-kernel BiCGSTAB; see [`Self::solve_cg_threaded`].
    pub fn solve_bicgstab_threaded(
        &self,
        a: &Csr,
        b: &[f64],
        max_warps: usize,
    ) -> crate::threaded::ThreadedReport {
        let pre = self.preprocess(a);
        crate::threaded::run_bicgstab_threaded_traced(
            &pre.tiled,
            b,
            self.config.tolerance,
            self.config.max_iter,
            max_warps,
            self.config.watchdog,
            &mf_gpu::FaultPlan::default(),
            &self.config.trace,
        )
    }

    /// Solves `A x = b` with BiCGSTAB (A nonsymmetric or indefinite).
    pub fn solve_bicgstab(&self, a: &Csr, b: &[f64]) -> SolveReport {
        self.solve_bicgstab_ws(a, b, &mut SolverWorkspace::new())
    }

    /// [`Self::solve_bicgstab`] with a caller-provided [`SolverWorkspace`].
    pub fn solve_bicgstab_ws(&self, a: &Csr, b: &[f64], ws: &mut SolverWorkspace) -> SolveReport {
        let pre = self.preprocess(a);
        self.run_bicgstab_dispatch(a, &pre, b, ws)
    }

    /// Shared tail of the BiCGSTAB entry points, also the re-dispatch
    /// target of [`Self::solve_auto`] (which hands over the preprocessed
    /// matrix CG already paid for).
    fn run_bicgstab_dispatch(
        &self,
        a: &Csr,
        pre: &Preprocessed,
        b: &[f64],
        ws: &mut SolverWorkspace,
    ) -> SolveReport {
        let mode = self.decide_mode(&pre.tiled);
        let mut shared = SharedTiles::load(&pre.tiled);
        let mut partial = self.partial_state(&pre.tiled, b, mode);
        let coster = self.build_coster(&pre.tiled, mode);
        let core = run_bicgstab_ws(
            &pre.tiled,
            &mut shared,
            b,
            &self.config,
            &coster,
            &mut partial,
            ws,
        );
        let warps = coster.warp_count();
        self.assemble(a, pre, mode, warps, core)
    }

    /// Solves with ILU(0)-preconditioned CG (multi-kernel path, recursive-
    /// block SpTRSV — §IV-C).
    ///
    /// A zero or tiny ILU(0) pivot is first retried with bounded diagonal
    /// boosting ([`mf_kernels::ilu0_boosted`]); every shift attempt is
    /// recorded as a `FactorShift` breakdown event on the report. Returns
    /// `Err` only when boosting is exhausted (or the matrix is not square).
    pub fn solve_pcg(
        &self,
        a: &Csr,
        b: &[f64],
    ) -> Result<SolveReport, mf_kernels::ilu::FactorError> {
        let (ilu, shifts) = ilu0_boosted(a)?;
        let mut rep = self.solve_pcg_with(a, b, &ilu);
        prepend_factor_shifts(&mut rep.breakdowns, &shifts);
        Ok(rep)
    }

    /// PCG with a caller-provided factorization (lets benchmarks reuse it).
    pub fn solve_pcg_with(&self, a: &Csr, b: &[f64], ilu: &Ilu0) -> SolveReport {
        let pre = self.preprocess(a);
        self.solve_pcg_preprocessed(a, &pre, b, ilu)
    }

    /// [`Self::solve_pcg_with`] on an already-preprocessed matrix: the
    /// serving layer's cache-hit path (both the tiled format and the
    /// factorization come from the cache). Bitwise identical to a cold
    /// [`Self::solve_pcg_with`] given the same `a`/config.
    pub fn solve_pcg_preprocessed(
        &self,
        a: &Csr,
        pre: &Preprocessed,
        b: &[f64],
        ilu: &Ilu0,
    ) -> SolveReport {
        let mode = ExecutedMode::MultiKernel; // paper: preconditioning extends the multi-kernel method
        let mut shared = SharedTiles::load(&pre.tiled);
        let mut partial = self.partial_state(&pre.tiled, b, mode);
        let mc = MultiCoster::new(self.cost(), a.nrows);
        let core = run_pcg(
            &pre.tiled,
            &mut shared,
            ilu,
            b,
            &self.config,
            &mc,
            &mut partial,
        );
        self.assemble(a, pre, mode, 0, core)
    }

    /// Solves with *pipelined* ILU(0)-preconditioned CG: the Ghysels–
    /// Vanroose PCG recurrence fuses the iteration into one preconditioner
    /// application, one SpMV, one eight-vector update and one reduction
    /// group — two synchronization points instead of four. Pivot
    /// breakdowns are retried with bounded diagonal boosting exactly like
    /// [`Self::solve_pcg`].
    pub fn solve_pcg_pipelined(
        &self,
        a: &Csr,
        b: &[f64],
    ) -> Result<SolveReport, mf_kernels::ilu::FactorError> {
        let (ilu, shifts) = ilu0_boosted(a)?;
        let mut rep = self.solve_pcg_pipelined_with(a, b, &ilu);
        prepend_factor_shifts(&mut rep.breakdowns, &shifts);
        Ok(rep)
    }

    /// Pipelined PCG with a caller-provided factorization.
    pub fn solve_pcg_pipelined_with(&self, a: &Csr, b: &[f64], ilu: &Ilu0) -> SolveReport {
        let pre = self.preprocess(a);
        let mode = ExecutedMode::MultiKernel; // as solve_pcg: preconditioning extends the multi-kernel method
        let mut shared = SharedTiles::load(&pre.tiled);
        let mut partial = self.partial_state(&pre.tiled, b, mode);
        let mc = MultiCoster::new(self.cost(), a.nrows);
        let core = run_pcg_pipelined_ws(
            &pre.tiled,
            &mut shared,
            ilu,
            b,
            &self.config,
            &mc,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        self.assemble(a, &pre, mode, 0, core)
    }

    /// Solves with IC(0)-preconditioned CG (`M = L·Lᵀ`) — an extension
    /// beyond the paper's ILU(0) evaluation: the symmetric factorization
    /// halves the factor work and keeps the preconditioned operator SPD.
    pub fn solve_pcg_ic0(
        &self,
        a: &Csr,
        b: &[f64],
    ) -> Result<SolveReport, mf_kernels::ilu::FactorError> {
        let (ic, shifts) = Ic0::new_boosted(a)?;
        let pre = self.preprocess(a);
        let mode = ExecutedMode::MultiKernel;
        let mut shared = SharedTiles::load(&pre.tiled);
        let mut partial = self.partial_state(&pre.tiled, b, mode);
        let mc = MultiCoster::new(self.cost(), a.nrows);
        let core = run_pcg_ic(
            &pre.tiled,
            &mut shared,
            &ic,
            b,
            &self.config,
            &mc,
            &mut partial,
        );
        let mut rep = self.assemble(a, &pre, mode, 0, core);
        prepend_factor_shifts(&mut rep.breakdowns, &shifts);
        Ok(rep)
    }

    /// Solves with adaptive-precision block-Jacobi-preconditioned CG
    /// (`tile_size`-sized blocks) — see `mf_kernels::block_jacobi`.
    pub fn solve_pcg_block_jacobi(
        &self,
        a: &Csr,
        b: &[f64],
        block: usize,
    ) -> Result<SolveReport, mf_kernels::block_jacobi::SingularBlock> {
        let bj = mf_kernels::BlockJacobi::new(a, block)?;
        let pre = self.preprocess(a);
        let mode = ExecutedMode::MultiKernel;
        let mut shared = SharedTiles::load(&pre.tiled);
        let mut partial = self.partial_state(&pre.tiled, b, mode);
        let mc = MultiCoster::new(self.cost(), a.nrows);
        let core = run_pcg_bj(
            &pre.tiled,
            &mut shared,
            &bj,
            b,
            &self.config,
            &mc,
            &mut partial,
        );
        Ok(self.assemble(a, &pre, mode, 0, core))
    }

    /// Solves with ILU(0)-preconditioned BiCGSTAB.
    pub fn solve_pbicgstab(
        &self,
        a: &Csr,
        b: &[f64],
    ) -> Result<SolveReport, mf_kernels::ilu::FactorError> {
        let (ilu, shifts) = ilu0_boosted(a)?;
        let mut rep = self.solve_pbicgstab_with(a, b, &ilu);
        prepend_factor_shifts(&mut rep.breakdowns, &shifts);
        Ok(rep)
    }

    /// PBiCGSTAB with a caller-provided factorization.
    pub fn solve_pbicgstab_with(&self, a: &Csr, b: &[f64], ilu: &Ilu0) -> SolveReport {
        let pre = self.preprocess(a);
        let mode = ExecutedMode::MultiKernel;
        let mut shared = SharedTiles::load(&pre.tiled);
        let mut partial = self.partial_state(&pre.tiled, b, mode);
        let mc = MultiCoster::new(self.cost(), a.nrows);
        let core = run_pbicgstab(
            &pre.tiled,
            &mut shared,
            ilu,
            b,
            &self.config,
            &mc,
            &mut partial,
        );
        self.assemble(a, &pre, mode, 0, core)
    }

    /// Solves `A x = b` with the threaded single-kernel ILU(0)-PCG engine:
    /// the forward/backward triangular solves run *inside* the kernel via
    /// per-row dependency counters (no kernel-boundary synchronization),
    /// with `tolerance`, `max_iter` and [`SolverConfig::watchdog`] inherited
    /// from this facade's config and `max_warps` capping the thread count.
    ///
    /// Pivot breakdowns are first retried with bounded diagonal boosting
    /// (recorded as `FactorShift` breakdown events); returns `Err` only
    /// when boosting is exhausted or the matrix is not square.
    pub fn solve_pcg_threaded(
        &self,
        a: &Csr,
        b: &[f64],
        max_warps: usize,
    ) -> Result<crate::threaded::ThreadedReport, mf_kernels::ilu::FactorError> {
        let (ilu, shifts) = ilu0_boosted(a)?;
        let mut rep = self.solve_pcg_threaded_with(a, b, &ilu, max_warps);
        prepend_factor_shifts(&mut rep.breakdowns, &shifts);
        Ok(rep)
    }

    /// [`Self::solve_pcg_threaded`] with a caller-provided factorization
    /// (benchmark reuse, or stress tests injecting corrupted factors).
    pub fn solve_pcg_threaded_with(
        &self,
        a: &Csr,
        b: &[f64],
        ilu: &Ilu0,
        max_warps: usize,
    ) -> crate::threaded::ThreadedReport {
        let pre = self.preprocess(a);
        crate::threaded::run_pcg_threaded_traced(
            &pre.tiled,
            ilu,
            b,
            self.config.tolerance,
            self.config.max_iter,
            max_warps,
            self.config.watchdog,
            &mf_gpu::FaultPlan::default(),
            &self.config.trace,
        )
    }

    /// Solves `A x = b` with the multi-device **sharded** CG engine: the
    /// tiled matrix is row-block partitioned across `shards` simulated
    /// devices behind the [`mf_gpu::Device`] backend trait, with per-
    /// iteration halo exchange and a two-level deterministic reduction.
    /// Numeric outputs are bitwise identical to
    /// [`Self::solve_cg_threaded`] without adaptive re-tiering, at any
    /// shard count. Inherits `tolerance` and `max_iter` from the config.
    pub fn solve_cg_sharded(
        &self,
        a: &Csr,
        b: &[f64],
        shards: usize,
        max_warps: usize,
    ) -> crate::sharded::ShardedReport {
        self.solve_cg_sharded_ws(a, b, shards, max_warps, &mut SolverWorkspace::new())
    }

    /// [`Self::solve_cg_sharded`] with a caller-provided
    /// [`SolverWorkspace`] (serving-style reuse across solves).
    pub fn solve_cg_sharded_ws(
        &self,
        a: &Csr,
        b: &[f64],
        shards: usize,
        max_warps: usize,
        ws: &mut SolverWorkspace,
    ) -> crate::sharded::ShardedReport {
        let pre = self.preprocess(a);
        crate::sharded::run_cg_sharded_full(
            &pre.tiled,
            b,
            self.config.tolerance,
            self.config.max_iter,
            shards,
            max_warps,
            &self.device,
            mf_gpu::Interconnect::default(),
            &mf_gpu::FaultPlan::default(),
            &self.config.trace,
            ws,
        )
    }

    /// Multi-device sharded ILU(0)-PCG; see [`Self::solve_cg_sharded`].
    /// Pivot breakdowns are retried with bounded diagonal boosting exactly
    /// like [`Self::solve_pcg_threaded`].
    pub fn solve_pcg_sharded(
        &self,
        a: &Csr,
        b: &[f64],
        shards: usize,
        max_warps: usize,
    ) -> Result<crate::sharded::ShardedReport, mf_kernels::ilu::FactorError> {
        let (ilu, shifts) = ilu0_boosted(a)?;
        let pre = self.preprocess(a);
        let mut rep = crate::sharded::run_pcg_sharded_full(
            &pre.tiled,
            &ilu,
            b,
            self.config.tolerance,
            self.config.max_iter,
            shards,
            max_warps,
            &self.device,
            mf_gpu::Interconnect::default(),
            &mf_gpu::FaultPlan::default(),
            &self.config.trace,
            &mut SolverWorkspace::new(),
        );
        prepend_factor_shifts(&mut rep.breakdowns, &shifts);
        Ok(rep)
    }

    /// Threaded single-kernel ILU(0)-PBiCGSTAB; see
    /// [`Self::solve_pcg_threaded`].
    pub fn solve_pbicgstab_threaded(
        &self,
        a: &Csr,
        b: &[f64],
        max_warps: usize,
    ) -> Result<crate::threaded::ThreadedReport, mf_kernels::ilu::FactorError> {
        let (ilu, shifts) = ilu0_boosted(a)?;
        let mut rep = self.solve_pbicgstab_threaded_with(a, b, &ilu, max_warps);
        prepend_factor_shifts(&mut rep.breakdowns, &shifts);
        Ok(rep)
    }

    /// [`Self::solve_pbicgstab_threaded`] with a caller-provided
    /// factorization.
    pub fn solve_pbicgstab_threaded_with(
        &self,
        a: &Csr,
        b: &[f64],
        ilu: &Ilu0,
        max_warps: usize,
    ) -> crate::threaded::ThreadedReport {
        let pre = self.preprocess(a);
        crate::threaded::run_pbicgstab_threaded_traced(
            &pre.tiled,
            ilu,
            b,
            self.config.tolerance,
            self.config.max_iter,
            max_warps,
            self.config.watchdog,
            &mf_gpu::FaultPlan::default(),
            &self.config.trace,
        )
    }

    /// Threaded single-kernel *pipelined* CG: one global barrier per
    /// iteration (the classic engine passes four wait sites); see
    /// [`Self::solve_cg_threaded`] for the config inheritance.
    pub fn solve_cg_pipelined_threaded(
        &self,
        a: &Csr,
        b: &[f64],
        max_warps: usize,
    ) -> crate::threaded::ThreadedReport {
        let pre = self.preprocess(a);
        crate::threaded::run_cg_pipelined_threaded_adaptive(
            &pre.tiled,
            b,
            self.config.tolerance,
            self.config.max_iter,
            max_warps,
            self.config.watchdog,
            &mf_gpu::FaultPlan::default(),
            &self.config.trace,
            self.config.adaptive,
        )
    }

    /// Threaded single-kernel *pipelined* ILU(0)-PCG: two global barriers
    /// per iteration (the classic engine passes four), with the triangular
    /// solves still in-kernel; see [`Self::solve_pcg_threaded`].
    pub fn solve_pcg_pipelined_threaded(
        &self,
        a: &Csr,
        b: &[f64],
        max_warps: usize,
    ) -> Result<crate::threaded::ThreadedReport, mf_kernels::ilu::FactorError> {
        let (ilu, shifts) = ilu0_boosted(a)?;
        let mut rep = self.solve_pcg_pipelined_threaded_with(a, b, &ilu, max_warps);
        prepend_factor_shifts(&mut rep.breakdowns, &shifts);
        Ok(rep)
    }

    /// [`Self::solve_pcg_pipelined_threaded`] with a caller-provided
    /// factorization.
    pub fn solve_pcg_pipelined_threaded_with(
        &self,
        a: &Csr,
        b: &[f64],
        ilu: &Ilu0,
        max_warps: usize,
    ) -> crate::threaded::ThreadedReport {
        let pre = self.preprocess(a);
        crate::threaded::run_pcg_pipelined_threaded_traced(
            &pre.tiled,
            ilu,
            b,
            self.config.tolerance,
            self.config.max_iter,
            max_warps,
            self.config.watchdog,
            &mf_gpu::FaultPlan::default(),
            &self.config.trace,
        )
    }

    fn build_coster(&self, tiled: &TiledMatrix, mode: ExecutedMode) -> Coster {
        match mode {
            ExecutedMode::SingleKernel => {
                Coster::Single(SingleCoster::new(self.cost(), tiled, self.config.tile_size))
            }
            ExecutedMode::MultiKernel => Coster::Multi(MultiCoster::new(self.cost(), tiled.nrows)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::Coo;

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

    fn rhs(a: &Csr) -> Vec<f64> {
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        b
    }

    #[test]
    fn facade_cg_end_to_end() {
        let a = poisson1d(500);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let rep = solver.solve_cg(&a, &b);
        assert!(rep.converged);
        assert_eq!(rep.mode, ExecutedMode::SingleKernel);
        assert!(rep.warp_count > 0);
        assert!(rep.timeline.get(Phase::Preprocess) > 0.0);
        assert!(rep.solve_us() > 0.0);
        assert!(rep.tiled_memory.total() > 0);
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn facade_threaded_engines_inherit_config() {
        let a = poisson1d(300);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let rep = solver.solve_cg_threaded(&a, &b, 4);
        assert!(rep.converged);
        assert!(rep.failure.is_none());
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-7);
        }
        let rep = solver.solve_bicgstab_threaded(&a, &b, 4);
        assert!(rep.converged);
        assert!(rep.failure.is_none());

        // An indefinite matrix through the facade must fail *finite* within
        // the configured watchdog, with a structured failure attached.
        let mut neg = Coo::new(64, 64);
        for i in 0..64 {
            neg.push(i, i, -1.0);
        }
        let neg = neg.to_csr();
        let b = vec![1.0; 64];
        let rep = solver.solve_cg_threaded(&neg, &b, 4);
        assert!(!rep.converged);
        assert!(rep.failure.is_some());
        assert!(!rep.breakdowns.is_empty());
        assert!(rep.final_relres.is_finite());
    }

    #[test]
    fn facade_workspace_reuse_gives_identical_reports() {
        let a = poisson1d(400);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let mut ws = SolverWorkspace::new();
        let rep1 = solver.solve_cg_ws(&a, &b, &mut ws);
        let ptr = ws.x.as_ptr();
        let rep2 = solver.solve_cg_ws(&a, &b, &mut ws);
        assert!(rep1.converged && rep2.converged);
        assert_eq!(rep1.iterations, rep2.iterations);
        assert_eq!(rep1.x, rep2.x);
        assert_eq!(rep1.final_relres, rep2.final_relres);
        assert_eq!(ws.x.as_ptr(), ptr, "buffers must be reused across solves");
    }

    #[test]
    fn auto_mode_falls_back_for_large_matrices() {
        // > 1e6 nnz forces the multi-kernel path.
        let a = poisson1d(400_000);
        assert!(a.nnz() > 1_000_000);
        let b = rhs(&a);
        let solver = MilleFeuille::new(
            DeviceSpec::a100(),
            SolverConfig {
                fixed_iterations: Some(3),
                ..SolverConfig::default()
            },
        );
        let rep = solver.solve_cg(&a, &b);
        assert_eq!(rep.mode, ExecutedMode::MultiKernel);
        assert_eq!(rep.iterations, 3);
        // Multi-kernel: launches accumulate per kernel.
        assert!(rep.timeline.get(Phase::Sync) > 6.0 * 3.0);
    }

    #[test]
    fn forced_modes() {
        let a = poisson1d(100);
        let b = rhs(&a);
        for (mode, expect) in [
            (KernelMode::SingleKernel, ExecutedMode::SingleKernel),
            (KernelMode::MultiKernel, ExecutedMode::MultiKernel),
        ] {
            let solver = MilleFeuille::new(
                DeviceSpec::a100(),
                SolverConfig {
                    kernel_mode: mode,
                    ..SolverConfig::default()
                },
            );
            let rep = solver.solve_cg(&a, &b);
            assert_eq!(rep.mode, expect);
            assert!(rep.converged);
        }
    }

    #[test]
    fn facade_bicgstab_end_to_end() {
        let mut a = Coo::new(300, 300);
        for i in 0..300 {
            a.push(i, i, 4.0);
            if i > 0 {
                a.push(i, i - 1, -1.5);
            }
            if i + 1 < 300 {
                a.push(i, i + 1, -0.5);
            }
        }
        let a = a.to_csr();
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::mi210());
        let rep = solver.solve_bicgstab(&a, &b);
        assert!(rep.converged);
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn facade_preconditioned_variants() {
        let a = poisson1d(256);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let rep = solver.solve_pcg(&a, &b).unwrap();
        assert!(rep.converged);
        assert!(rep.iterations <= 3);
        assert!(rep.timeline.get(Phase::SpTrsv) > 0.0);

        let rep2 = solver.solve_pbicgstab(&a, &b).unwrap();
        assert!(rep2.converged);
    }

    #[test]
    fn ic0_preconditioned_cg() {
        let a = poisson1d(256);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let rep = solver.solve_pcg_ic0(&a, &b).unwrap();
        assert!(rep.converged);
        // IC(0) of a tridiagonal is exact Cholesky.
        assert!(rep.iterations <= 3, "{}", rep.iterations);
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-7);
        }
        // Indefinite input is rejected.
        let mut bad = mf_sparse::Coo::new(2, 2);
        bad.push(0, 0, -1.0);
        bad.push(1, 1, 1.0);
        assert!(solver.solve_pcg_ic0(&bad.to_csr(), &[1.0, 1.0]).is_err());
    }

    #[test]
    fn block_jacobi_preconditioned_cg() {
        let a = poisson1d(256);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let plain = solver.solve_cg(&a, &b);
        let rep = solver.solve_pcg_block_jacobi(&a, &b, 16).unwrap();
        assert!(rep.converged, "relres {}", rep.final_relres);
        // Block-Jacobi must reduce the iteration count of plain CG.
        assert!(
            rep.iterations < plain.iterations,
            "bj {} vs plain {}",
            rep.iterations,
            plain.iterations
        );
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-6);
        }
        assert!(rep.timeline.get(Phase::SpTrsv) > 0.0); // bj applications
    }

    #[test]
    fn fp64_only_config_disables_mixing() {
        let a = poisson1d(128);
        let b = rhs(&a);
        let solver = MilleFeuille::new(DeviceSpec::a100(), SolverConfig::fp64_only());
        let rep = solver.solve_cg(&a, &b);
        assert!(rep.converged);
        // All executed nonzeros were FP64.
        assert_eq!(rep.spmv_stats.nnz_by_prec[1], 0);
        assert_eq!(rep.spmv_stats.nnz_by_prec[2], 0);
        assert_eq!(rep.spmv_stats.nnz_by_prec[3], 0);
        assert_eq!(rep.spmv_stats.nnz_bypassed, 0);
    }

    #[test]
    fn mixed_is_modeled_faster_than_fp64_only() {
        // Integer-valued matrix: everything classifies FP8.
        let a = poisson1d(5_000);
        let b = rhs(&a);
        let mixed = MilleFeuille::new(DeviceSpec::a100(), SolverConfig::benchmark_100_iters());
        let fp64 = MilleFeuille::new(
            DeviceSpec::a100(),
            SolverConfig {
                mixed_precision: false,
                partial_convergence: false,
                fixed_iterations: Some(100),
                ..SolverConfig::default()
            },
        );
        let t_mixed = mixed.solve_cg(&a, &b).solve_us();
        let t_fp64 = fp64.solve_cg(&a, &b).solve_us();
        assert!(
            t_mixed < t_fp64,
            "mixed {t_mixed} should beat fp64 {t_fp64}"
        );
    }

    #[test]
    fn solve_auto_picks_by_structure() {
        let spd = poisson1d(100);
        let b = rhs(&spd);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let rep = solver.solve_auto(&spd, &b);
        assert!(rep.converged);
        // True residual matches the recurrence on this benign system.
        assert!(rep.true_relres(&spd, &b) < 1e-9);

        let mut nonsym = Coo::new(60, 60);
        for i in 0..60 {
            nonsym.push(i, i, 4.0);
            if i > 0 {
                nonsym.push(i, i - 1, -1.5);
            }
            if i + 1 < 60 {
                nonsym.push(i, i + 1, -0.5);
            }
        }
        let nonsym = nonsym.to_csr();
        let bn = rhs(&nonsym);
        let rep = solver.solve_auto(&nonsym, &bn);
        assert!(rep.converged);
        assert!(rep.true_relres(&nonsym, &bn) < 1e-9);
    }

    #[test]
    fn facade_threaded_preconditioned_end_to_end() {
        let a = poisson1d(300);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let rep = solver.solve_pcg_threaded(&a, &b, 4).unwrap();
        assert!(rep.converged);
        assert!(rep.failure.is_none());
        // ILU(0) is exact on a tridiagonal system.
        assert!(rep.iterations <= 3, "{}", rep.iterations);
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-7);
        }
        let rep = solver.solve_pbicgstab_threaded(&a, &b, 4).unwrap();
        assert!(rep.converged);
        assert!(rep.failure.is_none());
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-6);
        }
        // A structurally zero diagonal is no longer a hard failure: the
        // boosted ILU(0) retries on A + αI and records every attempt as a
        // FactorShift breakdown event on the threaded report.
        let mut zero_diag = Coo::new(4, 4);
        zero_diag.push(0, 1, 1.0);
        zero_diag.push(1, 0, 1.0);
        zero_diag.push(2, 2, 1.0);
        zero_diag.push(3, 3, 1.0);
        let rep = solver
            .solve_pcg_threaded(&zero_diag.to_csr(), &[1.0; 4], 2)
            .unwrap();
        let shift_events = rep
            .breakdowns
            .iter()
            .filter(|e| e.kind == crate::report::BreakdownKind::FactorShift)
            .count();
        assert!(shift_events >= 1, "boosting attempts must be recorded");
        assert!(rep.final_relres.is_finite());
        // Unrepairable factorization failures still propagate as Err, not a
        // panic: no diagonal shift fixes a shape error.
        let rect = Coo::new(2, 3).to_csr();
        assert!(solver.solve_pcg_threaded(&rect, &[1.0; 2], 2).is_err());
    }

    /// A symmetric matrix with positive diagonal and 38/40 = 0.95 > 0.9
    /// diagonally dominant rows passes `likely_spd`, but the trailing
    /// [[1, 5], [5, 1]] block (eigenvalues 6 and −4) makes it indefinite:
    /// CG aborts on curvature breakdowns. Auto must re-dispatch to
    /// BiCGSTAB, record the handoff, and still solve the system.
    #[test]
    fn solve_auto_switches_solver_on_curvature_breakdown() {
        use crate::report::{BreakdownKind, RecoveryAction};
        let n = 40;
        let mut a = Coo::new(n, n);
        for i in 0..n - 2 {
            a.push(i, i, 4.0);
            if i > 0 {
                a.push(i, i - 1, -1.0);
            }
            if i + 1 < n - 2 {
                a.push(i, i + 1, -1.0);
            }
        }
        a.push(n - 2, n - 2, 1.0);
        a.push(n - 2, n - 1, 5.0);
        a.push(n - 1, n - 2, 5.0);
        a.push(n - 1, n - 1, 1.0);
        let a = a.to_csr();
        assert!(
            mf_sparse::MatrixStats::compute(&a).likely_spd(),
            "fixture must fool the SPD heuristic"
        );
        // RHS concentrated in the indefinite block: p₀ = b has
        // bᵀAb = [1,−1]·[[1,5],[5,1]]·[1,−1]ᵀ = −8 < 0, so CG hits the
        // curvature breakdown immediately and restarting from the residual
        // is a fixed point.
        let mut b = vec![0.0; n];
        b[n - 2] = 1.0;
        b[n - 1] = -1.0;

        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        // CG alone breaks down on this system (prerequisite of the test).
        let cg = solver.solve_cg(&a, &b);
        assert!(cg.failure.is_some(), "CG should abort: {:?}", cg.failure);
        assert!(cg
            .breakdowns
            .iter()
            .any(|e| e.kind == BreakdownKind::Curvature));

        let rep = solver.solve_auto(&a, &b);
        assert!(rep.converged, "relres {}", rep.final_relres);
        assert!(rep.failure.is_none());
        assert!(rep.true_relres(&a, &b) < 1e-8);
        let switch = rep
            .breakdowns
            .iter()
            .filter(|e| e.action == RecoveryAction::SwitchedSolver)
            .count();
        assert_eq!(switch, 1, "exactly one handoff event: {:?}", rep.breakdowns);
        assert_eq!(rep.status_label(), "converged");

        // The knob turns the re-dispatch off: the failed CG report surfaces.
        let pinned = MilleFeuille::new(
            DeviceSpec::a100(),
            SolverConfig {
                auto_switch_on_breakdown: false,
                ..SolverConfig::default()
            },
        );
        let rep = pinned.solve_auto(&a, &b);
        assert!(rep.failure.is_some());
        assert!(!rep
            .breakdowns
            .iter()
            .any(|e| e.action == RecoveryAction::SwitchedSolver));
    }

    /// Regression: the CG→BiCGSTAB re-dispatch used to preprocess the
    /// matrix a second time and silently discard CG's pre-switch residual
    /// trajectory. The handoff report must charge exactly one preprocessing
    /// pass and carry CG's history ahead of BiCGSTAB's.
    #[test]
    fn solve_auto_handoff_reuses_preprocessing_and_keeps_cg_history() {
        use crate::report::RecoveryAction;
        // Same SPD-heuristic-fooling fixture as the switch test.
        let n = 40;
        let mut a = Coo::new(n, n);
        for i in 0..n - 2 {
            a.push(i, i, 4.0);
            if i > 0 {
                a.push(i, i - 1, -1.0);
            }
            if i + 1 < n - 2 {
                a.push(i, i + 1, -1.0);
            }
        }
        a.push(n - 2, n - 2, 1.0);
        a.push(n - 2, n - 1, 5.0);
        a.push(n - 1, n - 2, 5.0);
        a.push(n - 1, n - 1, 1.0);
        let a = a.to_csr();
        let mut b = vec![0.0; n];
        b[n - 2] = 1.0;
        b[n - 1] = -1.0;

        let solver = MilleFeuille::new(
            DeviceSpec::a100(),
            SolverConfig {
                trace_residuals: true,
                ..SolverConfig::default()
            },
        );
        let cg = solver.solve_cg(&a, &b);
        assert!(cg.failure.is_some(), "prerequisite: CG must abort");
        let cg_iters = cg.iterations;
        assert!(cg_iters > 0 && !cg.residual_history.is_empty());

        let rep = solver.solve_auto(&a, &b);
        assert!(rep.converged);
        assert_eq!(
            rep.preprocess_passes, 1,
            "handoff must reuse the first CSR→tiled pass"
        );
        assert!(
            rep.breakdowns
                .iter()
                .any(|e| e.action == RecoveryAction::SwitchedSolver),
            "this report is a handoff report"
        );
        // CG's pre-switch residuals lead the merged history, bitwise.
        assert!(rep.residual_history.len() > cg_iters);
        assert_eq!(&rep.residual_history[..cg_iters], &cg.residual_history[..]);
        // The modeled timeline charges preprocessing once: the handoff
        // report's Preprocess share equals a plain BiCGSTAB solve's.
        let plain = solver.solve_bicgstab(&a, &b);
        assert_eq!(
            rep.timeline.get(Phase::Preprocess),
            plain.timeline.get(Phase::Preprocess)
        );
    }

    #[test]
    fn facade_pipelined_end_to_end() {
        let a = poisson1d(500);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let rep = solver.solve_cg_pipelined(&a, &b);
        assert!(rep.converged);
        assert_eq!(rep.mode, ExecutedMode::SingleKernel);
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-7);
        }
        let rep = solver.solve_pcg_pipelined(&a, &b).unwrap();
        assert!(rep.converged);
        assert!(rep.iterations <= 4, "{}", rep.iterations);
        assert!(rep.timeline.get(Phase::SpTrsv) > 0.0);

        let rep = solver.solve_cg_pipelined_threaded(&a, &b, 4);
        assert!(rep.converged);
        assert!(rep.failure.is_none());
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-7);
        }
        let rep = solver.solve_pcg_pipelined_threaded(&a, &b, 4).unwrap();
        assert!(rep.converged);
        assert!(rep.iterations <= 4, "{}", rep.iterations);
    }

    #[test]
    fn pipeline_mode_knob_is_honored() {
        use crate::config::PipelineMode;
        let a = poisson1d(256);
        let b = rhs(&a);
        let tiled = TiledMatrix::from_csr(&a);

        let forced = |mode| {
            MilleFeuille::new(
                DeviceSpec::a100(),
                SolverConfig {
                    pipeline: mode,
                    ..SolverConfig::default()
                },
            )
        };
        assert!(!forced(PipelineMode::Classic).decide_pipeline(&tiled, ExecutedMode::SingleKernel));
        assert!(forced(PipelineMode::Pipelined).decide_pipeline(&tiled, ExecutedMode::SingleKernel));
        // Auto: a small single-kernel system is synchronization-dominated,
        // so the barrier savings clear the margin; multi-kernel mode never
        // pipelines under Auto (nothing to save).
        let auto = forced(PipelineMode::Auto);
        assert!(auto.decide_pipeline(&tiled, ExecutedMode::SingleKernel));
        assert!(!auto.decide_pipeline(&tiled, ExecutedMode::MultiKernel));

        // solve_auto with the knob forced converges through either path.
        for mode in [PipelineMode::Classic, PipelineMode::Pipelined] {
            let rep = forced(mode).solve_auto(&a, &b);
            assert!(rep.converged, "{mode:?}");
            assert!(rep.true_relres(&a, &b) < 1e-9, "{mode:?}");
        }
    }

    #[test]
    fn pipelined_timeline_charges_fewer_sync_epochs() {
        // Same fixed iteration count, same matrix: the pipelined solve's
        // modeled Wait share must be below classic (1 barrier epoch per
        // iteration instead of ~4) while the arithmetic phases match.
        let a = poisson1d(512);
        let b = rhs(&a);
        let solver = MilleFeuille::new(
            DeviceSpec::a100(),
            SolverConfig {
                fixed_iterations: Some(50),
                partial_convergence: false,
                ..SolverConfig::default()
            },
        );
        let classic = solver.solve_cg(&a, &b);
        let piped = solver.solve_cg_pipelined(&a, &b);
        assert_eq!(classic.mode, ExecutedMode::SingleKernel);
        assert_eq!(classic.iterations, 50);
        assert_eq!(piped.iterations, 50);
        assert!(
            piped.timeline.get(Phase::Wait) < 0.5 * classic.timeline.get(Phase::Wait),
            "pipelined Wait {} vs classic {}",
            piped.timeline.get(Phase::Wait),
            classic.timeline.get(Phase::Wait)
        );
    }

    #[test]
    fn memory_report_matches_fig13_accounting() {
        let a = poisson1d(1_000);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let rep = solver.solve_cg(&a, &b);
        assert_eq!(rep.csr_memory, a.memory_bytes());
        assert_eq!(
            rep.tiled_memory.total(),
            TiledMatrix::from_csr(&a).memory_bytes().total()
        );
    }
}
