//! # mf-solver
//!
//! The Mille-feuille solver (SC'24): tile-grained mixed-precision CG and
//! BiCGSTAB with a single-kernel execution scheme and partial-convergence-
//! aware dynamic precision lowering.
//!
//! ## Architecture
//!
//! The numerics and the performance model are strictly separated:
//!
//! * **Numerics** run exactly — quantized tile values, dynamic lowering and
//!   tile bypass all perturb the computation precisely the way the GPU
//!   kernels would, so iteration counts and residual histories (paper
//!   Table II, Fig. 12) are measurements, not estimates.
//! * **Time** is charged to a [`mf_gpu::Timeline`] by a *coster* matching
//!   the execution mode: the single-kernel coster charges one launch per
//!   solve, per-warp step maxima (straggler model), atomic traffic and
//!   busy-wait polls (paper Fig. 6 / Algorithm 3); the multi-kernel coster
//!   charges one launch per kernel call plus device-to-host scalar reads —
//!   the Finding-2 overhead the single kernel removes.
//!
//! ## Entry point
//!
//! [`MilleFeuille`] owns a device model and a [`SolverConfig`]; its
//! `solve_cg` / `solve_bicgstab` / `solve_pcg` / `solve_pbicgstab` methods
//! take any CSR matrix, preprocess it into the tiled format (§III-B), pick
//! single- vs multi-kernel mode (§III-C, with the ≈10⁶-nnz fallback), run
//! the solve, and return a [`SolveReport`] with the solution, convergence
//! data and a full modeled-time breakdown.
//!
//! The [`threaded`] module contains *real* multi-threaded single-kernel
//! engines — warps as OS threads synchronized only through atomic
//! dependency counters — used to validate that the paper's in-kernel
//! synchronization scheme is correct and deadlock-free. Beyond plain CG
//! and BiCGSTAB, the preconditioned engines (`solve_pcg_threaded`,
//! `solve_pbicgstab_threaded`) run the ILU(0) forward/backward triangular
//! solves *inside* the kernel via per-row dependency counters
//! ([`mf_gpu::deps::RowDeps`]), and are deterministic and warp-count
//! invariant by construction so differential tests can compare them
//! bitwise against sequential references.
//!
//! ## Robustness
//!
//! Every core fails *finite, fast, and observably*: scalar breakdowns
//! (curvature, ρ, ω, non-finite) trigger the classical restart, repeated
//! futile restarts abort as [`SolveFailure::Stalled`], and the threaded
//! engines add a poison flag plus a watchdog deadline
//! ([`SolverConfig::watchdog`]) so a panicking or NaN-poisoned warp can
//! never wedge the process. Reports carry the full [`BreakdownEvent`]
//! trail; see DESIGN.md "Failure modes and recovery".

pub mod adaptive;
pub mod bicgstab;
pub mod block;
pub mod cg;
pub mod config;
pub mod coster;
pub mod partial;
pub mod pipelined;
pub mod precond;
pub mod report;
pub mod sharded;
pub mod solver;
pub mod threaded;
pub mod workspace;

pub use block::{
    run_cg_block_ws, BlockOptions, BlockResult, BlockWorkspace, ColumnResult, ColumnStatus,
};
pub use config::{
    HostParallelism, KernelMode, PipelineMode, SolverConfig, WatchdogPolicy, DEFAULT_HEARTBEAT,
    DEFAULT_WATCHDOG,
};
pub use pipelined::{
    run_cg_pipelined, run_cg_pipelined_ws, run_pcg_pipelined, run_pcg_pipelined_ws,
};
pub use report::{
    BreakdownEvent, BreakdownKind, ExecutedMode, RecoveryAction, SolveFailure, SolveReport,
    WarpProgress,
};
pub use sharded::{
    run_cg_sharded, run_cg_sharded_full, run_pcg_sharded, run_pcg_sharded_full, ShardedReport,
};
pub use solver::MilleFeuille;
pub use threaded::{
    run_bicgstab_threaded_full, run_bicgstab_threaded_traced, run_cg_pipelined_threaded,
    run_cg_pipelined_threaded_adaptive, run_cg_pipelined_threaded_full,
    run_cg_pipelined_threaded_traced, run_cg_pipelined_threaded_watchdog, run_cg_threaded_adaptive,
    run_cg_threaded_full, run_cg_threaded_traced, run_ilu_sptrsv_threaded,
    run_ilu_sptrsv_threaded_full, run_ilu_sptrsv_threaded_traced, run_ilu_sptrsv_threaded_watchdog,
    run_pbicgstab_threaded, run_pbicgstab_threaded_full, run_pbicgstab_threaded_traced,
    run_pbicgstab_threaded_watchdog, run_pcg_pipelined_threaded, run_pcg_pipelined_threaded_full,
    run_pcg_pipelined_threaded_traced, run_pcg_threaded, run_pcg_threaded_full,
    run_pcg_threaded_traced, run_pcg_threaded_watchdog, ThreadedReport, BICGSTAB_STEPS,
    CG_PIPELINED_STEPS, CG_STEPS, PBICGSTAB_STEPS, PCG_PIPELINED_STEPS, PCG_STEPS, SPTRSV_STEPS,
};
pub use workspace::SolverWorkspace;
// The fault-injection vocabulary lives in `mf_gpu::faults`; re-export the
// pieces test harnesses compose so they need only this crate.
pub use mf_gpu::{FaultKind, FaultPlan, InjectedFaults};
// The adaptive re-tiering vocabulary lives in `mf-precision`; re-export the
// pieces callers need to arm the controller and read the decision trail.
pub use mf_precision::{
    AdaptiveConfig, PrecisionController, RetierAction, RetierDecision, TierCap, TileTier,
};
// The trace vocabulary lives in `mf-trace`; re-export the pieces callers
// need to turn recording on and consume the merged event stream.
pub use mf_trace::{EventKind, Trace, TraceConfig, TraceEvent};
