//! A *real* multi-threaded single-kernel CG engine.
//!
//! Everything else in this crate models GPU time while computing
//! deterministically. This module instead **executes** the paper's
//! Algorithm 3 concurrently: each warp is an OS thread; the only
//! synchronization is the atomic dependency counters (`d_s`, `d_d`, `d_a`
//! of Fig. 6) polled in busy-wait loops — no mutexes, no channels, no
//! barriers from the standard library. It exists to validate that the
//! single-kernel scheme is correct and deadlock-free, which is the paper's
//! central systems claim.
//!
//! One deliberate deviation from the paper's pseudocode: instead of
//! *resetting* the dependency arrays between iterations (Algorithm 3
//! re-initializes them after the Step-D check, which needs a subtle
//! leader/followers protocol to avoid racing the next iteration's
//! decrements), the counters here **count up monotonically** and every
//! barrier waits for an iteration-scaled target (`init·(j+1)`). This is
//! behaviourally identical, race-free by construction, and uses the same
//! number of atomic operations.
//!
//! ## Robustness (deviation from the paper)
//!
//! The paper assumes well-behaved SPD inputs, where the scheme is indeed
//! deadlock-free. On real inputs two extra failure classes appear and both
//! used to wedge the process forever:
//!
//! * **Numerical breakdown** — an indefinite matrix makes `α = rr/pᵀAp`
//!   meaningless (or NaN), the NaN propagates into every vector, and
//!   `relres < tol` is never true again. Both engines now run the same
//!   breakdown-restart semantics as the sequential cores: the decision is
//!   derived from the *shared* dot accumulators after a barrier, so every
//!   warp takes the identical branch and the barrier epochs stay aligned.
//!   Futile restart loops abort as [`SolveFailure::Stalled`].
//! * **A stuck warp** — a panic (e.g. out-of-bounds indexing on a
//!   malformed [`TiledMatrix`]) leaves its siblings spinning on a counter
//!   that will never advance. Every warp body runs under
//!   [`std::panic::catch_unwind`]; the catcher sets a shared **poison
//!   flag** that every spin loop polls, converting the would-be hang into
//!   a [`SolveFailure::WarpPanic`]. A configurable **watchdog deadline**
//!   ([`crate::SolverConfig::watchdog`]) backstops everything else: any
//!   warp that observes the deadline expired poisons the solve and all
//!   warps return a [`SolveFailure::Wedged`] report.
//!
//! The poison flag and the `Mutex`-free failure cells are *failure-path*
//! machinery only: on a healthy solve the per-iteration overhead is one
//! relaxed load per spin poll and one `Instant::now()` per iteration, and
//! the iterate arithmetic is bitwise-unchanged.
//!
//! ## Heartbeat watchdog and fault injection
//!
//! Wedge detection is a [`WatchdogPolicy`]: the legacy absolute deadline
//! survives as `WallClock`, but the default is the progress heartbeat
//! ([`mf_gpu::Heartbeat`]) — every warp publishes a monotone
//! iteration × step position at step boundaries ([`WarpSync::step`]) and
//! pulses on every cleared wait/produced tile/solved row, and the solve
//! only fails as [`SolveFailure::Wedged`] when **no** warp has produced a
//! progress event for the interval. Slow-but-healthy schedules therefore
//! never trip it, while a wedged dependency chain (which stops *all*
//! beats) still converts into a structured failure.
//!
//! Every engine also has a `run_*_threaded_full` entry accepting a
//! [`FaultPlan`]: a deterministic, seed-reproducible schedule
//! perturbation threaded through the spin/barrier sites ([`mf_gpu::faults`]).
//! Benign plans (delays, yields, stalls, retry storms) must leave results
//! **bitwise identical** — which is why all four iterative engines use
//! owner-computes SpMV partials plus per-segment single-writer dot
//! reductions in fixed segment order, never arrival-order atomic adds.
//! Malign plans (panic, poison, halt) must fail structurally within the
//! heartbeat bound; `tests/fault_injection.rs` locks both families down.

use crate::config::{WatchdogPolicy, MAX_CONSECUTIVE_RESTARTS};
use crate::pipelined::{breakdown_kind, pipeline_scalars};
use crate::report::{BreakdownEvent, BreakdownKind, RecoveryAction, SolveFailure, WarpProgress};
use mf_gpu::{
    BarrierFault, FaultCounts, FaultPlan, Heartbeat, InjectedFaults, RowDeps, SpinFault,
    SpmvSchedule, StepFault, WarpFaults,
};
use mf_kernels::ilu::Ilu0;
use mf_precision::{AdaptiveConfig, RetierDecision};
use mf_sparse::{Csr, TiledMatrix};
use mf_trace::{EventKind, Trace, TraceConfig, WarpTrace, WarpTracer};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Result of a threaded solve.
#[derive(Clone, Debug)]
pub struct ThreadedReport {
    /// Solution.
    pub x: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Converged within tolerance.
    pub converged: bool,
    /// Final relative residual (recurrence; last *finite* value observed).
    pub final_relres: f64,
    /// Warps (threads) used.
    pub warps: usize,
    /// Every breakdown observed, in iteration order (warp 0's trail — the
    /// decisions are deterministic, so every warp records the same one).
    pub breakdowns: Vec<BreakdownEvent>,
    /// Set when the solve terminated abnormally; `None` for converged and
    /// plain out-of-iterations runs.
    pub failure: Option<SolveFailure>,
    /// Recurrence relative residual after each completed (non-breakdown)
    /// iteration, recorded by warp 0 — the threaded counterpart of
    /// [`crate::SolveReport::residual_history`], used by the differential
    /// harness to assert trajectory parity against the sequential oracle.
    pub residual_history: Vec<f64>,
    /// Each warp's last published (iteration, step) position, decoded from
    /// the progress heartbeat. Empty unless the solve ran under
    /// [`WatchdogPolicy::Heartbeat`]; on a `Wedged` failure this names the
    /// step every warp was stuck at.
    pub last_progress: Vec<WarpProgress>,
    /// Fault-injection telemetry: the plan's repro line plus the merged
    /// injection tally. `None` when the solve ran with an empty
    /// [`FaultPlan`] (the normal case).
    pub injected_faults: Option<InjectedFaults>,
    /// Merged event trace ([`mf_trace`]): per-warp ring buffers joined in
    /// deterministic `(iteration, step, warp, seq)` order, with the
    /// breakdown trail appended as epilogue events. `None` unless the
    /// solve ran through a `run_*_threaded_traced` entry with tracing
    /// enabled.
    pub trace: Option<Trace>,
    /// Re-tier plans applied by the adaptive precision controller, in
    /// epoch order (warp 0's copy — every warp replicates the identical
    /// controller, so every warp computes the same plans). Empty unless
    /// the solve ran through a `run_*_threaded_adaptive` entry with a
    /// controller armed. The differential harness compares these trails
    /// verbatim against the sequential engines'.
    pub retier_trail: Vec<RetierDecision>,
}

impl ThreadedReport {
    /// Table-II style status: `converged`, `max_iter`, or
    /// `aborted(<breakdown>)` naming why the solve stopped early (same
    /// labeling as [`crate::SolveReport::status_label`]).
    pub fn status_label(&self) -> String {
        crate::report::status_label_parts(self.converged, &self.breakdowns, self.failure.as_ref())
    }
}

// Poison codes: why the solve was released early. First writer wins (CAS
// from NONE), every spin loop polls the flag.
const POISON_NONE: i64 = 0;
const POISON_WEDGED: i64 = 1;
const POISON_PANIC: i64 = 2;

// Deterministic-abort codes, set by warp 0 (all warps reach the identical
// decision from shared accumulator reads).
const FAIL_NONE: i64 = 0;
const FAIL_NONFINITE: i64 = 1;
const FAIL_STALLED: i64 = 2;

// ---- Step-name tables ------------------------------------------------------
//
// Each engine calls `WarpSync::step(j, idx)` at the top of every logical
// step; `idx` indexes the engine's table below. The same (iteration, step)
// coordinates address `FaultPlan::with_panic_at`/`with_poison_at` sites and
// decode `ThreadedReport::last_progress`. Step 0 of iteration 0 exists on
// every engine, so a point fault at (w, 0, 0) is engine-portable.

/// Step names of the unpreconditioned CG engine.
pub const CG_STEPS: &[&str] = &["spmv", "dot", "update", "direction"];
/// Step names of the unpreconditioned BiCGSTAB engine.
pub const BICGSTAB_STEPS: &[&str] = &["spmv_p", "svec", "spmv_s", "update", "direction"];
/// Step names of the PCG engine (`init` runs once, before iteration 0).
pub const PCG_STEPS: &[&str] = &["init", "spmv", "update", "precond", "direction"];
/// Step names of the PBiCGSTAB engine.
pub const PBICGSTAB_STEPS: &[&str] = &["precond_p", "spmv_v", "precond_s", "spmv_t", "update"];
/// Step names of the standalone SpTRSV runner.
pub const SPTRSV_STEPS: &[&str] = &["lower", "upper"];
/// Step names of the pipelined CG engine (`init` runs once, before
/// iteration 0; each iteration passes exactly one global barrier, inside
/// `update`).
pub const CG_PIPELINED_STEPS: &[&str] = &["init", "spmv", "scalars", "update"];
/// Step names of the pipelined PCG engine (`init` runs once; each iteration
/// passes two global barriers — after `precond` and inside `update`).
pub const PCG_PIPELINED_STEPS: &[&str] = &["init", "precond", "spmv", "scalars", "update"];

/// Per-warp view of the shared poison flag, the watchdog (wall-clock
/// deadline and/or progress heartbeat) and the warp's fault stream; all
/// barrier waits go through [`WarpSync::spin_until`], which is where a
/// stuck solve is detected and broken and where schedule perturbations are
/// injected.
#[derive(Clone, Copy)]
struct WarpSync<'a> {
    poison: &'a AtomicI64,
    deadline: Option<Instant>,
    heartbeat: Option<&'a Heartbeat>,
    faults: Option<&'a WarpFaults>,
    /// Event recorder; `None` (the default) makes every event site a
    /// single branch.
    tracer: Option<&'a WarpTracer>,
    warp: usize,
}

impl WarpSync<'_> {
    /// True when the active watchdog policy has fired: past the wall-clock
    /// deadline, or (heartbeat policy) no warp has progressed for a full
    /// interval.
    #[inline]
    fn expired(&self) -> bool {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        if let Some(hb) = self.heartbeat {
            if hb.stalled() {
                return true;
            }
        }
        false
    }

    /// Poisons the solve as wedged (first writer wins) and returns the
    /// winning code.
    fn wedge(&self) -> i64 {
        let _ = self.poison.compare_exchange(
            POISON_NONE,
            POISON_WEDGED,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        self.poison.load(Ordering::Acquire)
    }

    /// A progress event without a position change (a produced tile, a
    /// solved triangular row, a cleared wait).
    #[inline]
    fn pulse(&self) {
        if let Some(hb) = self.heartbeat {
            hb.pulse();
        }
    }

    /// Step boundary: move the trace stamp and publish this warp's
    /// (iteration, step) position to the heartbeat, then fire any injected
    /// point fault addressed at it (recording the firing first, so a
    /// panicking/poisoning site still shows up in the trace).
    #[inline]
    fn step(&self, iteration: i64, step: usize) -> Result<(), i64> {
        if let Some(t) = self.tracer {
            t.stamp(iteration, step);
        }
        if let Some(hb) = self.heartbeat {
            hb.beat(self.warp, Heartbeat::pack(iteration as usize, step));
        }
        if let Some(f) = self.faults {
            let fault = f.step_fault(iteration as usize, step);
            if fault != StepFault::None {
                if let Some(t) = self.tracer {
                    t.record(EventKind::Fault, fault.trace_code(), 0);
                }
            }
            match fault {
                StepFault::None => {}
                StepFault::Panic => panic!(
                    "injected fault: warp {} panicked at iteration {} step {}",
                    self.warp, iteration, step
                ),
                StepFault::Poison => return Err(self.wedge()),
            }
        }
        Ok(())
    }

    /// Spins until `counter >= target`, or fails with the poison code when
    /// the solve was poisoned or the watchdog fired while waiting. The
    /// watchdog is polled every 512 spins (including the very first
    /// unsatisfied one, so an already-expired deadline is detected
    /// deterministically). Fault hooks: the warp's `barrier_entry` fault
    /// fires once on entry — *before* the satisfied check, so a `Halt`
    /// wedges even a single-warp solve — and the per-poll `poll` fault
    /// fires on every unsatisfied re-read. A successful exit pulses the
    /// heartbeat, so a schedule that keeps clearing waits (however slowly)
    /// is never reported as wedged.
    fn spin_until(&self, counter: &AtomicI64, target: i64) -> Result<(), i64> {
        self.enter_fault(counter)?;
        if let Some(t) = self.tracer {
            t.record(EventKind::BarrierEnter, target.max(0) as u64, 0);
            let polls = self.spin_core(counter, target)?;
            t.add_polls(polls);
            t.record(EventKind::BarrierExit, target.max(0) as u64, polls);
            Ok(())
        } else {
            self.spin_core(counter, target).map(|_| ())
        }
    }

    /// Row-dependency wait inside the in-kernel SpTRSV: identical fault,
    /// poison and watchdog semantics to [`WarpSync::spin_until`], but no
    /// per-wait events — at one wait per dependent row they would swamp
    /// the ring. Spin polls still accumulate into the tracer; the SpTRSV
    /// passes record one aggregate `RowWait` event each instead.
    fn spin_until_row(&self, counter: &AtomicI64, target: i64) -> Result<(), i64> {
        self.enter_fault(counter)?;
        let polls = self.spin_core(counter, target)?;
        if let Some(t) = self.tracer {
            t.add_polls(polls);
        }
        Ok(())
    }

    /// Fires the warp's barrier-entry fault hook and executes its arm
    /// (recording non-trivial firings as `Fault` events — the hook draws
    /// from deterministic per-warp state, so the events are too).
    fn enter_fault(&self, counter: &AtomicI64) -> Result<(), i64> {
        let Some(f) = self.faults else {
            return Ok(());
        };
        let fault = f.barrier_entry();
        if fault != BarrierFault::None {
            if let Some(t) = self.tracer {
                t.record(EventKind::Fault, fault.trace_code(), 0);
            }
        }
        match fault {
            BarrierFault::None => {}
            BarrierFault::Stall(d) => {
                let until = Instant::now() + d;
                while Instant::now() < until {
                    let code = self.poison.load(Ordering::Acquire);
                    if code != POISON_NONE {
                        return Err(code);
                    }
                    std::hint::spin_loop();
                }
            }
            BarrierFault::Retry(extra) => {
                for _ in 0..extra {
                    let _ = counter.load(Ordering::Acquire);
                }
            }
            BarrierFault::Halt => loop {
                // Dead warp: never advances again, but keeps polling the
                // poison flag and the watchdog so the run is reapable.
                let code = self.poison.load(Ordering::Acquire);
                if code != POISON_NONE {
                    return Err(code);
                }
                if self.expired() {
                    return Err(self.wedge());
                }
                std::thread::yield_now();
            },
        }
        Ok(())
    }

    /// The raw poll loop shared by both wait flavours: spins until
    /// `counter >= target`, returning the number of unsatisfied polls it
    /// burned (schedule-dependent — trace payloads only).
    fn spin_core(&self, counter: &AtomicI64, target: i64) -> Result<u64, i64> {
        let mut polls = 0u64;
        loop {
            if counter.load(Ordering::Acquire) >= target {
                self.pulse();
                return Ok(polls);
            }
            let code = self.poison.load(Ordering::Acquire);
            if code != POISON_NONE {
                return Err(code);
            }
            if let Some(f) = self.faults {
                match f.poll() {
                    SpinFault::None => {}
                    SpinFault::Delay(spins) => {
                        for _ in 0..spins {
                            std::hint::spin_loop();
                        }
                    }
                    SpinFault::Yield => std::thread::yield_now(),
                }
            }
            if polls.is_multiple_of(512) {
                if self.expired() {
                    return Err(self.wedge());
                }
                std::thread::yield_now();
            }
            std::hint::spin_loop();
            polls = polls.wrapping_add(1);
        }
    }

    /// Top-of-iteration gate: fail fast if the solve is already poisoned
    /// or the watchdog already fired (this is what makes a zero/elapsed
    /// deadline deterministic even for warps that never wait at a barrier).
    #[inline]
    fn iteration_gate(&self) -> Result<(), i64> {
        let code = self.poison.load(Ordering::Acquire);
        if code != POISON_NONE {
            return Err(code);
        }
        if self.expired() {
            return Err(self.wedge());
        }
        Ok(())
    }
}

/// Resolves a [`WatchdogPolicy`] into the engine's runtime pair: an
/// absolute deadline and/or a shared heartbeat.
fn arm_watchdog(policy: WatchdogPolicy, warps: usize) -> (Option<Instant>, Option<Heartbeat>) {
    match policy {
        WatchdogPolicy::Disabled => (None, None),
        WatchdogPolicy::WallClock(d) => (Some(Instant::now() + d), None),
        WatchdogPolicy::Heartbeat(i) => (None, Some(Heartbeat::new(i, warps))),
    }
}

/// Deterministic-failure cell set by warp 0; first write wins.
struct FailureCell {
    code: AtomicI64,
    iter: AtomicI64,
}

impl FailureCell {
    fn new() -> FailureCell {
        FailureCell {
            code: AtomicI64::new(FAIL_NONE),
            iter: AtomicI64::new(0),
        }
    }

    fn set(&self, code: i64, iter: i64) {
        if self
            .code
            .compare_exchange(FAIL_NONE, code, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.iter.store(iter, Ordering::Release);
        }
    }
}

/// What one warp thread hands back through its join handle.
struct WarpOut {
    events: Vec<BreakdownEvent>,
    panic: Option<String>,
    /// Warp 0's per-iteration recurrence relres trail (empty elsewhere).
    trail: Vec<f64>,
    /// Faults this warp actually injected (zero under an empty plan).
    faults: FaultCounts,
    /// This warp's event recorder (created outside the panic guard, so
    /// events up to a panic survive it). `None` when tracing is off.
    tracer: Option<WarpTracer>,
}

/// Folds one warp's `catch_unwind` outcome into a [`WarpOut`], poisoning
/// the siblings first on a panic so nobody spins on a dead counter.
fn settle_warp(
    body: std::thread::Result<Result<(), i64>>,
    poison: &AtomicI64,
    events: Vec<BreakdownEvent>,
    trail: Vec<f64>,
    faults: FaultCounts,
    tracer: Option<WarpTracer>,
) -> WarpOut {
    match body {
        Ok(_) => WarpOut {
            events,
            panic: None,
            trail,
            faults,
            tracer,
        },
        Err(payload) => {
            let _ = poison.compare_exchange(
                POISON_NONE,
                POISON_PANIC,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            WarpOut {
                events,
                panic: Some(panic_message(payload)),
                trail,
                faults,
                tracer,
            }
        }
    }
}

/// Join-failure fallback: the warp died outside the panic guard.
fn dead_warp() -> WarpOut {
    WarpOut {
        events: Vec::new(),
        panic: Some("warp thread died outside the panic guard".to_string()),
        trail: Vec::new(),
        faults: FaultCounts::default(),
        tracer: None,
    }
}

/// The `b = 0` fast path: `x = 0` converges in zero iterations.
fn trivial_report(n: usize, warps: usize) -> ThreadedReport {
    ThreadedReport {
        x: vec![0.0; n],
        iterations: 0,
        converged: true,
        final_relres: 0.0,
        warps,
        breakdowns: Vec::new(),
        failure: None,
        residual_history: Vec::new(),
        last_progress: Vec::new(),
        injected_faults: None,
        trace: None,
        retier_trail: Vec::new(),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "warp panicked with a non-string payload".to_string()
    }
}

/// Segment ownership: warp `w` owns segments `[seg_lo[w], seg_lo[w+1])`.
fn segment_bounds(segments: usize, warps: usize) -> Vec<usize> {
    let base = segments / warps;
    let extra = segments % warps;
    let mut seg_lo = Vec::with_capacity(warps + 1);
    seg_lo.push(0usize);
    for w in 0..warps {
        seg_lo.push(seg_lo[w] + base + usize::from(w < extra));
    }
    seg_lo
}

/// Assembles the report from the shared cells and the per-warp outputs:
/// panics beat the watchdog beat the deterministic aborts, and the host
/// appends the terminal Panic/Watchdog event to warp 0's trail. The
/// heartbeat snapshot is decoded through the engine's step-name table into
/// [`ThreadedReport::last_progress`]; a non-empty plan is echoed as
/// [`InjectedFaults`] telemetry (repro line + merged tally).
#[allow(clippy::too_many_arguments)]
fn finish_report(
    x: &[AtomicU64],
    warps: usize,
    iterations_done: &AtomicI64,
    converged_flag: &AtomicI64,
    final_relres_bits: &AtomicU64,
    poison: &AtomicI64,
    failure_cell: &FailureCell,
    heartbeat: Option<&Heartbeat>,
    steps: &'static [&'static str],
    plan: &FaultPlan,
    mut outs: Vec<WarpOut>,
) -> ThreadedReport {
    let injected_faults = if plan.is_empty() {
        None
    } else {
        Some(InjectedFaults {
            plan: plan.to_string(),
            counts: outs
                .iter()
                .fold(FaultCounts::default(), |a, o| a.merge(o.faults)),
        })
    };
    let last_progress: Vec<WarpProgress> = heartbeat
        .map(|hb| {
            hb.snapshot()
                .iter()
                .enumerate()
                .map(|(wi, &packed)| match Heartbeat::unpack(packed) {
                    None => WarpProgress {
                        warp: wi,
                        iteration: 0,
                        step: "start",
                    },
                    Some((iteration, stp)) => WarpProgress {
                        warp: wi,
                        iteration,
                        step: steps.get(stp).copied().unwrap_or("?"),
                    },
                })
                .collect()
        })
        .unwrap_or_default();
    let iterations = iterations_done.load(Ordering::Acquire) as usize;
    let (mut breakdowns, residual_history) = if outs.is_empty() {
        (Vec::new(), Vec::new())
    } else {
        (
            std::mem::take(&mut outs[0].events),
            std::mem::take(&mut outs[0].trail),
        )
    };
    let panic_hit = outs
        .iter()
        .enumerate()
        .find_map(|(w, o)| o.panic.as_ref().map(|m| (w, m.clone())));
    let failure = if let Some((warp, message)) = panic_hit {
        breakdowns.push(BreakdownEvent {
            iteration: iterations,
            kind: BreakdownKind::Panic,
            action: RecoveryAction::Aborted,
        });
        Some(SolveFailure::WarpPanic { warp, message })
    } else if poison.load(Ordering::Acquire) == POISON_WEDGED {
        breakdowns.push(BreakdownEvent {
            iteration: iterations,
            kind: BreakdownKind::Watchdog,
            action: RecoveryAction::Aborted,
        });
        Some(SolveFailure::Wedged {
            iteration: iterations,
        })
    } else {
        let iter = failure_cell.iter.load(Ordering::Acquire) as usize;
        match failure_cell.code.load(Ordering::Acquire) {
            FAIL_NONFINITE => Some(SolveFailure::NonFinite { iteration: iter }),
            FAIL_STALLED => Some(SolveFailure::Stalled { iteration: iter }),
            _ => None,
        }
    };
    // Merge the per-warp event streams after the breakdown trail is final,
    // so the epilogue includes the host-appended Panic/Watchdog events.
    let warp_traces: Vec<WarpTrace> = outs
        .iter_mut()
        .filter_map(|o| o.tracer.take())
        .map(|t| t.finish())
        .collect();
    let trace = (!warp_traces.is_empty()).then(|| {
        let mut tr = Trace::merge(warp_traces);
        crate::report::append_breakdown_epilogue(&mut tr, &breakdowns);
        tr
    });
    ThreadedReport {
        x: x.iter()
            .map(|c| f64::from_bits(c.load(Ordering::Acquire)))
            .collect(),
        iterations,
        converged: converged_flag.load(Ordering::Acquire) == 1,
        final_relres: f64::from_bits(final_relres_bits.load(Ordering::Acquire)),
        warps,
        breakdowns,
        failure,
        residual_history,
        last_progress,
        injected_faults,
        trace,
        retier_trail: Vec::new(),
    }
}

/// Runs CG with the default watchdog policy (the progress heartbeat,
/// [`crate::config::DEFAULT_HEARTBEAT`]); see [`run_cg_threaded_full`].
///
/// ```
/// use mf_solver::threaded::run_cg_threaded;
/// use mf_sparse::{Coo, TiledMatrix};
///
/// let n = 64;
/// let mut a = Coo::new(n, n);
/// for i in 0..n {
///     a.push(i, i, 4.0);
///     if i > 0 { a.push(i, i - 1, -1.0); }
///     if i + 1 < n { a.push(i, i + 1, -1.0); }
/// }
/// let a = a.to_csr();
/// let mut b = vec![0.0; n];
/// a.matvec(&vec![1.0; n], &mut b);
///
/// let t = TiledMatrix::from_csr(&a);
/// let rep = run_cg_threaded(&t, &b, 1e-10, 1000, 4);
/// assert!(rep.converged);
/// assert!(rep.x.iter().all(|v| (v - 1.0).abs() < 1e-7));
/// ```
pub fn run_cg_threaded(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
) -> ThreadedReport {
    run_cg_threaded_full(
        m,
        b,
        tol,
        max_iter,
        max_warps,
        WatchdogPolicy::default(),
        &FaultPlan::default(),
    )
}

/// Legacy wall-clock adapter: `Some(d)` is an absolute deadline for the
/// whole solve, `None` disables the watchdog entirely (the paper's
/// idealized deadlock-free assumption). See [`run_cg_threaded_full`].
pub fn run_cg_threaded_watchdog(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: Option<Duration>,
) -> ThreadedReport {
    run_cg_threaded_full(
        m,
        b,
        tol,
        max_iter,
        max_warps,
        WatchdogPolicy::from_wallclock(watchdog),
        &FaultPlan::default(),
    )
}

/// Runs CG on `max_warps.min(segments)` threads synchronized purely through
/// atomic dependency counters. Tiles execute at their stored (initial)
/// precision; the dynamic strategy is not exercised here — this engine
/// validates the *synchronization* scheme.
///
/// Deterministic and warp-count invariant by construction: producers store
/// per-tile-row SpMV partials into a per-entry scratch array (the `d_s`
/// protocol is unchanged), segment owners assemble `u = A p` in global
/// tile order, and every dot product is a per-segment single-writer
/// partial reduced in fixed segment order — no arrival-order atomic adds
/// anywhere. A benign [`FaultPlan`] therefore cannot change a single bit
/// of the result.
#[allow(clippy::too_many_arguments)]
pub fn run_cg_threaded_full(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: WatchdogPolicy,
    plan: &FaultPlan,
) -> ThreadedReport {
    run_cg_threaded_traced(
        m,
        b,
        tol,
        max_iter,
        max_warps,
        watchdog,
        plan,
        &TraceConfig::default(),
    )
}

/// [`run_cg_threaded_full`] plus an event-trace switch: with
/// `trace.enabled` each warp records into its own ring buffer
/// ([`mf_trace::WarpTracer`]) and the merged stream lands in
/// [`ThreadedReport::trace`]. A disabled config is bitwise inert.
#[allow(clippy::too_many_arguments)]
pub fn run_cg_threaded_traced(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: WatchdogPolicy,
    plan: &FaultPlan,
    trace: &TraceConfig,
) -> ThreadedReport {
    run_cg_threaded_adaptive(m, b, tol, max_iter, max_warps, watchdog, plan, trace, None)
}

/// [`run_cg_threaded_traced`] plus the adaptive precision controller v2
/// (`None` is bitwise inert). Every warp constructs the identical
/// controller from the same census and observes the identical residual at
/// the loop bottom, so every warp computes the same re-tier plan with zero
/// extra synchronization. An applied plan consumes one **refresh pass**:
/// one full barrier-aligned loop slot with the normal pass's exact counter
/// footprint (one `d_s` epoch per tile, two `d_d` epochs, one `d_a`
/// epoch), during which each warp requantizes its own resident tiles from
/// a fresh decode (the [`mf_kernels::SharedTiles::retier_tile`] rule) and
/// the true residual `r = b − A·x` rebuilds the search direction. Refresh
/// passes advance the physical slot index but not the reported iteration
/// count, matching the sequential engines.
#[allow(clippy::too_many_arguments)]
pub fn run_cg_threaded_adaptive(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: WatchdogPolicy,
    plan: &FaultPlan,
    trace: &TraceConfig,
    adaptive: Option<AdaptiveConfig>,
) -> ThreadedReport {
    let trace = *trace;
    let n = m.nrows;
    assert_eq!(b.len(), n);
    assert_eq!(m.nrows, m.ncols);
    assert!(max_warps >= 1);

    let ts = m.tile_size;
    let segments = n.div_ceil(ts).max(1);
    let warps = segments.min(max_warps).max(1);
    let seg_lo = segment_bounds(segments, warps);
    let tr_start = tile_row_starts(m, segments);

    let spmv = SpmvSchedule::for_warps(m, warps);

    let norm_b: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm_b == 0.0 {
        return trivial_report(n, warps);
    }

    // Shared vectors as atomic bit-cells: every element is written by
    // exactly one warp between barriers (x, r, p by the segment owner; u by
    // the segment owner during the gather).
    let to_cells =
        |v: &[f64]| -> Vec<AtomicU64> { v.iter().map(|&x| AtomicU64::new(x.to_bits())).collect() };
    let x = to_cells(&vec![0.0; n]);
    let r = to_cells(b);
    let p = to_cells(b);
    let u = to_cells(&vec![0.0; n]);
    // One slot per tile-row entry: the producing warp stores its tile's
    // per-row partial of A·p here (Release) before bumping `d_s`; the
    // segment owner assembles rows from the slots in global tile order, so
    // the sum is identical for every warp count and schedule perturbation.
    let scratch: Vec<AtomicU64> = (0..m.row_index.len()).map(|_| AtomicU64::new(0)).collect();

    // Dependency counters (monotone epochs).
    let ds_init: Vec<i64> = {
        let mut c = vec![0i64; m.tile_rows];
        for &tr in &m.tile_rowidx {
            c[tr as usize] += 1;
        }
        c
    };
    let d_s: Vec<AtomicI64> = (0..m.tile_rows).map(|_| AtomicI64::new(0)).collect();
    let d_d = AtomicI64::new(0);
    let d_a = AtomicI64::new(0);
    // Per-segment single-writer dot partials, reduced in fixed segment
    // order by every warp after the dot barrier — deterministic and free of
    // the catastrophic cancellation a monotone shared accumulator would
    // suffer. One array per dot site; a barrier always separates a site's
    // reads from its next writes.
    let mk_seg = || -> Vec<AtomicU64> { (0..segments).map(|_| AtomicU64::new(0)).collect() };
    let seg_y = mk_seg();
    let seg_z = mk_seg();
    let seg_z_bd = mk_seg();

    let rr0: f64 = b.iter().map(|v| v * v).sum();
    let iterations_done = AtomicI64::new(0);
    let converged_flag = AtomicI64::new(0);
    let final_relres_bits = AtomicU64::new(f64::INFINITY.to_bits());
    let poison = AtomicI64::new(POISON_NONE);
    let failure_cell = FailureCell::new();
    let (deadline, heartbeat) = arm_watchdog(watchdog, warps);
    let hb = heartbeat.as_ref();

    let warps_i = warps as i64;

    // Warp 0's applied-plan trail; uncontended (single writer) and read
    // only after the scope joins.
    let retier_out: std::sync::Mutex<Vec<RetierDecision>> = std::sync::Mutex::new(Vec::new());

    let outs: Vec<WarpOut> = crossbeam::scope(|scope| {
        let mut handles = Vec::with_capacity(warps);
        for w in 0..warps {
            let (x, r, p, u) = (&x, &r, &p, &u);
            let retier_out = &retier_out;
            let (d_s, d_d, d_a) = (&d_s, &d_d, &d_a);
            let scratch = &scratch;
            let (seg_y, seg_z, seg_z_bd) = (&seg_y, &seg_z, &seg_z_bd);
            let ds_init = &ds_init;
            let spmv = &spmv;
            let (seg_lo, tr_start) = (&seg_lo, &tr_start);
            let iterations_done = &iterations_done;
            let converged_flag = &converged_flag;
            let final_relres_bits = &final_relres_bits;
            let poison = &poison;
            let failure_cell = &failure_cell;
            let plan = &*plan;
            handles.push(scope.spawn(move |_| {
                let wf = (!plan.is_empty()).then(|| plan.for_warp(w));
                let tracer = trace
                    .enabled
                    .then(|| WarpTracer::new(w, trace.capacity_per_warp));
                let sync = WarpSync {
                    poison,
                    deadline,
                    heartbeat: hb,
                    faults: wf.as_ref(),
                    tracer: tracer.as_ref(),
                    warp: w,
                };
                let mut events: Vec<BreakdownEvent> = Vec::new();
                let mut trail: Vec<f64> = Vec::new();
                let body = catch_unwind(AssertUnwindSafe(|| -> Result<(), i64> {
                    let my_segs = seg_lo[w]..seg_lo[w + 1];
                    let elems = |s: usize| (s * ts)..(((s + 1) * ts).min(n));
                    let my_tiles = if w < spmv.warp_tiles.len() {
                        let (lo, hi) = spmv.warp_tiles[w];
                        lo..hi
                    } else {
                        0..0
                    };
                    // Decode my tiles once ("load into shared memory");
                    // mutable only for adaptive re-tier refresh passes.
                    let mut tile_vals: Vec<Vec<f64>> =
                        my_tiles.clone().map(|i| m.decode_tile_values(i)).collect();
                    let mut acc = vec![0.0f64; ts];

                    let mut rr = rr0;
                    let mut consecutive_restarts = 0usize;
                    let ld = |c: &AtomicU64| f64::from_bits(c.load(Ordering::Acquire));
                    let st = |c: &AtomicU64, v: f64| c.store(v.to_bits(), Ordering::Release);
                    let seg_total = |cells: &[AtomicU64]| -> f64 {
                        let mut t = 0.0;
                        for cell in cells.iter() {
                            t += f64::from_bits(cell.load(Ordering::Acquire));
                        }
                        t
                    };

                    // Replicated controller: identical census + identical
                    // observed residuals ⇒ identical plans on every warp.
                    let mut ctrl = adaptive.map(|ac| crate::adaptive::controller_for(m, ac));
                    let mut pending: Option<RetierDecision> = None;
                    // Physical loop slots `j` (barrier epochs) vs completed
                    // CG iterations: refresh passes consume a slot without
                    // counting as an iteration, so the two diverge only in
                    // adaptive runs.
                    let mut iters_completed: i64 = 0;
                    let mut j: i64 = -1;
                    loop {
                        j += 1;
                        if iters_completed >= max_iter as i64 {
                            break;
                        }
                        sync.iteration_gate()?;
                        let it = iters_completed;

                        if let Some(d) = pending.take() {
                            // ---- Re-tier refresh pass (slot `j`, not an
                            // iteration). Requantize my resident tiles from
                            // a fresh decode, recompute u = A·x through the
                            // normal scratch protocol, and let segment
                            // owners rebuild r = b − u, p = r, rr = (r, r).
                            sync.step(j, 0)?;
                            for (ti, i) in my_tiles.clone().enumerate() {
                                if let Some(a) = d.actions.iter().find(|a| a.tile as usize == i) {
                                    let mut fresh = m.decode_tile_values(i);
                                    a.to.quantize_slice(&mut fresh);
                                    tile_vals[ti] = fresh;
                                }
                            }
                            for (ti, i) in my_tiles.clone().enumerate() {
                                let base_col = m.tile_colidx[i] as usize * ts;
                                let nnz_base = m.tile_nnz[i] as usize;
                                let vals = &tile_vals[ti];
                                #[allow(clippy::needless_range_loop)]
                                for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
                                    let mut sum = 0.0;
                                    for k in
                                        m.csr_rowptr[ri] as usize..m.csr_rowptr[ri + 1] as usize
                                    {
                                        sum += vals[k - nnz_base]
                                            * ld(&x[base_col + m.csr_colidx[k] as usize]);
                                    }
                                    scratch[ri].store(sum.to_bits(), Ordering::Release);
                                }
                                d_s[m.tile_rowidx[i] as usize].fetch_add(1, Ordering::AcqRel);
                                sync.pulse();
                            }
                            sync.step(j, 1)?;
                            for s in my_segs.clone() {
                                if s < ds_init.len() {
                                    sync.spin_until(&d_s[s], ds_init[s] * (j + 1))?;
                                }
                                let base_row = s * ts;
                                let len = ((s + 1) * ts).min(n) - base_row;
                                acc[..len].fill(0.0);
                                for i in tr_start[s]..tr_start[s + 1] {
                                    for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
                                        acc[m.row_index[ri] as usize] +=
                                            f64::from_bits(scratch[ri].load(Ordering::Acquire));
                                    }
                                }
                                let mut part = 0.0;
                                for (o, &v) in acc[..len].iter().enumerate() {
                                    let e = base_row + o;
                                    let rv = b[e] - v;
                                    st(&r[e], rv);
                                    st(&p[e], rv);
                                    part += rv * rv;
                                }
                                st(&seg_y[s], part);
                            }
                            d_d.fetch_add(1, Ordering::AcqRel);
                            sync.spin_until(d_d, warps_i * (2 * j + 1))?;
                            rr = seg_total(seg_y);
                            // Epoch-matching bumps: a refresh pass must
                            // leave every counter exactly where a normal
                            // pass would.
                            d_d.fetch_add(1, Ordering::AcqRel);
                            sync.spin_until(d_d, warps_i * (2 * j + 2))?;
                            d_a.fetch_add(1, Ordering::AcqRel);
                            sync.spin_until(d_a, warps_i * (j + 1))?;
                            if w == 0 {
                                if let Some(t) = sync.tracer {
                                    let (pa, pb) = crate::adaptive::retier_trace_payload(&d);
                                    t.record(EventKind::Retier, pa, pb);
                                }
                                if let Ok(mut g) = retier_out.lock() {
                                    g.push(d);
                                }
                            }
                            continue;
                        }

                        // ---- Step A: produce the per-tile-row partials of
                        // u = A·p for my (load-balanced) tiles into their
                        // scratch slots, then bump the row's `d_s` epoch.
                        sync.step(j, 0)?;
                        for (ti, i) in my_tiles.clone().enumerate() {
                            let base_col = m.tile_colidx[i] as usize * ts;
                            let nnz_base = m.tile_nnz[i] as usize;
                            let vals = &tile_vals[ti];
                            // scratch is keyed by absolute CSR row id, not a
                            // local window — indexing is the clear spelling.
                            #[allow(clippy::needless_range_loop)]
                            for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
                                let mut sum = 0.0;
                                for k in m.csr_rowptr[ri] as usize..m.csr_rowptr[ri + 1] as usize {
                                    sum += vals[k - nnz_base]
                                        * ld(&p[base_col + m.csr_colidx[k] as usize]);
                                }
                                scratch[ri].store(sum.to_bits(), Ordering::Release);
                            }
                            // atomicSub(d_s[...]) in the paper; monotone epoch here.
                            d_s[m.tile_rowidx[i] as usize].fetch_add(1, Ordering::AcqRel);
                            sync.pulse();
                        }

                        // ---- Step B: once a segment's row tiles are all
                        // produced, assemble its rows of u in *global tile
                        // order* and take the (u, p) partial — single writer
                        // per seg_y slot, so the dot is bit-stable under any
                        // schedule.
                        sync.step(j, 1)?;
                        for s in my_segs.clone() {
                            if s < ds_init.len() {
                                sync.spin_until(&d_s[s], ds_init[s] * (j + 1))?;
                            }
                            let base_row = s * ts;
                            let len = ((s + 1) * ts).min(n) - base_row;
                            acc[..len].fill(0.0);
                            for i in tr_start[s]..tr_start[s + 1] {
                                for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
                                    acc[m.row_index[ri] as usize] +=
                                        f64::from_bits(scratch[ri].load(Ordering::Acquire));
                                }
                            }
                            let mut part = 0.0;
                            for (o, &v) in acc[..len].iter().enumerate() {
                                let e = base_row + o;
                                st(&u[e], v);
                                part += v * ld(&p[e]);
                            }
                            st(&seg_y[s], part);
                        }
                        d_d.fetch_add(1, Ordering::AcqRel);
                        sync.spin_until(d_d, warps_i * (2 * j + 1))?;
                        let py = seg_total(seg_y);
                        let alpha = rr / py;

                        if !alpha.is_finite() || py <= 0.0 {
                            // ---- Breakdown: the curvature pᵀAp is not
                            // positive (or a scalar went non-finite). Every
                            // warp reads the same `py`/`rr`, so every warp
                            // is in this branch — the barrier epochs below
                            // match the normal path exactly (d_d twice,
                            // d_a once per warp).
                            let kind = if py.is_finite() && py <= 0.0 {
                                BreakdownKind::Curvature
                            } else {
                                BreakdownKind::NonFinite
                            };
                            // Restart needs rr = (r, r): reuse the second
                            // dot barrier for it.
                            for s in my_segs.clone() {
                                let mut part_z = 0.0;
                                for e in elems(s) {
                                    let rv = ld(&r[e]);
                                    part_z += rv * rv;
                                }
                                st(&seg_z_bd[s], part_z);
                            }
                            d_d.fetch_add(1, Ordering::AcqRel);
                            sync.spin_until(d_d, warps_i * (2 * j + 2))?;
                            let rr_restart = seg_total(seg_z_bd);
                            // p = r (u needs no zeroing — the Step-B gather
                            // overwrites every element wholesale).
                            for s in my_segs.clone() {
                                for e in elems(s) {
                                    st(&p[e], ld(&r[e]));
                                }
                            }
                            rr = rr_restart;
                            d_a.fetch_add(1, Ordering::AcqRel);
                            sync.spin_until(d_a, warps_i * (j + 1))?;

                            consecutive_restarts += 1;
                            // A restart leaves x and r untouched, so a
                            // repeat from the same state is a fixed point —
                            // abort instead of spinning (see crate::config).
                            let abort_nonfinite = !rr_restart.is_finite();
                            let abort_stalled = consecutive_restarts >= MAX_CONSECUTIVE_RESTARTS;
                            let action = if abort_nonfinite || abort_stalled {
                                RecoveryAction::Aborted
                            } else {
                                RecoveryAction::Restarted
                            };
                            events.push(BreakdownEvent {
                                iteration: it as usize,
                                kind,
                                action,
                            });
                            iters_completed = it + 1;
                            if w == 0 {
                                iterations_done.store(it + 1, Ordering::Release);
                                let relres = rr_restart.max(0.0).sqrt() / norm_b;
                                if relres.is_finite() {
                                    final_relres_bits.store(relres.to_bits(), Ordering::Release);
                                }
                                if abort_nonfinite {
                                    failure_cell.set(FAIL_NONFINITE, it);
                                } else if abort_stalled {
                                    failure_cell.set(FAIL_STALLED, it);
                                }
                            }
                            if abort_nonfinite || abort_stalled {
                                return Ok(());
                            }
                            continue;
                        }

                        // ---- Step C: x += αp, r −= αu, then dot (r, r).
                        sync.step(j, 2)?;
                        for s in my_segs.clone() {
                            let mut part_z = 0.0;
                            for e in elems(s) {
                                st(&x[e], ld(&x[e]) + alpha * ld(&p[e]));
                                let rv = ld(&r[e]) - alpha * ld(&u[e]);
                                st(&r[e], rv);
                                part_z += rv * rv;
                            }
                            st(&seg_z[s], part_z);
                        }
                        d_d.fetch_add(1, Ordering::AcqRel);
                        sync.spin_until(d_d, warps_i * (2 * j + 2))?;
                        let rr_new = seg_total(seg_z);

                        if !rr_new.is_finite() {
                            // Poisoned residual: no restart can rebuild
                            // finite state from it. All warps abort here
                            // identically (final_relres keeps its last
                            // finite value).
                            events.push(BreakdownEvent {
                                iteration: it as usize,
                                kind: BreakdownKind::NonFinite,
                                action: RecoveryAction::Aborted,
                            });
                            if w == 0 {
                                iterations_done.store(it + 1, Ordering::Release);
                                failure_cell.set(FAIL_NONFINITE, it);
                            }
                            return Ok(());
                        }
                        consecutive_restarts = 0;
                        let beta = rr_new / rr;
                        rr = rr_new;

                        // ---- Step D: p = r + βp.
                        sync.step(j, 3)?;
                        for s in my_segs.clone() {
                            for e in elems(s) {
                                st(&p[e], ld(&r[e]) + beta * ld(&p[e]));
                            }
                        }
                        d_a.fetch_add(1, Ordering::AcqRel);
                        sync.spin_until(d_a, warps_i * (j + 1))?;

                        // All warps compute the identical residual decision —
                        // the in-kernel convergence check of Algorithm 3.
                        let relres = rr_new.max(0.0).sqrt() / norm_b;
                        iters_completed = it + 1;
                        if w == 0 {
                            iterations_done.store(it + 1, Ordering::Release);
                            final_relres_bits.store(relres.to_bits(), Ordering::Release);
                            trail.push(relres);
                        }
                        if relres < tol {
                            if w == 0 {
                                converged_flag.store(1, Ordering::Release);
                            }
                            break;
                        }
                        // Adaptive hook (after the convergence check, like
                        // the sequential cores): every warp arms the same
                        // plan; the next slot becomes the refresh pass.
                        if let Some(c) = ctrl.as_mut() {
                            pending = c.observe(iters_completed as usize, relres, tol);
                        }
                    }
                    Ok(())
                }));
                let faults = wf.as_ref().map(|f| f.counts()).unwrap_or_default();
                settle_warp(body, poison, events, trail, faults, tracer)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| dead_warp()))
            .collect()
    })
    .expect("threaded CG scope failed");

    let mut report = finish_report(
        &x,
        warps,
        &iterations_done,
        &converged_flag,
        &final_relres_bits,
        &poison,
        &failure_cell,
        heartbeat.as_ref(),
        CG_STEPS,
        plan,
        outs,
    );
    report.retier_trail = retier_out.into_inner().unwrap_or_else(|e| e.into_inner());
    report
}

/// Runs BiCGSTAB with the default watchdog policy (the progress heartbeat,
/// [`crate::config::DEFAULT_HEARTBEAT`]); see [`run_bicgstab_threaded_full`].
pub fn run_bicgstab_threaded(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
) -> ThreadedReport {
    run_bicgstab_threaded_full(
        m,
        b,
        tol,
        max_iter,
        max_warps,
        WatchdogPolicy::default(),
        &FaultPlan::default(),
    )
}

/// Legacy wall-clock adapter; see [`run_bicgstab_threaded_full`].
pub fn run_bicgstab_threaded_watchdog(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: Option<Duration>,
) -> ThreadedReport {
    run_bicgstab_threaded_full(
        m,
        b,
        tol,
        max_iter,
        max_warps,
        WatchdogPolicy::from_wallclock(watchdog),
        &FaultPlan::default(),
    )
}

/// Runs BiCGSTAB on threads synchronized purely through atomic dependency
/// counters — the two-SpMV variant of the single-kernel scheme ("the
/// consolidation applies to BiCGSTAB as well", §III-C). Per iteration the
/// warps pass two row-tile SpMV epochs, three dot barriers (α, ω, β/‖r‖)
/// and two vector barriers (s ready before the second SpMV; p/u/θ ready
/// before the next iteration). Breakdowns (α non-finite, subnormal ρ,
/// ω = 0) run the sequential cores' restart semantics with all barrier
/// epochs kept aligned. Like [`run_cg_threaded_full`] the SpMV partials go
/// through a per-entry scratch array and every dot is a per-segment
/// single-writer reduction, so the result is bitwise warp-count invariant
/// and immune to benign schedule perturbations.
#[allow(clippy::too_many_arguments)]
pub fn run_bicgstab_threaded_full(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: WatchdogPolicy,
    plan: &FaultPlan,
) -> ThreadedReport {
    run_bicgstab_threaded_traced(
        m,
        b,
        tol,
        max_iter,
        max_warps,
        watchdog,
        plan,
        &TraceConfig::default(),
    )
}

/// [`run_bicgstab_threaded_full`] plus an event-trace switch; see
/// [`run_cg_threaded_traced`].
#[allow(clippy::too_many_arguments)]
pub fn run_bicgstab_threaded_traced(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: WatchdogPolicy,
    plan: &FaultPlan,
    trace: &TraceConfig,
) -> ThreadedReport {
    let trace = *trace;
    let n = m.nrows;
    assert_eq!(b.len(), n);
    assert_eq!(m.nrows, m.ncols);
    assert!(max_warps >= 1);

    let ts = m.tile_size;
    let segments = n.div_ceil(ts).max(1);
    let warps = segments.min(max_warps).max(1);
    let seg_lo = segment_bounds(segments, warps);
    let tr_start = tile_row_starts(m, segments);

    let spmv = SpmvSchedule::for_warps(m, warps);

    let norm_b: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm_b == 0.0 {
        return trivial_report(n, warps);
    }

    let to_cells =
        |v: &[f64]| -> Vec<AtomicU64> { v.iter().map(|&x| AtomicU64::new(x.to_bits())).collect() };
    let x = to_cells(&vec![0.0; n]);
    let r = to_cells(b);
    let p = to_cells(b);
    let sv = to_cells(&vec![0.0; n]); // s
    let u = to_cells(&vec![0.0; n]); // µ = A p
    let th = to_cells(&vec![0.0; n]); // θ = A s
    let r0s: Vec<f64> = b.to_vec(); // shadow residual, immutable
                                    // Per-tile-row-entry SpMV partials, shared by both SpMV epochs (the
                                    // dot barrier after each gather separates a slot's reads from its next
                                    // writes); see [`run_cg_threaded_full`].
    let scratch: Vec<AtomicU64> = (0..m.row_index.len()).map(|_| AtomicU64::new(0)).collect();

    let ds_init: Vec<i64> = {
        let mut c = vec![0i64; m.tile_rows];
        for &tr in &m.tile_rowidx {
            c[tr as usize] += 1;
        }
        c
    };
    let d_s: Vec<AtomicI64> = (0..m.tile_rows).map(|_| AtomicI64::new(0)).collect();
    let d_d = AtomicI64::new(0); // three dot barriers per iteration
    let d_b = AtomicI64::new(0); // s-ready barrier
    let d_a = AtomicI64::new(0); // end-of-iteration barrier
                                 // Per-segment single-writer dot partials, one array per dot site.
    let mk_seg = || -> Vec<AtomicU64> { (0..segments).map(|_| AtomicU64::new(0)).collect() };
    let seg_denom = mk_seg();
    let seg_ts = mk_seg();
    let seg_tt = mk_seg();
    let seg_rho = mk_seg();
    let seg_rr = mk_seg();
    let seg_rho_bd = mk_seg();
    let seg_rr_bd = mk_seg();

    let rho0: f64 = b.iter().zip(&r0s).map(|(a, b)| a * b).sum();
    let iterations_done = AtomicI64::new(0);
    let converged_flag = AtomicI64::new(0);
    let final_relres_bits = AtomicU64::new(f64::INFINITY.to_bits());
    let poison = AtomicI64::new(POISON_NONE);
    let failure_cell = FailureCell::new();
    let (deadline, heartbeat) = arm_watchdog(watchdog, warps);
    let hb = heartbeat.as_ref();

    let warps_i = warps as i64;

    let outs: Vec<WarpOut> = crossbeam::scope(|scope| {
        let mut handles = Vec::with_capacity(warps);
        for w in 0..warps {
            let (x, r, p, sv, u, th) = (&x, &r, &p, &sv, &u, &th);
            let (d_s, d_d, d_b, d_a) = (&d_s, &d_d, &d_b, &d_a);
            let scratch = &scratch;
            let (seg_denom, seg_ts, seg_tt) = (&seg_denom, &seg_ts, &seg_tt);
            let (seg_rho, seg_rr) = (&seg_rho, &seg_rr);
            let (seg_rho_bd, seg_rr_bd) = (&seg_rho_bd, &seg_rr_bd);
            let (ds_init, spmv, seg_lo, tr_start, r0s) =
                (&ds_init, &spmv, &seg_lo, &tr_start, &r0s);
            let iterations_done = &iterations_done;
            let converged_flag = &converged_flag;
            let final_relres_bits = &final_relres_bits;
            let poison = &poison;
            let failure_cell = &failure_cell;
            let plan = &*plan;
            handles.push(scope.spawn(move |_| {
                let wf = (!plan.is_empty()).then(|| plan.for_warp(w));
                let tracer = trace
                    .enabled
                    .then(|| WarpTracer::new(w, trace.capacity_per_warp));
                let sync = WarpSync {
                    poison,
                    deadline,
                    heartbeat: hb,
                    faults: wf.as_ref(),
                    tracer: tracer.as_ref(),
                    warp: w,
                };
                let mut events: Vec<BreakdownEvent> = Vec::new();
                let mut trail: Vec<f64> = Vec::new();
                let body = catch_unwind(AssertUnwindSafe(|| -> Result<(), i64> {
                    let my_segs = seg_lo[w]..seg_lo[w + 1];
                    let elems = |sg: usize| (sg * ts)..(((sg + 1) * ts).min(n));
                    let my_tiles = if w < spmv.warp_tiles.len() {
                        let (lo, hi) = spmv.warp_tiles[w];
                        lo..hi
                    } else {
                        0..0
                    };
                    let tile_vals: Vec<Vec<f64>> =
                        my_tiles.clone().map(|i| m.decode_tile_values(i)).collect();
                    let mut acc = vec![0.0f64; ts];

                    let ld = |c: &AtomicU64| f64::from_bits(c.load(Ordering::Acquire));
                    let st = |c: &AtomicU64, v: f64| c.store(v.to_bits(), Ordering::Release);
                    let seg_total = |cells: &[AtomicU64]| -> f64 {
                        let mut t = 0.0;
                        for cell in cells.iter() {
                            t += f64::from_bits(cell.load(Ordering::Acquire));
                        }
                        t
                    };
                    // Producer half of one SpMV epoch: store my tiles'
                    // per-row partials and bump each row's `d_s`.
                    let produce = |input: &[AtomicU64]| {
                        for (ti, i) in my_tiles.clone().enumerate() {
                            let base_col = m.tile_colidx[i] as usize * ts;
                            let nnz_base = m.tile_nnz[i] as usize;
                            let vals = &tile_vals[ti];
                            // scratch is keyed by absolute CSR row id, not a
                            // local window — indexing is the clear spelling.
                            #[allow(clippy::needless_range_loop)]
                            for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
                                let mut sum = 0.0;
                                for k in m.csr_rowptr[ri] as usize..m.csr_rowptr[ri + 1] as usize {
                                    sum += vals[k - nnz_base]
                                        * ld(&input[base_col + m.csr_colidx[k] as usize]);
                                }
                                scratch[ri].store(sum.to_bits(), Ordering::Release);
                            }
                            d_s[m.tile_rowidx[i] as usize].fetch_add(1, Ordering::AcqRel);
                            sync.pulse();
                        }
                    };
                    // Consumer half: assemble segment `sg`'s rows in global
                    // tile order and plain-store them into `out`.
                    let mut gather = |sg: usize, out: &[AtomicU64]| {
                        let base_row = sg * ts;
                        let len = ((sg + 1) * ts).min(n) - base_row;
                        acc[..len].fill(0.0);
                        for i in tr_start[sg]..tr_start[sg + 1] {
                            for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
                                acc[m.row_index[ri] as usize] +=
                                    f64::from_bits(scratch[ri].load(Ordering::Acquire));
                            }
                        }
                        for (o, &v) in acc[..len].iter().enumerate() {
                            out[base_row + o].store(v.to_bits(), Ordering::Release);
                        }
                    };

                    let mut rho = rho0;
                    let mut consecutive_restarts = 0usize;
                    for j in 0..max_iter as i64 {
                        sync.iteration_gate()?;

                        // ---- µ = A p (first SpMV epoch: targets init·(2j+1)).
                        sync.step(j, 0)?;
                        produce(p);
                        for sg in my_segs.clone() {
                            if sg < ds_init.len() {
                                sync.spin_until(&d_s[sg], ds_init[sg] * (2 * j + 1))?;
                            }
                            gather(sg, u);
                            let mut part = 0.0;
                            for e in elems(sg) {
                                part += ld(&u[e]) * r0s[e];
                            }
                            st(&seg_denom[sg], part);
                        }
                        d_d.fetch_add(1, Ordering::AcqRel);
                        sync.spin_until(d_d, warps_i * (3 * j + 1))?;
                        let denom = seg_total(seg_denom);
                        let alpha = rho / denom;

                        if !alpha.is_finite() || denom.abs() < f64::MIN_POSITIVE {
                            // ---- α breakdown (the old engine divided
                            // blindly and NaN-poisoned every vector).
                            // Every warp reads the same denom/ρ, so every
                            // warp is here; each skipped step gets a
                            // stand-in counter bump so all epochs stay
                            // aligned with the normal path.
                            let kind = if !alpha.is_finite() {
                                BreakdownKind::NonFinite
                            } else {
                                BreakdownKind::Rho
                            };
                            // Stand-in for the skipped second SpMV epoch.
                            for i in my_tiles.clone() {
                                d_s[m.tile_rowidx[i] as usize].fetch_add(1, Ordering::AcqRel);
                            }
                            d_b.fetch_add(1, Ordering::AcqRel);
                            sync.spin_until(d_b, warps_i * (j + 1))?;
                            // Restart scalars ρ = (r, r0*) and ‖r‖² at the
                            // second dot barrier.
                            for sg in my_segs.clone() {
                                let mut prho = 0.0;
                                let mut prr = 0.0;
                                for e in elems(sg) {
                                    let rv = ld(&r[e]);
                                    prho += rv * r0s[e];
                                    prr += rv * rv;
                                }
                                st(&seg_rho_bd[sg], prho);
                                st(&seg_rr_bd[sg], prr);
                            }
                            d_d.fetch_add(1, Ordering::AcqRel);
                            sync.spin_until(d_d, warps_i * (3 * j + 2))?;
                            let mut rho_restart = seg_total(seg_rho_bd);
                            let rr = seg_total(seg_rr_bd);
                            if rho_restart.abs() < f64::MIN_POSITIVE {
                                // Orthogonal shadow residual: restart with
                                // r0* = r semantics (sequential restart()).
                                rho_restart = rr;
                            }
                            // p = r (no zeroing: the gathers overwrite u and
                            // θ wholesale).
                            for sg in my_segs.clone() {
                                for e in elems(sg) {
                                    st(&p[e], ld(&r[e]));
                                }
                            }
                            rho = rho_restart;
                            // Third dot bump keeps the d_d epoch aligned.
                            d_d.fetch_add(1, Ordering::AcqRel);
                            sync.spin_until(d_d, warps_i * (3 * j + 3))?;
                            d_a.fetch_add(1, Ordering::AcqRel);
                            sync.spin_until(d_a, warps_i * (j + 1))?;

                            consecutive_restarts += 1;
                            let abort_nonfinite = !rho_restart.is_finite() || !rr.is_finite();
                            let abort_stalled = consecutive_restarts >= MAX_CONSECUTIVE_RESTARTS;
                            let action = if abort_nonfinite || abort_stalled {
                                RecoveryAction::Aborted
                            } else {
                                RecoveryAction::Restarted
                            };
                            events.push(BreakdownEvent {
                                iteration: j as usize,
                                kind,
                                action,
                            });
                            if w == 0 {
                                iterations_done.store(j + 1, Ordering::Release);
                                let relres = rr.max(0.0).sqrt() / norm_b;
                                if relres.is_finite() {
                                    final_relres_bits.store(relres.to_bits(), Ordering::Release);
                                }
                                if abort_nonfinite {
                                    failure_cell.set(FAIL_NONFINITE, j);
                                } else if abort_stalled {
                                    failure_cell.set(FAIL_STALLED, j);
                                }
                            }
                            if abort_nonfinite || abort_stalled {
                                return Ok(());
                            }
                            continue;
                        }

                        // ---- s = r − αµ on my segments; barrier before SpMV2
                        // (other warps read every segment of s).
                        sync.step(j, 1)?;
                        for sg in my_segs.clone() {
                            for e in elems(sg) {
                                st(&sv[e], ld(&r[e]) - alpha * ld(&u[e]));
                            }
                        }
                        d_b.fetch_add(1, Ordering::AcqRel);
                        sync.spin_until(d_b, warps_i * (j + 1))?;

                        // ---- θ = A s (second SpMV epoch: targets init·(2j+2)).
                        sync.step(j, 2)?;
                        produce(sv);
                        for sg in my_segs.clone() {
                            if sg < ds_init.len() {
                                sync.spin_until(&d_s[sg], ds_init[sg] * (2 * j + 2))?;
                            }
                            gather(sg, th);
                            let mut pts = 0.0;
                            let mut ptt = 0.0;
                            for e in elems(sg) {
                                let t = ld(&th[e]);
                                pts += t * ld(&sv[e]);
                                ptt += t * t;
                            }
                            st(&seg_ts[sg], pts);
                            st(&seg_tt[sg], ptt);
                        }
                        d_d.fetch_add(1, Ordering::AcqRel);
                        sync.spin_until(d_d, warps_i * (3 * j + 2))?;
                        let tt = seg_total(seg_tt);
                        let omega = if tt > 0.0 {
                            seg_total(seg_ts) / tt
                        } else {
                            0.0
                        };

                        // ---- x += αp + ωs; r = s − ωθ; ρ' and ‖r‖² partials.
                        sync.step(j, 3)?;
                        for sg in my_segs.clone() {
                            let mut prho = 0.0;
                            let mut prr = 0.0;
                            for e in elems(sg) {
                                st(&x[e], ld(&x[e]) + alpha * ld(&p[e]) + omega * ld(&sv[e]));
                                let rv = ld(&sv[e]) - omega * ld(&th[e]);
                                st(&r[e], rv);
                                prho += rv * r0s[e];
                                prr += rv * rv;
                            }
                            st(&seg_rho[sg], prho);
                            st(&seg_rr[sg], prr);
                        }
                        d_d.fetch_add(1, Ordering::AcqRel);
                        sync.spin_until(d_d, warps_i * (3 * j + 3))?;
                        let rho_new = seg_total(seg_rho);
                        let rr = seg_total(seg_rr);
                        let relres = rr.max(0.0).sqrt() / norm_b;

                        if !rr.is_finite() {
                            // Poisoned residual: abort identically on all
                            // warps (final_relres keeps its last finite
                            // value).
                            events.push(BreakdownEvent {
                                iteration: j as usize,
                                kind: BreakdownKind::NonFinite,
                                action: RecoveryAction::Aborted,
                            });
                            if w == 0 {
                                iterations_done.store(j + 1, Ordering::Release);
                                failure_cell.set(FAIL_NONFINITE, j);
                            }
                            return Ok(());
                        }
                        consecutive_restarts = 0; // x and r advanced

                        // ---- p = r + β(p − ωµ).
                        sync.step(j, 4)?;
                        let beta = (rho_new / rho) * (alpha / omega);
                        let restart =
                            !beta.is_finite() || omega == 0.0 || rho_new.abs() < f64::MIN_POSITIVE;
                        for sg in my_segs.clone() {
                            for e in elems(sg) {
                                let pv = if restart {
                                    ld(&r[e])
                                } else {
                                    ld(&r[e]) + beta * (ld(&p[e]) - omega * ld(&u[e]))
                                };
                                st(&p[e], pv);
                            }
                        }
                        // Sequential restart() semantics: ρ = (r, r0*)
                        // (= rho_new, already computed), falling back to
                        // ‖r‖² when the shadow correlation is (sub)normal
                        // zero — replaces the old `rho_new.max(rr)` hack.
                        rho = if restart && rho_new.abs() < f64::MIN_POSITIVE {
                            rr
                        } else {
                            rho_new
                        };
                        d_a.fetch_add(1, Ordering::AcqRel);
                        sync.spin_until(d_a, warps_i * (j + 1))?;

                        if w == 0 {
                            iterations_done.store(j + 1, Ordering::Release);
                            final_relres_bits.store(relres.to_bits(), Ordering::Release);
                            trail.push(relres);
                        }
                        if relres < tol {
                            if w == 0 {
                                converged_flag.store(1, Ordering::Release);
                            }
                            break;
                        }
                        if restart {
                            events.push(BreakdownEvent {
                                iteration: j as usize,
                                kind: if omega == 0.0 {
                                    BreakdownKind::Omega
                                } else if rho_new.abs() < f64::MIN_POSITIVE {
                                    BreakdownKind::Rho
                                } else {
                                    BreakdownKind::NonFinite
                                },
                                action: RecoveryAction::Restarted,
                            });
                        }
                    }
                    Ok(())
                }));
                let faults = wf.as_ref().map(|f| f.counts()).unwrap_or_default();
                settle_warp(body, poison, events, trail, faults, tracer)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| dead_warp()))
            .collect()
    })
    .expect("threaded BiCGSTAB scope failed");

    finish_report(
        &x,
        warps,
        &iterations_done,
        &converged_flag,
        &final_relres_bits,
        &poison,
        &failure_cell,
        heartbeat.as_ref(),
        BICGSTAB_STEPS,
        plan,
        outs,
    )
}

/// Starting tile index of each tile row (tiles are stored sorted by
/// `(tile_row, tile_col)`), padded to `segments + 1` entries so trailing
/// all-zero tile rows own an empty range. Warp `w` of the preconditioned
/// engines owns exactly the tiles of its tile rows — the owner-computes
/// SpMV needs no atomics and reproduces `TiledMatrix::matvec`'s per-row
/// summation order bitwise at any warp count.
fn tile_row_starts(m: &TiledMatrix, segments: usize) -> Vec<usize> {
    let mut starts = vec![0usize; segments + 1];
    for &tr in &m.tile_rowidx {
        starts[tr as usize + 1] += 1;
    }
    for s in 0..segments {
        starts[s + 1] += starts[s];
    }
    starts
}

/// One warp's rows of a dependency-ordered forward (lower-triangular)
/// substitution: ascending own rows, spinning on [`RowDeps`] for every
/// entry outside the already-completed own range. On a well-formed factor
/// this combines each row's entries in CSR order — bitwise-identical to
/// [`mf_kernels::sptrsv::sptrsv_lower`]. Unlike the sequential kernel,
/// entries *above* the diagonal are not silently ignored but treated as
/// dependencies: a corrupted/cyclic factor therefore wedges the spin loop
/// (and fails as `Wedged` via the watchdog) instead of reading garbage.
#[allow(clippy::too_many_arguments)]
fn warp_sptrsv_lower(
    l: &Csr,
    unit_diag: bool,
    rhs: &[AtomicU64],
    out: &[AtomicU64],
    deps: &RowDeps,
    rows: Range<usize>,
    epoch: i64,
    sync: WarpSync<'_>,
) -> Result<(), i64> {
    let polls0 = sync.tracer.map(|t| t.polls()).unwrap_or(0);
    for r in rows.clone() {
        let mut sum = 0.0;
        let mut diag = if unit_diag { 1.0 } else { 0.0 };
        for (c, v) in l.row(r) {
            if c == r {
                if !unit_diag {
                    diag = v;
                }
                continue;
            }
            if !(rows.start <= c && c < r) {
                sync.spin_until_row(deps.counter(c), epoch)?;
            }
            sum += v * f64::from_bits(out[c].load(Ordering::Acquire));
        }
        let xr = (f64::from_bits(rhs[r].load(Ordering::Acquire)) - sum) / diag;
        out[r].store(xr.to_bits(), Ordering::Release);
        deps.complete(r);
        sync.pulse();
    }
    if let Some(t) = sync.tracer {
        t.record(
            EventKind::RowWait,
            (rows.end - rows.start) as u64,
            t.polls() - polls0,
        );
    }
    Ok(())
}

/// Backward (upper-triangular) counterpart of [`warp_sptrsv_lower`]:
/// descending own rows; sub-diagonal entries are dependencies, not noise.
#[allow(clippy::too_many_arguments)]
fn warp_sptrsv_upper(
    u: &Csr,
    unit_diag: bool,
    rhs: &[AtomicU64],
    out: &[AtomicU64],
    deps: &RowDeps,
    rows: Range<usize>,
    epoch: i64,
    sync: WarpSync<'_>,
) -> Result<(), i64> {
    let polls0 = sync.tracer.map(|t| t.polls()).unwrap_or(0);
    for r in rows.clone().rev() {
        let mut sum = 0.0;
        let mut diag = if unit_diag { 1.0 } else { 0.0 };
        for (c, v) in u.row(r) {
            if c == r {
                if !unit_diag {
                    diag = v;
                }
                continue;
            }
            if !(r < c && c < rows.end) {
                sync.spin_until_row(deps.counter(c), epoch)?;
            }
            sum += v * f64::from_bits(out[c].load(Ordering::Acquire));
        }
        let xr = (f64::from_bits(rhs[r].load(Ordering::Acquire)) - sum) / diag;
        out[r].store(xr.to_bits(), Ordering::Release);
        deps.complete(r);
        sync.pulse();
    }
    if let Some(t) = sync.tracer {
        t.record(
            EventKind::RowWait,
            (rows.end - rows.start) as u64,
            t.polls() - polls0,
        );
    }
    Ok(())
}

/// Runs one threaded `L y = b; U x = y` solve with the default watchdog
/// policy; see [`run_ilu_sptrsv_threaded_full`].
pub fn run_ilu_sptrsv_threaded(
    l: &Csr,
    u: &Csr,
    b: &[f64],
    unit_lower: bool,
    unit_upper: bool,
    seg: usize,
    max_warps: usize,
) -> ThreadedReport {
    run_ilu_sptrsv_threaded_full(
        l,
        u,
        b,
        unit_lower,
        unit_upper,
        seg,
        max_warps,
        WatchdogPolicy::default(),
        &FaultPlan::default(),
    )
}

/// Legacy wall-clock adapter; see [`run_ilu_sptrsv_threaded_full`].
#[allow(clippy::too_many_arguments)]
pub fn run_ilu_sptrsv_threaded_watchdog(
    l: &Csr,
    u: &Csr,
    b: &[f64],
    unit_lower: bool,
    unit_upper: bool,
    seg: usize,
    max_warps: usize,
    watchdog: Option<Duration>,
) -> ThreadedReport {
    run_ilu_sptrsv_threaded_full(
        l,
        u,
        b,
        unit_lower,
        unit_upper,
        seg,
        max_warps,
        WatchdogPolicy::from_wallclock(watchdog),
        &FaultPlan::default(),
    )
}

/// Executes one forward + backward triangular solve pair (`L y = b`, then
/// `U x = y`) with warps cooperating through per-row [`RowDeps`] counters —
/// the standalone harness for the in-kernel SpTRSV protocol used by the
/// preconditioned engines. Rows are segmented in chunks of `seg`
/// (the "tile size") over `max_warps.min(segments)` warps.
///
/// On success the report has `converged = true`, `iterations = 1` and
/// `x` holding the backward-solve result (`final_relres` is not
/// meaningful for a direct solve and is reported as `0`). A dependency
/// cycle (corrupted factor) fails as [`SolveFailure::Wedged`] once
/// the watchdog expires; a panicking warp (e.g. out-of-range column index)
/// fails as [`SolveFailure::WarpPanic`] — never a hang.
#[allow(clippy::too_many_arguments)]
pub fn run_ilu_sptrsv_threaded_full(
    l: &Csr,
    u: &Csr,
    b: &[f64],
    unit_lower: bool,
    unit_upper: bool,
    seg: usize,
    max_warps: usize,
    watchdog: WatchdogPolicy,
    plan: &FaultPlan,
) -> ThreadedReport {
    run_ilu_sptrsv_threaded_traced(
        l,
        u,
        b,
        unit_lower,
        unit_upper,
        seg,
        max_warps,
        watchdog,
        plan,
        &TraceConfig::default(),
    )
}

/// [`run_ilu_sptrsv_threaded_full`] plus an event-trace switch; see
/// [`run_cg_threaded_traced`].
#[allow(clippy::too_many_arguments)]
pub fn run_ilu_sptrsv_threaded_traced(
    l: &Csr,
    u: &Csr,
    b: &[f64],
    unit_lower: bool,
    unit_upper: bool,
    seg: usize,
    max_warps: usize,
    watchdog: WatchdogPolicy,
    plan: &FaultPlan,
    trace: &TraceConfig,
) -> ThreadedReport {
    let trace = *trace;
    let n = l.nrows;
    assert_eq!(l.nrows, l.ncols);
    assert_eq!(u.nrows, u.ncols);
    assert_eq!(u.nrows, n);
    assert_eq!(b.len(), n);
    assert!(seg >= 1);
    assert!(max_warps >= 1);

    let segments = n.div_ceil(seg).max(1);
    let warps = segments.min(max_warps).max(1);
    let seg_lo = segment_bounds(segments, warps);

    let rhs: Vec<AtomicU64> = b.iter().map(|&v| AtomicU64::new(v.to_bits())).collect();
    let y: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let z: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let fwd = RowDeps::new(n);
    let bwd = RowDeps::new(n);
    let done_bar = AtomicI64::new(0);

    let iterations_done = AtomicI64::new(0);
    let converged_flag = AtomicI64::new(0);
    let final_relres_bits = AtomicU64::new(0f64.to_bits());
    let poison = AtomicI64::new(POISON_NONE);
    let failure_cell = FailureCell::new();
    let (deadline, heartbeat) = arm_watchdog(watchdog, warps);
    let hb = heartbeat.as_ref();
    let warps_i = warps as i64;

    let outs: Vec<WarpOut> = crossbeam::scope(|scope| {
        let mut handles = Vec::with_capacity(warps);
        for w in 0..warps {
            let (rhs, y, z) = (&rhs, &y, &z);
            let (fwd, bwd) = (&fwd, &bwd);
            let (seg_lo, done_bar) = (&seg_lo, &done_bar);
            let iterations_done = &iterations_done;
            let converged_flag = &converged_flag;
            let poison = &poison;
            let plan = &*plan;
            handles.push(scope.spawn(move |_| {
                let wf = (!plan.is_empty()).then(|| plan.for_warp(w));
                let tracer = trace
                    .enabled
                    .then(|| WarpTracer::new(w, trace.capacity_per_warp));
                let sync = WarpSync {
                    poison,
                    deadline,
                    heartbeat: hb,
                    faults: wf.as_ref(),
                    tracer: tracer.as_ref(),
                    warp: w,
                };
                let events: Vec<BreakdownEvent> = Vec::new();
                let trail: Vec<f64> = Vec::new();
                let body = catch_unwind(AssertUnwindSafe(|| -> Result<(), i64> {
                    let rows = (seg_lo[w] * seg)..((seg_lo[w + 1] * seg).min(n));
                    sync.iteration_gate()?;
                    sync.step(0, 0)?;
                    warp_sptrsv_lower(l, unit_lower, rhs, y, fwd, rows.clone(), 1, sync)?;
                    sync.step(0, 1)?;
                    warp_sptrsv_upper(u, unit_upper, y, z, bwd, rows, 1, sync)?;
                    // Completion barrier so success is only reported once
                    // every warp finished (a late panic must win).
                    done_bar.fetch_add(1, Ordering::AcqRel);
                    sync.spin_until(done_bar, warps_i)?;
                    if w == 0 {
                        iterations_done.store(1, Ordering::Release);
                        converged_flag.store(1, Ordering::Release);
                    }
                    Ok(())
                }));
                let faults = wf.as_ref().map(|f| f.counts()).unwrap_or_default();
                settle_warp(body, poison, events, trail, faults, tracer)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| dead_warp()))
            .collect()
    })
    .expect("threaded SpTRSV scope failed");

    finish_report(
        &z,
        warps,
        &iterations_done,
        &converged_flag,
        &final_relres_bits,
        &poison,
        &failure_cell,
        heartbeat.as_ref(),
        SPTRSV_STEPS,
        plan,
        outs,
    )
}

/// Runs ILU(0)-preconditioned CG with the default watchdog policy (the
/// progress heartbeat); see [`run_pcg_threaded_full`].
pub fn run_pcg_threaded(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
) -> ThreadedReport {
    run_pcg_threaded_full(
        m,
        ilu,
        b,
        tol,
        max_iter,
        max_warps,
        WatchdogPolicy::default(),
        &FaultPlan::default(),
    )
}

/// Legacy wall-clock adapter; see [`run_pcg_threaded_full`].
#[allow(clippy::too_many_arguments)]
pub fn run_pcg_threaded_watchdog(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: Option<Duration>,
) -> ThreadedReport {
    run_pcg_threaded_full(
        m,
        ilu,
        b,
        tol,
        max_iter,
        max_warps,
        WatchdogPolicy::from_wallclock(watchdog),
        &FaultPlan::default(),
    )
}

/// Runs ILU(0)-preconditioned CG entirely inside the "single kernel":
/// warps cooperate on the forward/backward SpTRSV through per-row
/// [`RowDeps`] epoch counters, busy-waiting on predecessor rows with the
/// poison flag and watchdog polled in every spin (a wedged triangular
/// dependency fails as [`SolveFailure::Wedged`], a panicking warp as
/// [`SolveFailure::WarpPanic`]). Breakdown/restart semantics mirror the
/// sequential `run_pcg` core: non-positive curvature restarts the
/// direction from `p = z`, futile restarts abort as `Stalled`.
///
/// The engine is deterministic *and warp-count invariant by construction*:
/// the SpMV is owner-computes over whole tile rows (no atomic adds, same
/// per-row summation order as [`TiledMatrix::matvec`]), dot products are
/// per-segment single-writer partials reduced in fixed segment order by
/// every warp, and the triangular solves combine each row's entries in
/// CSR order exactly like the sequential kernel. Residual trajectories
/// are therefore bitwise-reproducible across 1..k warps — the property
/// the differential harness in `tests/threaded_parity.rs` locks down.
#[allow(clippy::too_many_arguments)]
pub fn run_pcg_threaded_full(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: WatchdogPolicy,
    plan: &FaultPlan,
) -> ThreadedReport {
    run_pcg_threaded_traced(
        m,
        ilu,
        b,
        tol,
        max_iter,
        max_warps,
        watchdog,
        plan,
        &TraceConfig::default(),
    )
}

/// [`run_pcg_threaded_full`] plus an event-trace switch; see
/// [`run_cg_threaded_traced`]. The in-kernel SpTRSV passes contribute one
/// aggregate `RowWait` event each (rows solved + spin polls burned on
/// row dependencies), not per-row events.
#[allow(clippy::too_many_arguments)]
pub fn run_pcg_threaded_traced(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: WatchdogPolicy,
    plan: &FaultPlan,
    trace: &TraceConfig,
) -> ThreadedReport {
    let trace = *trace;
    let n = m.nrows;
    assert_eq!(b.len(), n);
    assert_eq!(m.nrows, m.ncols);
    assert_eq!(ilu.l.nrows, n);
    assert_eq!(ilu.u.nrows, n);
    assert!(max_warps >= 1);

    let ts = m.tile_size;
    let segments = n.div_ceil(ts).max(1);
    let warps = segments.min(max_warps).max(1);
    let seg_lo = segment_bounds(segments, warps);
    let tr_start = tile_row_starts(m, segments);

    let norm_b: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm_b == 0.0 {
        return trivial_report(n, warps);
    }

    let to_cells =
        |v: &[f64]| -> Vec<AtomicU64> { v.iter().map(|&x| AtomicU64::new(x.to_bits())).collect() };
    let zeros = vec![0.0; n];
    let x = to_cells(&zeros);
    let r = to_cells(b);
    let p = to_cells(&zeros);
    let uv = to_cells(&zeros); // u = A p
    let y = to_cells(&zeros); // forward-solve scratch
    let z = to_cells(&zeros); // preconditioned residual

    let fwd = RowDeps::new(n);
    let bwd = RowDeps::new(n);
    let bar = AtomicI64::new(0);

    // Per-segment single-writer dot partials: warp w stores the partial of
    // each segment it owns; after the barrier every warp reduces segments
    // 0..segments in order, so the totals are identical on every warp and
    // independent of the warp count. One array per dot site — at least one
    // barrier always separates a site's reads from its next writes.
    let mk_seg = || -> Vec<AtomicU64> { (0..segments).map(|_| AtomicU64::new(0)).collect() };
    let seg_pu = mk_seg();
    let seg_rr = mk_seg();
    let seg_rz = mk_seg();
    let seg_rz_bd = mk_seg();

    let iterations_done = AtomicI64::new(0);
    let converged_flag = AtomicI64::new(0);
    let final_relres_bits = AtomicU64::new(f64::INFINITY.to_bits());
    let poison = AtomicI64::new(POISON_NONE);
    let failure_cell = FailureCell::new();
    let (deadline, heartbeat) = arm_watchdog(watchdog, warps);
    let hb = heartbeat.as_ref();
    let warps_i = warps as i64;

    let outs: Vec<WarpOut> = crossbeam::scope(|scope| {
        let mut handles = Vec::with_capacity(warps);
        for w in 0..warps {
            let (x, r, p, uv, y, z) = (&x, &r, &p, &uv, &y, &z);
            let (fwd, bwd, bar) = (&fwd, &bwd, &bar);
            let (seg_pu, seg_rr, seg_rz, seg_rz_bd) = (&seg_pu, &seg_rr, &seg_rz, &seg_rz_bd);
            let (seg_lo, tr_start) = (&seg_lo, &tr_start);
            let iterations_done = &iterations_done;
            let converged_flag = &converged_flag;
            let final_relres_bits = &final_relres_bits;
            let poison = &poison;
            let failure_cell = &failure_cell;
            let plan = &*plan;
            handles.push(scope.spawn(move |_| {
                let wf = (!plan.is_empty()).then(|| plan.for_warp(w));
                let tracer = trace
                    .enabled
                    .then(|| WarpTracer::new(w, trace.capacity_per_warp));
                let sync = WarpSync {
                    poison,
                    deadline,
                    heartbeat: hb,
                    faults: wf.as_ref(),
                    tracer: tracer.as_ref(),
                    warp: w,
                };
                let mut events: Vec<BreakdownEvent> = Vec::new();
                let mut trail: Vec<f64> = Vec::new();
                let body = catch_unwind(AssertUnwindSafe(|| -> Result<(), i64> {
                    let my_segs = seg_lo[w]..seg_lo[w + 1];
                    let elems = |s: usize| (s * ts)..(((s + 1) * ts).min(n));
                    let rows = (seg_lo[w] * ts)..((seg_lo[w + 1] * ts).min(n));
                    let my_tiles = tr_start[seg_lo[w]]..tr_start[seg_lo[w + 1]];
                    let tile_vals: Vec<Vec<f64>> =
                        my_tiles.clone().map(|i| m.decode_tile_values(i)).collect();
                    let mut acc = vec![0.0f64; ts];

                    let ld = |c: &AtomicU64| f64::from_bits(c.load(Ordering::Acquire));
                    let st = |c: &AtomicU64, v: f64| c.store(v.to_bits(), Ordering::Release);
                    let seg_total = |cells: &[AtomicU64]| -> f64 {
                        let mut t = 0.0;
                        for cell in cells.iter() {
                            t += f64::from_bits(cell.load(Ordering::Acquire));
                        }
                        t
                    };
                    let mut bar_epoch = 0i64;
                    let mut barrier = || -> Result<(), i64> {
                        bar_epoch += 1;
                        bar.fetch_add(1, Ordering::AcqRel);
                        sync.spin_until(bar, warps_i * bar_epoch)
                    };
                    // Owner-computes SpMV over my whole tile rows: local
                    // accumulation per segment, one plain store per row —
                    // no atomics, no inter-iteration zeroing.
                    let mut spmv_own = |input: &[AtomicU64], output: &[AtomicU64]| {
                        for s in my_segs.clone() {
                            let base_row = s * ts;
                            let len = ((s + 1) * ts).min(n) - base_row;
                            acc[..len].fill(0.0);
                            for i in tr_start[s]..tr_start[s + 1] {
                                let base_col = m.tile_colidx[i] as usize * ts;
                                let nnz_base = m.tile_nnz[i] as usize;
                                let vals = &tile_vals[i - my_tiles.start];
                                for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
                                    let mut sum = 0.0;
                                    for k in
                                        m.csr_rowptr[ri] as usize..m.csr_rowptr[ri + 1] as usize
                                    {
                                        sum += vals[k - nnz_base]
                                            * f64::from_bits(
                                                input[base_col + m.csr_colidx[k] as usize]
                                                    .load(Ordering::Acquire),
                                            );
                                    }
                                    acc[m.row_index[ri] as usize] += sum;
                                }
                            }
                            for (o, v) in acc[..len].iter().enumerate() {
                                output[base_row + o].store(v.to_bits(), Ordering::Release);
                            }
                            sync.pulse();
                        }
                    };

                    let mut apply_epoch = 0i64;
                    let mut consecutive_restarts = 0usize;

                    // ---- Init: z = M⁻¹ r (r = b), p = z, ρ = (r, z).
                    sync.iteration_gate()?;
                    sync.step(0, 0)?;
                    apply_epoch += 1;
                    warp_sptrsv_lower(&ilu.l, true, r, y, fwd, rows.clone(), apply_epoch, sync)?;
                    warp_sptrsv_upper(&ilu.u, false, y, z, bwd, rows.clone(), apply_epoch, sync)?;
                    for s in my_segs.clone() {
                        let mut part = 0.0;
                        for e in elems(s) {
                            let zv = ld(&z[e]);
                            st(&p[e], zv);
                            part += ld(&r[e]) * zv;
                        }
                        st(&seg_rz[s], part);
                    }
                    barrier()?; // publishes p and the ρ partials
                    let mut rz = seg_total(seg_rz);

                    for j in 0..max_iter as i64 {
                        sync.iteration_gate()?;

                        // ---- u = A p; curvature pᵀ A p.
                        sync.step(j, 1)?;
                        spmv_own(p, uv);
                        for s in my_segs.clone() {
                            let mut part = 0.0;
                            for e in elems(s) {
                                part += ld(&uv[e]) * ld(&p[e]);
                            }
                            st(&seg_pu[s], part);
                        }
                        barrier()?;
                        let pu = seg_total(seg_pu);
                        let alpha = rz / pu;

                        if !alpha.is_finite() || pu <= 0.0 {
                            // ---- Breakdown: restart the direction from the
                            // current residual (p = z, ρ = (r, z)); identical
                            // decision on every warp, barrier counts aligned.
                            let kind = if pu.is_finite() && pu <= 0.0 {
                                BreakdownKind::Curvature
                            } else {
                                BreakdownKind::NonFinite
                            };
                            for s in my_segs.clone() {
                                let mut part = 0.0;
                                for e in elems(s) {
                                    let zv = ld(&z[e]);
                                    st(&p[e], zv);
                                    part += ld(&r[e]) * zv;
                                }
                                st(&seg_rz_bd[s], part);
                            }
                            barrier()?;
                            let rz_restart = seg_total(seg_rz_bd);
                            rz = rz_restart;
                            consecutive_restarts += 1;
                            let abort_nonfinite = !rz_restart.is_finite();
                            let abort_stalled = consecutive_restarts >= MAX_CONSECUTIVE_RESTARTS;
                            let action = if abort_nonfinite || abort_stalled {
                                RecoveryAction::Aborted
                            } else {
                                RecoveryAction::Restarted
                            };
                            events.push(BreakdownEvent {
                                iteration: j as usize,
                                kind,
                                action,
                            });
                            if w == 0 {
                                iterations_done.store(j + 1, Ordering::Release);
                                if abort_nonfinite {
                                    failure_cell.set(FAIL_NONFINITE, j);
                                } else if abort_stalled {
                                    failure_cell.set(FAIL_STALLED, j);
                                }
                            }
                            if abort_nonfinite || abort_stalled {
                                return Ok(());
                            }
                            continue;
                        }

                        // ---- x += αp, r −= αu, ‖r‖² partials.
                        sync.step(j, 2)?;
                        for s in my_segs.clone() {
                            let mut part = 0.0;
                            for e in elems(s) {
                                st(&x[e], ld(&x[e]) + alpha * ld(&p[e]));
                                let rv = ld(&r[e]) - alpha * ld(&uv[e]);
                                st(&r[e], rv);
                                part += rv * rv;
                            }
                            st(&seg_rr[s], part);
                        }
                        barrier()?;
                        let rr = seg_total(seg_rr);
                        if !rr.is_finite() {
                            events.push(BreakdownEvent {
                                iteration: j as usize,
                                kind: BreakdownKind::NonFinite,
                                action: RecoveryAction::Aborted,
                            });
                            if w == 0 {
                                iterations_done.store(j + 1, Ordering::Release);
                                failure_cell.set(FAIL_NONFINITE, j);
                            }
                            return Ok(());
                        }
                        consecutive_restarts = 0;

                        // ---- z = M⁻¹ r (the barrier above published every
                        // segment of r) and ρ' = (r, z).
                        sync.step(j, 3)?;
                        apply_epoch += 1;
                        warp_sptrsv_lower(
                            &ilu.l,
                            true,
                            r,
                            y,
                            fwd,
                            rows.clone(),
                            apply_epoch,
                            sync,
                        )?;
                        warp_sptrsv_upper(
                            &ilu.u,
                            false,
                            y,
                            z,
                            bwd,
                            rows.clone(),
                            apply_epoch,
                            sync,
                        )?;
                        for s in my_segs.clone() {
                            let mut part = 0.0;
                            for e in elems(s) {
                                part += ld(&r[e]) * ld(&z[e]);
                            }
                            st(&seg_rz[s], part);
                        }
                        barrier()?;
                        let rz_new = seg_total(seg_rz);
                        let beta = rz_new / rz;
                        rz = rz_new;

                        // ---- p = z + βp.
                        sync.step(j, 4)?;
                        for s in my_segs.clone() {
                            for e in elems(s) {
                                st(&p[e], ld(&z[e]) + beta * ld(&p[e]));
                            }
                        }
                        let relres = rr.max(0.0).sqrt() / norm_b;
                        if w == 0 {
                            iterations_done.store(j + 1, Ordering::Release);
                            final_relres_bits.store(relres.to_bits(), Ordering::Release);
                            trail.push(relres);
                        }
                        if relres < tol {
                            if w == 0 {
                                converged_flag.store(1, Ordering::Release);
                            }
                            break;
                        }
                        if !beta.is_finite() {
                            events.push(BreakdownEvent {
                                iteration: j as usize,
                                kind: BreakdownKind::NonFinite,
                                action: RecoveryAction::Aborted,
                            });
                            if w == 0 {
                                failure_cell.set(FAIL_NONFINITE, j);
                            }
                            return Ok(());
                        }
                        barrier()?; // publishes p for the next SpMV
                    }
                    Ok(())
                }));
                let faults = wf.as_ref().map(|f| f.counts()).unwrap_or_default();
                settle_warp(body, poison, events, trail, faults, tracer)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| dead_warp()))
            .collect()
    })
    .expect("threaded PCG scope failed");

    finish_report(
        &x,
        warps,
        &iterations_done,
        &converged_flag,
        &final_relres_bits,
        &poison,
        &failure_cell,
        heartbeat.as_ref(),
        PCG_STEPS,
        plan,
        outs,
    )
}

/// Runs ILU(0)-preconditioned BiCGSTAB with the default watchdog policy
/// (the progress heartbeat); see [`run_pbicgstab_threaded_full`].
pub fn run_pbicgstab_threaded(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
) -> ThreadedReport {
    run_pbicgstab_threaded_full(
        m,
        ilu,
        b,
        tol,
        max_iter,
        max_warps,
        WatchdogPolicy::default(),
        &FaultPlan::default(),
    )
}

/// Legacy wall-clock adapter; see [`run_pbicgstab_threaded_full`].
#[allow(clippy::too_many_arguments)]
pub fn run_pbicgstab_threaded_watchdog(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: Option<Duration>,
) -> ThreadedReport {
    run_pbicgstab_threaded_full(
        m,
        ilu,
        b,
        tol,
        max_iter,
        max_warps,
        WatchdogPolicy::from_wallclock(watchdog),
        &FaultPlan::default(),
    )
}

/// Right-preconditioned BiCGSTAB inside the single kernel: two in-kernel
/// SpTRSV applications (`p̂ = M⁻¹p`, `ŝ = M⁻¹s`) and two owner-computes
/// SpMVs per iteration, five barriers on the normal path. Same
/// determinism, dependency-counter, poison and watchdog story as
/// [`run_pcg_threaded_full`]; breakdown/restart semantics mirror the
/// sequential `run_pbicgstab` core (ρ/ω restarts, `Stalled` abort after
/// futile restarts).
#[allow(clippy::too_many_arguments)]
pub fn run_pbicgstab_threaded_full(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: WatchdogPolicy,
    plan: &FaultPlan,
) -> ThreadedReport {
    run_pbicgstab_threaded_traced(
        m,
        ilu,
        b,
        tol,
        max_iter,
        max_warps,
        watchdog,
        plan,
        &TraceConfig::default(),
    )
}

/// [`run_pbicgstab_threaded_full`] plus an event-trace switch; see
/// [`run_pcg_threaded_traced`].
#[allow(clippy::too_many_arguments)]
pub fn run_pbicgstab_threaded_traced(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: WatchdogPolicy,
    plan: &FaultPlan,
    trace: &TraceConfig,
) -> ThreadedReport {
    let trace = *trace;
    let n = m.nrows;
    assert_eq!(b.len(), n);
    assert_eq!(m.nrows, m.ncols);
    assert_eq!(ilu.l.nrows, n);
    assert_eq!(ilu.u.nrows, n);
    assert!(max_warps >= 1);

    let ts = m.tile_size;
    let segments = n.div_ceil(ts).max(1);
    let warps = segments.min(max_warps).max(1);
    let seg_lo = segment_bounds(segments, warps);
    let tr_start = tile_row_starts(m, segments);

    let norm_b: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm_b == 0.0 {
        return trivial_report(n, warps);
    }

    let to_cells =
        |v: &[f64]| -> Vec<AtomicU64> { v.iter().map(|&x| AtomicU64::new(x.to_bits())).collect() };
    let zeros = vec![0.0; n];
    let x = to_cells(&zeros);
    let r = to_cells(b);
    let p = to_cells(b);
    let phat = to_cells(&zeros); // p̂ = M⁻¹ p
    let v = to_cells(&zeros); // v = A p̂
    let sv = to_cells(&zeros); // s
    let shat = to_cells(&zeros); // ŝ = M⁻¹ s
    let tv = to_cells(&zeros); // t = A ŝ
    let y = to_cells(&zeros); // forward-solve scratch
    let r0s: Vec<f64> = b.to_vec(); // shadow residual, immutable

    let fwd = RowDeps::new(n);
    let bwd = RowDeps::new(n);
    let bar = AtomicI64::new(0);

    let mk_seg = || -> Vec<AtomicU64> { (0..segments).map(|_| AtomicU64::new(0)).collect() };
    let seg_denom = mk_seg();
    let seg_ts = mk_seg();
    let seg_tt = mk_seg();
    let seg_rho = mk_seg();
    let seg_rr = mk_seg();
    let seg_rho_bd = mk_seg();
    let seg_rr_bd = mk_seg();

    let rho0: f64 = b.iter().zip(&r0s).map(|(a, b)| a * b).sum();
    let iterations_done = AtomicI64::new(0);
    let converged_flag = AtomicI64::new(0);
    let final_relres_bits = AtomicU64::new(f64::INFINITY.to_bits());
    let poison = AtomicI64::new(POISON_NONE);
    let failure_cell = FailureCell::new();
    let (deadline, heartbeat) = arm_watchdog(watchdog, warps);
    let hb = heartbeat.as_ref();
    let warps_i = warps as i64;

    let outs: Vec<WarpOut> = crossbeam::scope(|scope| {
        let mut handles = Vec::with_capacity(warps);
        for w in 0..warps {
            let (x, r, p, phat, v, sv, shat, tv, y) = (&x, &r, &p, &phat, &v, &sv, &shat, &tv, &y);
            let (fwd, bwd, bar) = (&fwd, &bwd, &bar);
            let (seg_denom, seg_ts, seg_tt) = (&seg_denom, &seg_ts, &seg_tt);
            let (seg_rho, seg_rr, seg_rho_bd, seg_rr_bd) =
                (&seg_rho, &seg_rr, &seg_rho_bd, &seg_rr_bd);
            let (seg_lo, tr_start, r0s) = (&seg_lo, &tr_start, &r0s);
            let iterations_done = &iterations_done;
            let converged_flag = &converged_flag;
            let final_relres_bits = &final_relres_bits;
            let poison = &poison;
            let failure_cell = &failure_cell;
            let plan = &*plan;
            handles.push(scope.spawn(move |_| {
                let wf = (!plan.is_empty()).then(|| plan.for_warp(w));
                let tracer = trace
                    .enabled
                    .then(|| WarpTracer::new(w, trace.capacity_per_warp));
                let sync = WarpSync {
                    poison,
                    deadline,
                    heartbeat: hb,
                    faults: wf.as_ref(),
                    tracer: tracer.as_ref(),
                    warp: w,
                };
                let mut events: Vec<BreakdownEvent> = Vec::new();
                let mut trail: Vec<f64> = Vec::new();
                let body = catch_unwind(AssertUnwindSafe(|| -> Result<(), i64> {
                    let my_segs = seg_lo[w]..seg_lo[w + 1];
                    let elems = |s: usize| (s * ts)..(((s + 1) * ts).min(n));
                    let rows = (seg_lo[w] * ts)..((seg_lo[w + 1] * ts).min(n));
                    let my_tiles = tr_start[seg_lo[w]]..tr_start[seg_lo[w + 1]];
                    let tile_vals: Vec<Vec<f64>> =
                        my_tiles.clone().map(|i| m.decode_tile_values(i)).collect();
                    let mut acc = vec![0.0f64; ts];

                    let ld = |c: &AtomicU64| f64::from_bits(c.load(Ordering::Acquire));
                    let st = |c: &AtomicU64, v: f64| c.store(v.to_bits(), Ordering::Release);
                    let seg_total = |cells: &[AtomicU64]| -> f64 {
                        let mut t = 0.0;
                        for cell in cells.iter() {
                            t += f64::from_bits(cell.load(Ordering::Acquire));
                        }
                        t
                    };
                    let mut bar_epoch = 0i64;
                    let mut barrier = || -> Result<(), i64> {
                        bar_epoch += 1;
                        bar.fetch_add(1, Ordering::AcqRel);
                        sync.spin_until(bar, warps_i * bar_epoch)
                    };
                    let mut spmv_own = |input: &[AtomicU64], output: &[AtomicU64]| {
                        for s in my_segs.clone() {
                            let base_row = s * ts;
                            let len = ((s + 1) * ts).min(n) - base_row;
                            acc[..len].fill(0.0);
                            for i in tr_start[s]..tr_start[s + 1] {
                                let base_col = m.tile_colidx[i] as usize * ts;
                                let nnz_base = m.tile_nnz[i] as usize;
                                let vals = &tile_vals[i - my_tiles.start];
                                for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
                                    let mut sum = 0.0;
                                    for k in
                                        m.csr_rowptr[ri] as usize..m.csr_rowptr[ri + 1] as usize
                                    {
                                        sum += vals[k - nnz_base]
                                            * f64::from_bits(
                                                input[base_col + m.csr_colidx[k] as usize]
                                                    .load(Ordering::Acquire),
                                            );
                                    }
                                    acc[m.row_index[ri] as usize] += sum;
                                }
                            }
                            for (o, val) in acc[..len].iter().enumerate() {
                                output[base_row + o].store(val.to_bits(), Ordering::Release);
                            }
                            sync.pulse();
                        }
                    };

                    let mut apply_epoch = 0i64;
                    let mut rho = rho0;
                    let mut consecutive_restarts = 0usize;

                    for j in 0..max_iter as i64 {
                        sync.iteration_gate()?;

                        // ---- p̂ = M⁻¹ p (own rows of p feed the forward
                        // solve; cross-warp flow is through the counters).
                        sync.step(j, 0)?;
                        apply_epoch += 1;
                        warp_sptrsv_lower(
                            &ilu.l,
                            true,
                            p,
                            y,
                            fwd,
                            rows.clone(),
                            apply_epoch,
                            sync,
                        )?;
                        warp_sptrsv_upper(
                            &ilu.u,
                            false,
                            y,
                            phat,
                            bwd,
                            rows.clone(),
                            apply_epoch,
                            sync,
                        )?;
                        barrier()?; // p̂ published for the SpMV

                        // ---- v = A p̂; denom = (v, r0*).
                        sync.step(j, 1)?;
                        spmv_own(phat, v);
                        for s in my_segs.clone() {
                            let mut part = 0.0;
                            for e in elems(s) {
                                part += ld(&v[e]) * r0s[e];
                            }
                            st(&seg_denom[s], part);
                        }
                        barrier()?;
                        let denom = seg_total(seg_denom);
                        let alpha = rho / denom;

                        if !alpha.is_finite() || denom.abs() < f64::MIN_POSITIVE {
                            // ---- α breakdown: restart with p = r and
                            // ρ = (r, r0*) (‖r‖² fallback), as sequential.
                            let kind = if !alpha.is_finite() {
                                BreakdownKind::NonFinite
                            } else {
                                BreakdownKind::Rho
                            };
                            for s in my_segs.clone() {
                                let mut prho = 0.0;
                                let mut prr = 0.0;
                                for e in elems(s) {
                                    let rv = ld(&r[e]);
                                    st(&p[e], rv);
                                    prho += rv * r0s[e];
                                    prr += rv * rv;
                                }
                                st(&seg_rho_bd[s], prho);
                                st(&seg_rr_bd[s], prr);
                            }
                            barrier()?;
                            let mut rho_restart = seg_total(seg_rho_bd);
                            let rrv = seg_total(seg_rr_bd);
                            if rho_restart.abs() < f64::MIN_POSITIVE {
                                rho_restart = rrv;
                            }
                            rho = rho_restart;
                            consecutive_restarts += 1;
                            let abort_nonfinite = !rho_restart.is_finite() || !rrv.is_finite();
                            let abort_stalled = consecutive_restarts >= MAX_CONSECUTIVE_RESTARTS;
                            let action = if abort_nonfinite || abort_stalled {
                                RecoveryAction::Aborted
                            } else {
                                RecoveryAction::Restarted
                            };
                            events.push(BreakdownEvent {
                                iteration: j as usize,
                                kind,
                                action,
                            });
                            if w == 0 {
                                iterations_done.store(j + 1, Ordering::Release);
                                let relres = rrv.max(0.0).sqrt() / norm_b;
                                if relres.is_finite() {
                                    final_relres_bits.store(relres.to_bits(), Ordering::Release);
                                }
                                if abort_nonfinite {
                                    failure_cell.set(FAIL_NONFINITE, j);
                                } else if abort_stalled {
                                    failure_cell.set(FAIL_STALLED, j);
                                }
                            }
                            if abort_nonfinite || abort_stalled {
                                return Ok(());
                            }
                            continue;
                        }

                        // ---- s = r − αv; ŝ = M⁻¹ s.
                        sync.step(j, 2)?;
                        for s in my_segs.clone() {
                            for e in elems(s) {
                                st(&sv[e], ld(&r[e]) - alpha * ld(&v[e]));
                            }
                        }
                        apply_epoch += 1;
                        warp_sptrsv_lower(
                            &ilu.l,
                            true,
                            sv,
                            y,
                            fwd,
                            rows.clone(),
                            apply_epoch,
                            sync,
                        )?;
                        warp_sptrsv_upper(
                            &ilu.u,
                            false,
                            y,
                            shat,
                            bwd,
                            rows.clone(),
                            apply_epoch,
                            sync,
                        )?;
                        barrier()?; // ŝ published for the SpMV

                        // ---- t = A ŝ; (t, s) and (t, t).
                        sync.step(j, 3)?;
                        spmv_own(shat, tv);
                        for s in my_segs.clone() {
                            let mut pts = 0.0;
                            let mut ptt = 0.0;
                            for e in elems(s) {
                                let t = ld(&tv[e]);
                                pts += t * ld(&sv[e]);
                                ptt += t * t;
                            }
                            st(&seg_ts[s], pts);
                            st(&seg_tt[s], ptt);
                        }
                        barrier()?;
                        let tt = seg_total(seg_tt);
                        let omega = if tt > 0.0 {
                            seg_total(seg_ts) / tt
                        } else {
                            0.0
                        };

                        // ---- x += αp̂ + ωŝ; r = s − ωt; ρ', ‖r‖² partials.
                        sync.step(j, 4)?;
                        for s in my_segs.clone() {
                            let mut prho = 0.0;
                            let mut prr = 0.0;
                            for e in elems(s) {
                                st(
                                    &x[e],
                                    ld(&x[e]) + alpha * ld(&phat[e]) + omega * ld(&shat[e]),
                                );
                                let rv = ld(&sv[e]) - omega * ld(&tv[e]);
                                st(&r[e], rv);
                                prho += rv * r0s[e];
                                prr += rv * rv;
                            }
                            st(&seg_rho[s], prho);
                            st(&seg_rr[s], prr);
                        }
                        barrier()?;
                        let rho_new = seg_total(seg_rho);
                        let rrv = seg_total(seg_rr);
                        let relres = rrv.max(0.0).sqrt() / norm_b;

                        if !rrv.is_finite() {
                            events.push(BreakdownEvent {
                                iteration: j as usize,
                                kind: BreakdownKind::NonFinite,
                                action: RecoveryAction::Aborted,
                            });
                            if w == 0 {
                                iterations_done.store(j + 1, Ordering::Release);
                                failure_cell.set(FAIL_NONFINITE, j);
                            }
                            return Ok(());
                        }
                        consecutive_restarts = 0;

                        // ---- p = r + β(p − ωv) (or restart p = r).
                        let beta = (rho_new / rho) * (alpha / omega);
                        let restart =
                            !beta.is_finite() || omega == 0.0 || rho_new.abs() < f64::MIN_POSITIVE;
                        for s in my_segs.clone() {
                            for e in elems(s) {
                                let pv = if restart {
                                    ld(&r[e])
                                } else {
                                    ld(&r[e]) + beta * (ld(&p[e]) - omega * ld(&v[e]))
                                };
                                st(&p[e], pv);
                            }
                        }
                        rho = if restart && rho_new.abs() < f64::MIN_POSITIVE {
                            rrv
                        } else {
                            rho_new
                        };
                        if w == 0 {
                            iterations_done.store(j + 1, Ordering::Release);
                            final_relres_bits.store(relres.to_bits(), Ordering::Release);
                            trail.push(relres);
                        }
                        if relres < tol {
                            if w == 0 {
                                converged_flag.store(1, Ordering::Release);
                            }
                            break;
                        }
                        if restart {
                            events.push(BreakdownEvent {
                                iteration: j as usize,
                                kind: if omega == 0.0 {
                                    BreakdownKind::Omega
                                } else if rho_new.abs() < f64::MIN_POSITIVE {
                                    BreakdownKind::Rho
                                } else {
                                    BreakdownKind::NonFinite
                                },
                                action: RecoveryAction::Restarted,
                            });
                        }
                    }
                    Ok(())
                }));
                let faults = wf.as_ref().map(|f| f.counts()).unwrap_or_default();
                settle_warp(body, poison, events, trail, faults, tracer)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| dead_warp()))
            .collect()
    })
    .expect("threaded PBiCGSTAB scope failed");

    finish_report(
        &x,
        warps,
        &iterations_done,
        &converged_flag,
        &final_relres_bits,
        &poison,
        &failure_cell,
        heartbeat.as_ref(),
        PBICGSTAB_STEPS,
        plan,
        outs,
    )
}

// ---- Pipelined engines -----------------------------------------------------
//
// The classic threaded CG passes four synchronization epochs per iteration
// (the per-segment `d_s` waits, two `d_d` dot barriers, one `d_a` vector
// barrier). The pipelined recurrence (see `crate::pipelined`) removes the
// dependency of the SpMV on the current reduction, which lets the whole
// iteration collapse onto ONE global barrier:
//
// * the SpMV is owner-computes over whole tile rows (as in the classic PCG
//   engine), so there is no producer/consumer `d_s` hand-off at all;
// * `w` — the only vector another warp ever reads — is double-buffered, and
//   the fused six-vector update writes the *other* slot, so the SpMV of a
//   slow warp can still be reading the published slot while a fast warp is
//   already one step ahead;
// * the dot-partial arrays are double-buffered the same way, and both
//   parities flip only on a *successful* update (a deterministic decision,
//   identical on every warp), so a breakdown iteration simply re-reads the
//   same slots — restart needs no copies, exactly like the sequential core.
//
// The pipelined PCG keeps two barriers: `m = M⁻¹w` must be published before
// the SpMV `n = A·m` reads it cross-warp. Everything else (`w`, `u`, and
// the six recurrence vectors) is only ever touched by its segment owner,
// so the second classic publish barrier and both extra dot barriers
// disappear. Determinism and warp-count invariance hold for the same
// reasons as the classic engines: owner-computes SpMV in global tile
// order, per-segment single-writer dot partials reduced in fixed segment
// order, and SpTRSV rows combined in CSR order.

/// Runs pipelined CG with the default watchdog policy; see
/// [`run_cg_pipelined_threaded_full`].
pub fn run_cg_pipelined_threaded(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
) -> ThreadedReport {
    run_cg_pipelined_threaded_full(
        m,
        b,
        tol,
        max_iter,
        max_warps,
        WatchdogPolicy::default(),
        &FaultPlan::default(),
    )
}

/// Legacy wall-clock adapter; see [`run_cg_pipelined_threaded_full`].
pub fn run_cg_pipelined_threaded_watchdog(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: Option<Duration>,
) -> ThreadedReport {
    run_cg_pipelined_threaded_full(
        m,
        b,
        tol,
        max_iter,
        max_warps,
        WatchdogPolicy::from_wallclock(watchdog),
        &FaultPlan::default(),
    )
}

/// Runs Ghysels–Vanroose pipelined CG inside the single kernel with ONE
/// global barrier per iteration (the classic engine passes four wait sites;
/// see the module-section comment above for how the collapse works).
/// Breakdown/restart semantics mirror [`crate::pipelined::run_cg_pipelined_ws`]:
/// the restart is a flag flip (β = 0 rebuilds the direction state on the
/// next iteration), futile restarts abort as `Stalled`, and a non-finite γ
/// aborts as `NonFinite` — all decided from the shared reduction, so every
/// warp takes the identical branch and the barrier epochs stay aligned.
#[allow(clippy::too_many_arguments)]
pub fn run_cg_pipelined_threaded_full(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: WatchdogPolicy,
    plan: &FaultPlan,
) -> ThreadedReport {
    run_cg_pipelined_threaded_traced(
        m,
        b,
        tol,
        max_iter,
        max_warps,
        watchdog,
        plan,
        &TraceConfig::default(),
    )
}

/// [`run_cg_pipelined_threaded_full`] plus an event-trace switch; see
/// [`run_cg_threaded_traced`].
#[allow(clippy::too_many_arguments)]
pub fn run_cg_pipelined_threaded_traced(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: WatchdogPolicy,
    plan: &FaultPlan,
    trace: &TraceConfig,
) -> ThreadedReport {
    run_cg_pipelined_threaded_adaptive(m, b, tol, max_iter, max_warps, watchdog, plan, trace, None)
}

/// [`run_cg_pipelined_threaded_traced`] plus the adaptive precision
/// controller v2 (`None` is bitwise inert); see
/// [`run_cg_threaded_adaptive`] for the replication argument. A refresh
/// pass here costs two global barriers: one publishing the rebuilt true
/// residual `r = b − A·x`, one publishing the reseeded recurrence
/// (`w = A·r` into the *current* parity slot plus its (γ, δ) partials),
/// after which `fresh = true` restarts the direction stack exactly like a
/// flag-only breakdown restart. The parities do not flip (`k` does not
/// advance), and refresh passes are not counted as iterations.
#[allow(clippy::too_many_arguments)]
pub fn run_cg_pipelined_threaded_adaptive(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: WatchdogPolicy,
    plan: &FaultPlan,
    trace: &TraceConfig,
    adaptive: Option<AdaptiveConfig>,
) -> ThreadedReport {
    let trace = *trace;
    let n = m.nrows;
    assert_eq!(b.len(), n);
    assert_eq!(m.nrows, m.ncols);
    assert!(max_warps >= 1);

    let ts = m.tile_size;
    let segments = n.div_ceil(ts).max(1);
    let warps = segments.min(max_warps).max(1);
    let seg_lo = segment_bounds(segments, warps);
    let tr_start = tile_row_starts(m, segments);

    let norm_b: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm_b == 0.0 {
        return trivial_report(n, warps);
    }

    let to_cells =
        |v: &[f64]| -> Vec<AtomicU64> { v.iter().map(|&x| AtomicU64::new(x.to_bits())).collect() };
    let zeros = vec![0.0; n];
    let x = to_cells(&zeros);
    let r = to_cells(b);
    let p = to_cells(&zeros);
    let s = to_cells(&zeros); // s = A·p (recurrence)
    let z = to_cells(&zeros); // z = A·s (recurrence)
    let q = to_cells(&zeros); // q = A·w (per-iteration SpMV output)
                              // w = A·r, double-buffered: slot k%2 is the published input of the
                              // current iteration, the fused update writes slot (k+1)%2 (k counts
                              // successful updates, so a breakdown iteration re-reads the same slot).
    let wbuf = [to_cells(&zeros), to_cells(&zeros)];

    let bar = AtomicI64::new(0);
    // Dot-partial arrays, double-buffered on the same parity as `w`.
    let mk_seg = || -> Vec<AtomicU64> { (0..segments).map(|_| AtomicU64::new(0)).collect() };
    let seg_gamma = [mk_seg(), mk_seg()];
    let seg_delta = [mk_seg(), mk_seg()];

    let iterations_done = AtomicI64::new(0);
    let converged_flag = AtomicI64::new(0);
    let final_relres_bits = AtomicU64::new(f64::INFINITY.to_bits());
    let poison = AtomicI64::new(POISON_NONE);
    let failure_cell = FailureCell::new();
    let (deadline, heartbeat) = arm_watchdog(watchdog, warps);
    let hb = heartbeat.as_ref();
    let warps_i = warps as i64;

    // Warp 0's applied-plan trail; uncontended (single writer) and read
    // only after the scope joins.
    let retier_out: std::sync::Mutex<Vec<RetierDecision>> = std::sync::Mutex::new(Vec::new());

    let outs: Vec<WarpOut> = crossbeam::scope(|scope| {
        let mut handles = Vec::with_capacity(warps);
        for w in 0..warps {
            let (x, r, p, s, z, q) = (&x, &r, &p, &s, &z, &q);
            let retier_out = &retier_out;
            let (wbuf, bar) = (&wbuf, &bar);
            let (seg_gamma, seg_delta) = (&seg_gamma, &seg_delta);
            let (seg_lo, tr_start) = (&seg_lo, &tr_start);
            let iterations_done = &iterations_done;
            let converged_flag = &converged_flag;
            let final_relres_bits = &final_relres_bits;
            let poison = &poison;
            let failure_cell = &failure_cell;
            let plan = &*plan;
            handles.push(scope.spawn(move |_| {
                let wf = (!plan.is_empty()).then(|| plan.for_warp(w));
                let tracer = trace
                    .enabled
                    .then(|| WarpTracer::new(w, trace.capacity_per_warp));
                let sync = WarpSync {
                    poison,
                    deadline,
                    heartbeat: hb,
                    faults: wf.as_ref(),
                    tracer: tracer.as_ref(),
                    warp: w,
                };
                let mut events: Vec<BreakdownEvent> = Vec::new();
                let mut trail: Vec<f64> = Vec::new();
                let body = catch_unwind(AssertUnwindSafe(|| -> Result<(), i64> {
                    let my_segs = seg_lo[w]..seg_lo[w + 1];
                    let elems = |sg: usize| (sg * ts)..(((sg + 1) * ts).min(n));
                    let my_tiles = tr_start[seg_lo[w]]..tr_start[seg_lo[w + 1]];
                    // Mutable only for adaptive re-tier refresh passes; the
                    // SpMV closure takes the decoded tiles as a parameter so
                    // a refresh can requantize between calls.
                    let mut tile_vals: Vec<Vec<f64>> =
                        my_tiles.clone().map(|i| m.decode_tile_values(i)).collect();
                    let mut acc = vec![0.0f64; ts];

                    let ld = |c: &AtomicU64| f64::from_bits(c.load(Ordering::Acquire));
                    let st = |c: &AtomicU64, v: f64| c.store(v.to_bits(), Ordering::Release);
                    let seg_total = |cells: &[AtomicU64]| -> f64 {
                        let mut t = 0.0;
                        for cell in cells.iter() {
                            t += f64::from_bits(cell.load(Ordering::Acquire));
                        }
                        t
                    };
                    let mut bar_epoch = 0i64;
                    let mut barrier = || -> Result<(), i64> {
                        bar_epoch += 1;
                        bar.fetch_add(1, Ordering::AcqRel);
                        sync.spin_until(bar, warps_i * bar_epoch)
                    };
                    // Owner-computes SpMV over my whole tile rows (see
                    // run_pcg_threaded_traced).
                    let mut spmv_own =
                        |tile_vals: &[Vec<f64>], input: &[AtomicU64], output: &[AtomicU64]| {
                            for sg in my_segs.clone() {
                                let base_row = sg * ts;
                                let len = ((sg + 1) * ts).min(n) - base_row;
                                acc[..len].fill(0.0);
                                for i in tr_start[sg]..tr_start[sg + 1] {
                                    let base_col = m.tile_colidx[i] as usize * ts;
                                    let nnz_base = m.tile_nnz[i] as usize;
                                    let vals = &tile_vals[i - my_tiles.start];
                                    for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
                                        let mut sum = 0.0;
                                        for k in
                                            m.csr_rowptr[ri] as usize..m.csr_rowptr[ri + 1] as usize
                                        {
                                            sum += vals[k - nnz_base]
                                                * f64::from_bits(
                                                    input[base_col + m.csr_colidx[k] as usize]
                                                        .load(Ordering::Acquire),
                                                );
                                        }
                                        acc[m.row_index[ri] as usize] += sum;
                                    }
                                }
                                for (o, v) in acc[..len].iter().enumerate() {
                                    output[base_row + o].store(v.to_bits(), Ordering::Release);
                                }
                                sync.pulse();
                            }
                        };

                    // ---- Init: w = A·r (r = b), γ₀ = (r,r), δ₀ = (w,r).
                    sync.iteration_gate()?;
                    sync.step(0, 0)?;
                    spmv_own(&tile_vals, r, &wbuf[0]);
                    for sg in my_segs.clone() {
                        let mut pg = 0.0;
                        let mut pd = 0.0;
                        for e in elems(sg) {
                            let rv = ld(&r[e]);
                            pg += rv * rv;
                            pd += ld(&wbuf[0][e]) * rv;
                        }
                        st(&seg_gamma[0][sg], pg);
                        st(&seg_delta[0][sg], pd);
                    }
                    barrier()?; // publishes w and the (γ₀, δ₀) partials

                    let mut k = 0usize; // successful updates completed
                    let mut gamma_old = 1.0f64;
                    let mut alpha_old = 1.0f64;
                    let mut fresh = true;
                    let mut consecutive_restarts = 0usize;

                    // Replicated controller: identical census + identical
                    // observed residuals ⇒ identical plans on every warp.
                    let mut ctrl = adaptive.map(|ac| crate::adaptive::controller_for(m, ac));
                    let mut pending: Option<RetierDecision> = None;
                    let mut iters_completed: i64 = 0;
                    let mut j: i64 = -1;
                    loop {
                        j += 1;
                        if iters_completed >= max_iter as i64 {
                            break;
                        }
                        sync.iteration_gate()?;
                        let it = iters_completed;
                        let s_in = k % 2;
                        let s_out = (k + 1) % 2;

                        if let Some(d) = pending.take() {
                            // ---- Re-tier refresh pass (slot `j`, not an
                            // iteration): requantize my resident tiles from
                            // a fresh decode, rebuild the true residual
                            // r = b − A·x (barrier publishes r), reseed
                            // w = A·r into the *current* parity slot with
                            // its (γ, δ) partials (barrier publishes them),
                            // then restart the direction stack fresh.
                            sync.step(j, 1)?;
                            for i in my_tiles.clone() {
                                if let Some(a) = d.actions.iter().find(|a| a.tile as usize == i) {
                                    let mut vals = m.decode_tile_values(i);
                                    a.to.quantize_slice(&mut vals);
                                    tile_vals[i - my_tiles.start] = vals;
                                }
                            }
                            spmv_own(&tile_vals, x, q);
                            for sg in my_segs.clone() {
                                for e in elems(sg) {
                                    st(&r[e], b[e] - ld(&q[e]));
                                }
                            }
                            barrier()?; // publishes the rebuilt r
                            sync.step(j, 3)?;
                            spmv_own(&tile_vals, r, &wbuf[s_in]);
                            for sg in my_segs.clone() {
                                let mut pg = 0.0;
                                let mut pd = 0.0;
                                for e in elems(sg) {
                                    let rv = ld(&r[e]);
                                    pg += rv * rv;
                                    pd += ld(&wbuf[s_in][e]) * rv;
                                }
                                st(&seg_gamma[s_in][sg], pg);
                                st(&seg_delta[s_in][sg], pd);
                            }
                            barrier()?; // publishes w and the (γ, δ) partials
                            fresh = true;
                            if w == 0 {
                                if let Some(t) = sync.tracer {
                                    let (pa, pb) = crate::adaptive::retier_trace_payload(&d);
                                    t.record(EventKind::Retier, pa, pb);
                                }
                                if let Ok(mut g) = retier_out.lock() {
                                    g.push(d);
                                }
                            }
                            continue;
                        }

                        // ---- q = A·w: reads the slot the last barrier
                        // published; never races the updates, which write
                        // the other slot.
                        sync.step(j, 1)?;
                        spmv_own(&tile_vals, &wbuf[s_in], q);

                        // ---- Scalars from the published reduction —
                        // identical on every warp (fixed segment order).
                        sync.step(j, 2)?;
                        let gamma = seg_total(&seg_gamma[s_in]);
                        let delta = seg_total(&seg_delta[s_in]);
                        let (beta, alpha, denom) =
                            pipeline_scalars(fresh, gamma, gamma_old, delta, alpha_old);
                        if let Some(kind) = breakdown_kind(alpha, denom) {
                            // Flag-only restart: β = 0 next iteration
                            // rebuilds p, s, z wholesale; the parities do
                            // not flip, so the same (γ, δ) and the same w
                            // slot are re-read. One barrier keeps the epoch
                            // count aligned with the normal path.
                            fresh = true;
                            barrier()?;
                            consecutive_restarts += 1;
                            let abort_nonfinite = !gamma.is_finite();
                            let abort_stalled = consecutive_restarts >= MAX_CONSECUTIVE_RESTARTS;
                            let action = if abort_nonfinite || abort_stalled {
                                RecoveryAction::Aborted
                            } else {
                                RecoveryAction::Restarted
                            };
                            events.push(BreakdownEvent {
                                iteration: it as usize,
                                kind,
                                action,
                            });
                            iters_completed = it + 1;
                            if w == 0 {
                                iterations_done.store(it + 1, Ordering::Release);
                                let relres = gamma.max(0.0).sqrt() / norm_b;
                                if relres.is_finite() {
                                    final_relres_bits.store(relres.to_bits(), Ordering::Release);
                                }
                                if abort_nonfinite {
                                    failure_cell.set(FAIL_NONFINITE, it);
                                } else if abort_stalled {
                                    failure_cell.set(FAIL_STALLED, it);
                                }
                            }
                            if abort_nonfinite || abort_stalled {
                                return Ok(());
                            }
                            continue;
                        }
                        consecutive_restarts = 0;

                        // ---- Fused six-vector update + next dot partials
                        // (elementwise order matches blas1::cg_pipelined_update
                        // exactly, so the drift envelope is shared).
                        sync.step(j, 3)?;
                        for sg in my_segs.clone() {
                            let mut pg = 0.0;
                            let mut pd = 0.0;
                            for e in elems(sg) {
                                let wv = ld(&wbuf[s_in][e]);
                                let qv = ld(&q[e]);
                                let pv = ld(&r[e]) + beta * ld(&p[e]);
                                st(&p[e], pv);
                                let sv = wv + beta * ld(&s[e]);
                                st(&s[e], sv);
                                let zv = qv + beta * ld(&z[e]);
                                st(&z[e], zv);
                                st(&x[e], ld(&x[e]) + alpha * pv);
                                let rv = ld(&r[e]) - alpha * sv;
                                st(&r[e], rv);
                                let wn = wv - alpha * zv;
                                st(&wbuf[s_out][e], wn);
                                pg += rv * rv;
                                pd += wn * rv;
                            }
                            st(&seg_gamma[s_out][sg], pg);
                            st(&seg_delta[s_out][sg], pd);
                        }
                        barrier()?; // THE barrier: publishes w' + (γ', δ')

                        k += 1;
                        gamma_old = gamma;
                        alpha_old = alpha;
                        fresh = false;

                        let gamma_new = seg_total(&seg_gamma[s_out]);
                        if !gamma_new.is_finite() {
                            events.push(BreakdownEvent {
                                iteration: it as usize,
                                kind: BreakdownKind::NonFinite,
                                action: RecoveryAction::Aborted,
                            });
                            if w == 0 {
                                iterations_done.store(it + 1, Ordering::Release);
                                failure_cell.set(FAIL_NONFINITE, it);
                            }
                            return Ok(());
                        }
                        let relres = gamma_new.max(0.0).sqrt() / norm_b;
                        iters_completed = it + 1;
                        if w == 0 {
                            iterations_done.store(it + 1, Ordering::Release);
                            final_relres_bits.store(relres.to_bits(), Ordering::Release);
                            trail.push(relres);
                        }
                        if relres < tol {
                            if w == 0 {
                                converged_flag.store(1, Ordering::Release);
                            }
                            break;
                        }
                        // Adaptive hook (after the convergence check, like
                        // the sequential cores): every warp arms the same
                        // plan; the next slot becomes the refresh pass.
                        if let Some(c) = ctrl.as_mut() {
                            pending = c.observe(iters_completed as usize, relres, tol);
                        }
                    }
                    Ok(())
                }));
                let faults = wf.as_ref().map(|f| f.counts()).unwrap_or_default();
                settle_warp(body, poison, events, trail, faults, tracer)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| dead_warp()))
            .collect()
    })
    .expect("threaded pipelined CG scope failed");

    let mut report = finish_report(
        &x,
        warps,
        &iterations_done,
        &converged_flag,
        &final_relres_bits,
        &poison,
        &failure_cell,
        heartbeat.as_ref(),
        CG_PIPELINED_STEPS,
        plan,
        outs,
    );
    report.retier_trail = retier_out.into_inner().unwrap_or_else(|e| e.into_inner());
    report
}

/// Runs pipelined ILU(0)-preconditioned CG with the default watchdog
/// policy; see [`run_pcg_pipelined_threaded_full`].
pub fn run_pcg_pipelined_threaded(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
) -> ThreadedReport {
    run_pcg_pipelined_threaded_full(
        m,
        ilu,
        b,
        tol,
        max_iter,
        max_warps,
        WatchdogPolicy::default(),
        &FaultPlan::default(),
    )
}

/// Runs Ghysels–Vanroose pipelined PCG inside the single kernel with TWO
/// global barriers per iteration (the classic engine passes four): one
/// publishes `m = M⁻¹w` for the SpMV, one publishes the fused dot partials.
/// The in-kernel SpTRSV, poison/watchdog and fault-injection machinery are
/// identical to [`run_pcg_threaded_full`]; breakdown semantics mirror
/// [`crate::pipelined::run_pcg_pipelined_ws`].
#[allow(clippy::too_many_arguments)]
pub fn run_pcg_pipelined_threaded_full(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: WatchdogPolicy,
    plan: &FaultPlan,
) -> ThreadedReport {
    run_pcg_pipelined_threaded_traced(
        m,
        ilu,
        b,
        tol,
        max_iter,
        max_warps,
        watchdog,
        plan,
        &TraceConfig::default(),
    )
}

/// [`run_pcg_pipelined_threaded_full`] plus an event-trace switch; see
/// [`run_pcg_threaded_traced`].
#[allow(clippy::too_many_arguments)]
pub fn run_pcg_pipelined_threaded_traced(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    max_warps: usize,
    watchdog: WatchdogPolicy,
    plan: &FaultPlan,
    trace: &TraceConfig,
) -> ThreadedReport {
    let trace = *trace;
    let n = m.nrows;
    assert_eq!(b.len(), n);
    assert_eq!(m.nrows, m.ncols);
    assert_eq!(ilu.l.nrows, n);
    assert_eq!(ilu.u.nrows, n);
    assert!(max_warps >= 1);

    let ts = m.tile_size;
    let segments = n.div_ceil(ts).max(1);
    let warps = segments.min(max_warps).max(1);
    let seg_lo = segment_bounds(segments, warps);
    let tr_start = tile_row_starts(m, segments);

    let norm_b: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm_b == 0.0 {
        return trivial_report(n, warps);
    }

    let to_cells =
        |v: &[f64]| -> Vec<AtomicU64> { v.iter().map(|&x| AtomicU64::new(x.to_bits())).collect() };
    let zeros = vec![0.0; n];
    let x = to_cells(&zeros);
    let r = to_cells(b);
    let p = to_cells(&zeros);
    let s = to_cells(&zeros); // s = A·p (recurrence)
    let q = to_cells(&zeros); // q = M⁻¹s (recurrence)
    let zz = to_cells(&zeros); // z = A·q (recurrence)
    let u = to_cells(&zeros); // u = M⁻¹r
    let wv = to_cells(&zeros); // w = A·u — warp-private (own rows only)
    let mv = to_cells(&zeros); // m = M⁻¹w — the one cross-warp vector
    let nv = to_cells(&zeros); // n = A·m
    let y = to_cells(&zeros); // forward-solve scratch

    let fwd = RowDeps::new(n);
    let bwd = RowDeps::new(n);
    let bar = AtomicI64::new(0);

    let mk_seg = || -> Vec<AtomicU64> { (0..segments).map(|_| AtomicU64::new(0)).collect() };
    let seg_gamma = [mk_seg(), mk_seg()];
    let seg_delta = [mk_seg(), mk_seg()];
    let seg_rho = [mk_seg(), mk_seg()];

    let iterations_done = AtomicI64::new(0);
    let converged_flag = AtomicI64::new(0);
    let final_relres_bits = AtomicU64::new(f64::INFINITY.to_bits());
    let poison = AtomicI64::new(POISON_NONE);
    let failure_cell = FailureCell::new();
    let (deadline, heartbeat) = arm_watchdog(watchdog, warps);
    let hb = heartbeat.as_ref();
    let warps_i = warps as i64;

    let outs: Vec<WarpOut> = crossbeam::scope(|scope| {
        let mut handles = Vec::with_capacity(warps);
        for w in 0..warps {
            let (x, r, p, s, q, zz, u) = (&x, &r, &p, &s, &q, &zz, &u);
            let (wv, mv, nv, y) = (&wv, &mv, &nv, &y);
            let (fwd, bwd, bar) = (&fwd, &bwd, &bar);
            let (seg_gamma, seg_delta, seg_rho) = (&seg_gamma, &seg_delta, &seg_rho);
            let (seg_lo, tr_start) = (&seg_lo, &tr_start);
            let iterations_done = &iterations_done;
            let converged_flag = &converged_flag;
            let final_relres_bits = &final_relres_bits;
            let poison = &poison;
            let failure_cell = &failure_cell;
            let plan = &*plan;
            handles.push(scope.spawn(move |_| {
                let wf = (!plan.is_empty()).then(|| plan.for_warp(w));
                let tracer = trace
                    .enabled
                    .then(|| WarpTracer::new(w, trace.capacity_per_warp));
                let sync = WarpSync {
                    poison,
                    deadline,
                    heartbeat: hb,
                    faults: wf.as_ref(),
                    tracer: tracer.as_ref(),
                    warp: w,
                };
                let mut events: Vec<BreakdownEvent> = Vec::new();
                let mut trail: Vec<f64> = Vec::new();
                let body = catch_unwind(AssertUnwindSafe(|| -> Result<(), i64> {
                    let my_segs = seg_lo[w]..seg_lo[w + 1];
                    let elems = |sg: usize| (sg * ts)..(((sg + 1) * ts).min(n));
                    let rows = (seg_lo[w] * ts)..((seg_lo[w + 1] * ts).min(n));
                    let my_tiles = tr_start[seg_lo[w]]..tr_start[seg_lo[w + 1]];
                    let tile_vals: Vec<Vec<f64>> =
                        my_tiles.clone().map(|i| m.decode_tile_values(i)).collect();
                    let mut acc = vec![0.0f64; ts];

                    let ld = |c: &AtomicU64| f64::from_bits(c.load(Ordering::Acquire));
                    let st = |c: &AtomicU64, v: f64| c.store(v.to_bits(), Ordering::Release);
                    let seg_total = |cells: &[AtomicU64]| -> f64 {
                        let mut t = 0.0;
                        for cell in cells.iter() {
                            t += f64::from_bits(cell.load(Ordering::Acquire));
                        }
                        t
                    };
                    let mut bar_epoch = 0i64;
                    let mut barrier = || -> Result<(), i64> {
                        bar_epoch += 1;
                        bar.fetch_add(1, Ordering::AcqRel);
                        sync.spin_until(bar, warps_i * bar_epoch)
                    };
                    let mut spmv_own = |input: &[AtomicU64], output: &[AtomicU64]| {
                        for sg in my_segs.clone() {
                            let base_row = sg * ts;
                            let len = ((sg + 1) * ts).min(n) - base_row;
                            acc[..len].fill(0.0);
                            for i in tr_start[sg]..tr_start[sg + 1] {
                                let base_col = m.tile_colidx[i] as usize * ts;
                                let nnz_base = m.tile_nnz[i] as usize;
                                let vals = &tile_vals[i - my_tiles.start];
                                for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
                                    let mut sum = 0.0;
                                    for kk in
                                        m.csr_rowptr[ri] as usize..m.csr_rowptr[ri + 1] as usize
                                    {
                                        sum += vals[kk - nnz_base]
                                            * f64::from_bits(
                                                input[base_col + m.csr_colidx[kk] as usize]
                                                    .load(Ordering::Acquire),
                                            );
                                    }
                                    acc[m.row_index[ri] as usize] += sum;
                                }
                            }
                            for (o, v) in acc[..len].iter().enumerate() {
                                output[base_row + o].store(v.to_bits(), Ordering::Release);
                            }
                            sync.pulse();
                        }
                    };

                    let mut apply_epoch = 0i64;

                    // ---- Init: u = M⁻¹r (r = b), then w = A·u,
                    // γ₀ = (r,u), δ₀ = (w,u), ρ₀ = (r,r).
                    sync.iteration_gate()?;
                    sync.step(0, 0)?;
                    apply_epoch += 1;
                    warp_sptrsv_lower(&ilu.l, true, r, y, fwd, rows.clone(), apply_epoch, sync)?;
                    warp_sptrsv_upper(&ilu.u, false, y, u, bwd, rows.clone(), apply_epoch, sync)?;
                    barrier()?; // publishes u for the SpMV
                    spmv_own(u, wv);
                    for sg in my_segs.clone() {
                        let mut pg = 0.0;
                        let mut pd = 0.0;
                        let mut pr = 0.0;
                        for e in elems(sg) {
                            let rv = ld(&r[e]);
                            let uv = ld(&u[e]);
                            pg += rv * uv;
                            pd += ld(&wv[e]) * uv;
                            pr += rv * rv;
                        }
                        st(&seg_gamma[0][sg], pg);
                        st(&seg_delta[0][sg], pd);
                        st(&seg_rho[0][sg], pr);
                    }
                    barrier()?; // publishes the (γ₀, δ₀, ρ₀) partials

                    let mut k = 0usize;
                    let mut gamma_old = 1.0f64;
                    let mut alpha_old = 1.0f64;
                    let mut fresh = true;
                    let mut consecutive_restarts = 0usize;

                    for j in 0..max_iter as i64 {
                        sync.iteration_gate()?;
                        let s_in = k % 2;
                        let s_out = (k + 1) % 2;

                        // ---- m = M⁻¹w (w is warp-private: the SpTRSV rhs
                        // reads own rows only).
                        sync.step(j, 1)?;
                        apply_epoch += 1;
                        warp_sptrsv_lower(
                            &ilu.l,
                            true,
                            wv,
                            y,
                            fwd,
                            rows.clone(),
                            apply_epoch,
                            sync,
                        )?;
                        warp_sptrsv_upper(
                            &ilu.u,
                            false,
                            y,
                            mv,
                            bwd,
                            rows.clone(),
                            apply_epoch,
                            sync,
                        )?;
                        barrier()?; // barrier 1 of 2: publishes m

                        // ---- n = A·m.
                        sync.step(j, 2)?;
                        spmv_own(mv, nv);

                        // ---- Scalars from the published reduction.
                        sync.step(j, 3)?;
                        let gamma = seg_total(&seg_gamma[s_in]);
                        let delta = seg_total(&seg_delta[s_in]);
                        let (beta, alpha, denom) =
                            pipeline_scalars(fresh, gamma, gamma_old, delta, alpha_old);
                        if let Some(kind) = breakdown_kind(alpha, denom) {
                            // Flag-only restart, as in pipelined CG; the
                            // second barrier keeps the epoch count aligned.
                            fresh = true;
                            barrier()?;
                            let rho = seg_total(&seg_rho[s_in]);
                            consecutive_restarts += 1;
                            let abort_nonfinite = !gamma.is_finite();
                            let abort_stalled = consecutive_restarts >= MAX_CONSECUTIVE_RESTARTS;
                            let action = if abort_nonfinite || abort_stalled {
                                RecoveryAction::Aborted
                            } else {
                                RecoveryAction::Restarted
                            };
                            events.push(BreakdownEvent {
                                iteration: j as usize,
                                kind,
                                action,
                            });
                            if w == 0 {
                                iterations_done.store(j + 1, Ordering::Release);
                                let relres = rho.max(0.0).sqrt() / norm_b;
                                if relres.is_finite() {
                                    final_relres_bits.store(relres.to_bits(), Ordering::Release);
                                }
                                if abort_nonfinite {
                                    failure_cell.set(FAIL_NONFINITE, j);
                                } else if abort_stalled {
                                    failure_cell.set(FAIL_STALLED, j);
                                }
                            }
                            if abort_nonfinite || abort_stalled {
                                return Ok(());
                            }
                            continue;
                        }
                        consecutive_restarts = 0;

                        // ---- Fused eight-vector update + next dot partials
                        // (elementwise order matches blas1::pcg_pipelined_update).
                        sync.step(j, 4)?;
                        for sg in my_segs.clone() {
                            let mut pg = 0.0;
                            let mut pd = 0.0;
                            let mut pr = 0.0;
                            for e in elems(sg) {
                                let mvv = ld(&mv[e]);
                                let nvv = ld(&nv[e]);
                                let uo = ld(&u[e]);
                                let wo = ld(&wv[e]);
                                let pv = uo + beta * ld(&p[e]);
                                st(&p[e], pv);
                                let sv = wo + beta * ld(&s[e]);
                                st(&s[e], sv);
                                let qv = mvv + beta * ld(&q[e]);
                                st(&q[e], qv);
                                let zv = nvv + beta * ld(&zz[e]);
                                st(&zz[e], zv);
                                st(&x[e], ld(&x[e]) + alpha * pv);
                                let rv = ld(&r[e]) - alpha * sv;
                                st(&r[e], rv);
                                let un = uo - alpha * qv;
                                st(&u[e], un);
                                let wn = wo - alpha * zv;
                                st(&wv[e], wn);
                                pg += rv * un;
                                pd += wn * un;
                                pr += rv * rv;
                            }
                            st(&seg_gamma[s_out][sg], pg);
                            st(&seg_delta[s_out][sg], pd);
                            st(&seg_rho[s_out][sg], pr);
                        }
                        barrier()?; // barrier 2 of 2: publishes the partials

                        k += 1;
                        gamma_old = gamma;
                        alpha_old = alpha;
                        fresh = false;

                        let rho_new = seg_total(&seg_rho[s_out]);
                        if !rho_new.is_finite() {
                            events.push(BreakdownEvent {
                                iteration: j as usize,
                                kind: BreakdownKind::NonFinite,
                                action: RecoveryAction::Aborted,
                            });
                            if w == 0 {
                                iterations_done.store(j + 1, Ordering::Release);
                                failure_cell.set(FAIL_NONFINITE, j);
                            }
                            return Ok(());
                        }
                        let relres = rho_new.max(0.0).sqrt() / norm_b;
                        if w == 0 {
                            iterations_done.store(j + 1, Ordering::Release);
                            final_relres_bits.store(relres.to_bits(), Ordering::Release);
                            trail.push(relres);
                        }
                        if relres < tol {
                            if w == 0 {
                                converged_flag.store(1, Ordering::Release);
                            }
                            break;
                        }
                    }
                    Ok(())
                }));
                let faults = wf.as_ref().map(|f| f.counts()).unwrap_or_default();
                settle_warp(body, poison, events, trail, faults, tracer)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| dead_warp()))
            .collect()
    })
    .expect("threaded pipelined PCG scope failed");

    finish_report(
        &x,
        warps,
        &iterations_done,
        &converged_flag,
        &final_relres_bits,
        &poison,
        &failure_cell,
        heartbeat.as_ref(),
        PCG_PIPELINED_STEPS,
        plan,
        outs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_precision::ClassifyOptions;
    use mf_sparse::{Coo, Csr};

    /// Both watchdog entry points, as a single fn-pointer type so tests can
    /// table-drive over the two engines.
    type Engine = fn(&TiledMatrix, &[f64], f64, usize, usize, Option<Duration>) -> ThreadedReport;

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

    fn tiled(a: &Csr) -> TiledMatrix {
        TiledMatrix::from_csr_with(a, 16, &ClassifyOptions::default())
    }

    #[test]
    fn full_entry_reports_fault_telemetry_and_progress() {
        let a = poisson1d(96);
        let m = tiled(&a);
        let mut b = vec![0.0; 96];
        a.matvec(&vec![1.0; 96], &mut b);
        let clean = run_cg_threaded_full(
            &m,
            &b,
            1e-10,
            1000,
            3,
            WatchdogPolicy::default(),
            &FaultPlan::default(),
        );
        assert!(clean.converged);
        assert!(clean.injected_faults.is_none(), "empty plan → no telemetry");
        assert_eq!(clean.last_progress.len(), clean.warps);
        assert!(clean
            .last_progress
            .iter()
            .all(|p| CG_STEPS.contains(&p.step)));

        let plan = FaultPlan::seeded(11).with_delay(200, 16).with_stall(4, 50);
        let rep = run_cg_threaded_full(&m, &b, 1e-10, 1000, 3, WatchdogPolicy::default(), &plan);
        assert!(rep.converged);
        let inj = rep.injected_faults.expect("non-empty plan → telemetry");
        assert_eq!(inj.plan, plan.to_string(), "repro line round-trips");
        assert!(inj.counts.total() > 0, "benign faults actually fired");
        for (t, c) in rep.x.iter().zip(&clean.x) {
            assert_eq!(t.to_bits(), c.to_bits(), "benign plan is bitwise inert");
        }
    }

    #[test]
    fn threaded_cg_converges() {
        let a = poisson1d(512);
        let m = tiled(&a);
        let mut b = vec![0.0; 512];
        a.matvec(&vec![1.0; 512], &mut b);
        let rep = run_cg_threaded(&m, &b, 1e-10, 1000, 8);
        assert!(rep.converged, "relres {}", rep.final_relres);
        assert_eq!(rep.warps, 8);
        assert!(rep.failure.is_none());
        assert!(rep.breakdowns.is_empty());
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-7, "{v}");
        }
    }

    #[test]
    fn threaded_matches_sequential_iterations() {
        let a = poisson1d(256);
        let m = tiled(&a);
        let mut b = vec![0.0; 256];
        a.matvec(&vec![1.0; 256], &mut b);

        let rep_t = run_cg_threaded(&m, &b, 1e-10, 1000, 4);

        // Sequential reference through the public solver path (partial
        // convergence off so numerics match the threaded engine's plain
        // tiled SpMV).
        let solver = crate::MilleFeuille::new(
            mf_gpu::DeviceSpec::a100(),
            crate::SolverConfig {
                partial_convergence: false,
                ..crate::SolverConfig::default()
            },
        );
        let rep_s = solver.solve_cg(&a, &b);
        assert!(rep_t.converged && rep_s.converged);
        // Atomic accumulation reorders float adds; iteration counts may
        // differ by a hair, the solutions must agree.
        assert!(rep_t.iterations.abs_diff(rep_s.iterations) <= 2);
        for (t, s) in rep_t.x.iter().zip(&rep_s.x) {
            assert!((t - s).abs() < 1e-7);
        }
    }

    #[test]
    fn single_warp_degenerate_case() {
        let a = poisson1d(64);
        let m = tiled(&a);
        let mut b = vec![0.0; 64];
        a.matvec(&vec![1.0; 64], &mut b);
        let rep = run_cg_threaded(&m, &b, 1e-10, 1000, 1);
        assert!(rep.converged);
        assert_eq!(rep.warps, 1);
    }

    #[test]
    fn many_warps_capped_by_segments() {
        let a = poisson1d(64); // 4 segments of 16
        let m = tiled(&a);
        let mut b = vec![0.0; 64];
        a.matvec(&vec![1.0; 64], &mut b);
        let rep = run_cg_threaded(&m, &b, 1e-10, 1000, 64);
        assert_eq!(rep.warps, 4);
        assert!(rep.converged);
    }

    #[test]
    fn zero_rhs() {
        let a = poisson1d(32);
        let m = tiled(&a);
        let rep = run_cg_threaded(&m, &vec![0.0; 32], 1e-10, 100, 4);
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
        assert!(rep.failure.is_none());
    }

    #[test]
    fn max_iter_respected() {
        let a = poisson1d(128);
        let m = tiled(&a);
        let mut b = vec![0.0; 128];
        a.matvec(&vec![1.0; 128], &mut b);
        let rep = run_cg_threaded(&m, &b, 1e-30, 5, 4);
        assert!(!rep.converged);
        assert_eq!(rep.iterations, 5);
        // Out-of-iterations is a normal termination, not a failure.
        assert!(rep.failure.is_none());
    }

    fn convdiff1d(n: usize) -> Csr {
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 4.0);
            if i > 0 {
                a.push(i, i - 1, -1.5);
            }
            if i + 1 < n {
                a.push(i, i + 1, -0.5);
            }
        }
        a.to_csr()
    }

    #[test]
    fn threaded_bicgstab_converges() {
        let a = convdiff1d(400);
        let m = tiled(&a);
        let mut b = vec![0.0; 400];
        a.matvec(&vec![1.0; 400], &mut b);
        let rep = run_bicgstab_threaded(&m, &b, 1e-10, 1000, 8);
        assert!(rep.converged, "relres {}", rep.final_relres);
        assert!(rep.failure.is_none());
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-6, "{v}");
        }
    }

    #[test]
    fn threaded_bicgstab_single_warp() {
        let a = convdiff1d(48);
        let m = tiled(&a);
        let mut b = vec![0.0; 48];
        a.matvec(&vec![1.0; 48], &mut b);
        let rep = run_bicgstab_threaded(&m, &b, 1e-10, 1000, 1);
        assert!(rep.converged);
        assert_eq!(rep.warps, 1);
    }

    #[test]
    fn threaded_bicgstab_zero_rhs_and_max_iter() {
        let a = convdiff1d(32);
        let m = tiled(&a);
        let rep = run_bicgstab_threaded(&m, &vec![0.0; 32], 1e-10, 50, 4);
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
        let mut b = vec![0.0; 32];
        a.matvec(&vec![1.0; 32], &mut b);
        let rep = run_bicgstab_threaded(&m, &b, 1e-30, 5, 4);
        assert!(!rep.converged);
        assert_eq!(rep.iterations, 5);
    }

    #[test]
    fn threaded_bicgstab_repeated_runs() {
        let a = convdiff1d(150);
        let m = tiled(&a);
        let mut b = vec![0.0; 150];
        a.matvec(&vec![1.0; 150], &mut b);
        for trial in 0..10 {
            let rep = run_bicgstab_threaded(&m, &b, 1e-10, 1000, 5);
            assert!(rep.converged, "trial {trial}");
            for v in &rep.x {
                assert!((v - 1.0).abs() < 1e-6, "trial {trial}: {v}");
            }
        }
    }

    #[test]
    fn repeated_runs_are_consistent() {
        // Stress the synchronization: 20 back-to-back threaded solves must
        // all converge to the same solution (catches latent races).
        let a = poisson1d(200);
        let m = tiled(&a);
        let mut b = vec![0.0; 200];
        a.matvec(&vec![1.0; 200], &mut b);
        for trial in 0..20 {
            let rep = run_cg_threaded(&m, &b, 1e-10, 1000, 7);
            assert!(rep.converged, "trial {trial}");
            for v in &rep.x {
                assert!((v - 1.0).abs() < 1e-7, "trial {trial}: {v}");
            }
        }
    }

    // ---- Robustness regressions ------------------------------------------

    /// A = −I is indefinite: pᵀAp = −‖p‖² < 0 on the very first iteration.
    /// The old engine computed a meaningless α, NaN-poisoned every vector
    /// and spun all `max_iter` iterations; now every warp must take the
    /// identical restart branch, observe the fixed point and abort with a
    /// structured failure and a finite residual.
    #[test]
    fn threaded_cg_indefinite_fails_finite() {
        let n = 64;
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, -1.0);
        }
        let m = tiled(&a.to_csr());
        let b = vec![1.0; n];
        for warps in [1, 4] {
            let rep = run_cg_threaded(&m, &b, 1e-10, 1000, warps);
            assert!(!rep.converged, "warps {warps}");
            assert!(
                rep.final_relres.is_finite(),
                "warps {warps}: NaN leaked: {}",
                rep.final_relres
            );
            assert!(rep.x.iter().all(|v| v.is_finite()), "warps {warps}");
            assert!(
                matches!(rep.failure, Some(SolveFailure::Stalled { .. })),
                "warps {warps}: {:?}",
                rep.failure
            );
            assert_eq!(rep.iterations, MAX_CONSECUTIVE_RESTARTS, "warps {warps}");
            assert!(!rep.breakdowns.is_empty());
            assert!(rep
                .breakdowns
                .iter()
                .all(|e| e.kind == BreakdownKind::Curvature));
            assert_eq!(
                rep.breakdowns.last().unwrap().action,
                RecoveryAction::Aborted
            );
        }
    }

    /// Skew-symmetric matrix: `(A·p, r0*) = 0` exactly, so the old engine's
    /// unguarded `α = ρ/denom` was infinite on iteration 0. The guarded
    /// engine must restart (with the sequential `restart()` semantics, not
    /// the old `rho_new.max(rr)` hack), observe the fixed point, and abort.
    #[test]
    fn threaded_bicgstab_breakdown_matrix_fails_finite() {
        let n = 32;
        let mut a = Coo::new(n, n);
        for i in 0..n - 1 {
            a.push(i, i + 1, 1.0);
            a.push(i + 1, i, -1.0);
        }
        let m = tiled(&a.to_csr());
        let b = vec![1.0; n];
        for warps in [1, 2] {
            let rep = run_bicgstab_threaded(&m, &b, 1e-10, 1000, warps);
            assert!(!rep.converged, "warps {warps}");
            assert!(rep.final_relres.is_finite(), "warps {warps}");
            assert!(rep.x.iter().all(|v| v.is_finite()), "warps {warps}");
            assert!(
                matches!(rep.failure, Some(SolveFailure::Stalled { .. })),
                "warps {warps}: {:?}",
                rep.failure
            );
            assert_eq!(rep.iterations, MAX_CONSECUTIVE_RESTARTS, "warps {warps}");
            assert_eq!(
                rep.breakdowns.last().unwrap().action,
                RecoveryAction::Aborted
            );
        }
    }

    /// A malformed tile column index makes one warp index out of bounds.
    /// The old engine left the sibling warps spinning forever and the
    /// scope never joined; the poison flag must convert this into a
    /// `WarpPanic` failure, promptly, with every thread joined.
    #[test]
    fn panicking_warp_propagates_instead_of_hanging() {
        let a = poisson1d(128);
        let mut m = tiled(&a);
        let last = m.tile_colidx.len() - 1;
        m.tile_colidx[last] = 10_000; // way past ncols -> index panic
        let mut b = vec![0.0; 128];
        a.matvec(&vec![1.0; 128], &mut b);
        let rep = run_cg_threaded(&m, &b, 1e-10, 1000, 4);
        assert!(!rep.converged);
        assert!(
            matches!(rep.failure, Some(SolveFailure::WarpPanic { .. })),
            "{:?}",
            rep.failure
        );
        assert_eq!(rep.breakdowns.last().unwrap().kind, BreakdownKind::Panic);
        // Same protocol on the BiCGSTAB engine.
        let rep = run_bicgstab_threaded(&m, &b, 1e-10, 1000, 4);
        assert!(matches!(rep.failure, Some(SolveFailure::WarpPanic { .. })));
    }

    /// An already-expired deadline must wedge deterministically at the top
    /// of iteration 0 — clean `Wedged` report, no hang, all threads joined.
    #[test]
    fn watchdog_zero_deadline_wedges_cleanly() {
        let a = poisson1d(128);
        let m = tiled(&a);
        let mut b = vec![0.0; 128];
        a.matvec(&vec![1.0; 128], &mut b);
        for (engine, name) in [
            (run_cg_threaded_watchdog as Engine, "cg"),
            (run_bicgstab_threaded_watchdog as Engine, "bicgstab"),
        ] {
            let rep: ThreadedReport = engine(&m, &b, 1e-10, 1000, 4, Some(Duration::ZERO));
            assert!(!rep.converged, "{name}");
            assert_eq!(rep.iterations, 0, "{name}");
            assert!(
                matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
                "{name}: {:?}",
                rep.failure
            );
            assert_eq!(
                rep.breakdowns.last().unwrap().kind,
                BreakdownKind::Watchdog,
                "{name}"
            );
        }
    }

    // ---- In-kernel SpTRSV / preconditioned engines -----------------------

    #[test]
    fn sptrsv_runner_bitwise_matches_sequential() {
        use mf_kernels::{ilu0, sptrsv_lower_into, sptrsv_upper_into};
        let a = poisson1d(130); // ragged tail segment (130 = 8*16 + 2)
        let f = ilu0(&a).unwrap();
        let b: Vec<f64> = (0..130).map(|i| 0.3 + (i as f64) * 0.01).collect();
        let mut y = vec![0.0; 130];
        let mut z = vec![0.0; 130];
        sptrsv_lower_into(&f.l, &b, &mut y, true);
        sptrsv_upper_into(&f.u, &y, &mut z, false);
        for warps in [1, 3, 8] {
            let rep = run_ilu_sptrsv_threaded(&f.l, &f.u, &b, true, false, 16, warps);
            assert!(rep.converged, "warps {warps}");
            assert!(rep.failure.is_none(), "warps {warps}: {:?}", rep.failure);
            for (i, (t, s)) in rep.x.iter().zip(&z).enumerate() {
                assert_eq!(
                    t.to_bits(),
                    s.to_bits(),
                    "warps {warps} row {i}: {t} vs {s}"
                );
            }
        }
    }

    /// A mutually-cyclic pair of "dependencies" in L (rows 5 and 80 in
    /// different warps' ranges pointing at each other) can never be
    /// satisfied: both warps spin on each other's counter. The watchdog
    /// must convert that into `Wedged` — the protocol's whole point.
    #[test]
    fn cyclic_factor_wedges_instead_of_hanging() {
        use mf_kernels::ilu0;
        let a = poisson1d(128);
        let mut f = ilu0(&a).unwrap();
        // Row 5 gains a dependency on row 80 (an upper entry in L), while
        // row 80 already depends on row 79..; rewire row 80's sub-diagonal
        // entry to depend on row 5's completion *after* corrupting row 5
        // to wait on 80 -> genuine cycle across warp boundaries.
        let k5 = f.l.rowptr[5]; // row 5's first (only) strictly-lower entry
        f.l.colidx[k5] = 80;
        let started = Instant::now();
        let rep = run_ilu_sptrsv_threaded_watchdog(
            &f.l,
            &f.u,
            &vec![1.0; 128],
            true,
            false,
            16,
            4,
            Some(Duration::from_millis(250)),
        );
        assert!(
            matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
            "{:?}",
            rep.failure
        );
        assert!(!rep.converged);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "wedge detection took {:?}",
            started.elapsed()
        );
    }

    fn pcg_fixture(n: usize) -> (Csr, TiledMatrix, mf_kernels::Ilu0, Vec<f64>) {
        let a = poisson1d(n);
        let m = tiled(&a);
        let f = mf_kernels::ilu0(&a).unwrap();
        let mut b = vec![0.0; n];
        a.matvec(&vec![1.0; n], &mut b);
        (a, m, f, b)
    }

    #[test]
    fn threaded_pcg_converges_and_is_warp_invariant() {
        let (_, m, f, b) = pcg_fixture(512);
        let base = run_pcg_threaded(&m, &f, &b, 1e-10, 1000, 1);
        assert!(base.converged, "relres {}", base.final_relres);
        assert!(base.failure.is_none());
        for v in &base.x {
            assert!((v - 1.0).abs() < 1e-7, "{v}");
        }
        for warps in [2, 5, 8] {
            let rep = run_pcg_threaded(&m, &f, &b, 1e-10, 1000, warps);
            assert!(rep.converged, "warps {warps}");
            assert_eq!(rep.iterations, base.iterations, "warps {warps}");
            assert_eq!(
                rep.final_relres.to_bits(),
                base.final_relres.to_bits(),
                "warps {warps}"
            );
            assert_eq!(rep.residual_history, base.residual_history);
            for (i, (t, s)) in rep.x.iter().zip(&base.x).enumerate() {
                assert_eq!(t.to_bits(), s.to_bits(), "warps {warps} row {i}");
            }
        }
    }

    #[test]
    fn threaded_pbicgstab_converges_and_is_warp_invariant() {
        let a = convdiff1d(400);
        let m = tiled(&a);
        let f = mf_kernels::ilu0(&a).unwrap();
        let mut b = vec![0.0; 400];
        a.matvec(&vec![1.0; 400], &mut b);
        let base = run_pbicgstab_threaded(&m, &f, &b, 1e-10, 1000, 1);
        assert!(base.converged, "relres {}", base.final_relres);
        for v in &base.x {
            assert!((v - 1.0).abs() < 1e-6, "{v}");
        }
        for warps in [3, 7] {
            let rep = run_pbicgstab_threaded(&m, &f, &b, 1e-10, 1000, warps);
            assert!(rep.converged, "warps {warps}");
            assert_eq!(rep.iterations, base.iterations, "warps {warps}");
            assert_eq!(rep.residual_history, base.residual_history);
            for (t, s) in rep.x.iter().zip(&base.x) {
                assert_eq!(t.to_bits(), s.to_bits(), "warps {warps}");
            }
        }
    }

    #[test]
    fn threaded_pcg_zero_rhs_and_max_iter() {
        let (_, m, f, _) = pcg_fixture(64);
        let rep = run_pcg_threaded(&m, &f, &vec![0.0; 64], 1e-10, 100, 4);
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
        let mut b = vec![0.0; 64];
        poisson1d(64).matvec(&vec![1.0; 64], &mut b);
        // ILU(0) is *exact* on a tridiagonal matrix, so any positive
        // tolerance is reachable; tol = 0 forces the iteration cap.
        let rep = run_pcg_threaded(&m, &f, &b, 0.0, 3, 4);
        assert!(!rep.converged);
        assert_eq!(rep.iterations, 3);
        assert!(rep.failure.is_none());
        assert_eq!(rep.status_label(), "max_iter");
    }

    /// A corrupted L with a cycle must wedge the *engines* too (mid-solve,
    /// inside the preconditioner application), not just the standalone
    /// runner, and a poisoned column index must surface as `WarpPanic`.
    #[test]
    fn pcg_wedge_and_panic_mid_sptrsv() {
        let (_, m, f, b) = pcg_fixture(128);
        let mut cyc = f.clone();
        let k5 = cyc.l.rowptr[5];
        cyc.l.colidx[k5] = 80;
        let wd = Some(Duration::from_millis(250));
        let rep = run_pcg_threaded_watchdog(&m, &cyc, &b, 1e-10, 1000, 4, wd);
        assert!(
            matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
            "{:?}",
            rep.failure
        );
        assert_eq!(rep.status_label(), "aborted(watchdog)");

        let mut bad = f.clone();
        let k5 = bad.l.rowptr[5];
        bad.l.colidx[k5] = 10_000; // out of bounds -> index panic in a warp
        let rep = run_pcg_threaded_watchdog(&m, &bad, &b, 1e-10, 1000, 4, wd);
        assert!(
            matches!(rep.failure, Some(SolveFailure::WarpPanic { .. })),
            "{:?}",
            rep.failure
        );
        assert_eq!(rep.status_label(), "aborted(panic)");

        let rep = run_pbicgstab_threaded_watchdog(&m, &cyc, &b, 1e-10, 1000, 4, wd);
        assert!(
            matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
            "{:?}",
            rep.failure
        );
    }

    /// Stress: {indefinite, singular, badly-scaled} × {1, 4, 7} warps ×
    /// both engines all terminate within the watchdog and never hang. A
    /// singular-but-consistent-free system simply runs out of iterations
    /// (normal termination); the other two must report a structured
    /// failure.
    #[test]
    fn stress_bad_matrices_never_hang() {
        let n = 97;
        let indefinite = {
            let mut a = Coo::new(n, n);
            for i in 0..n {
                a.push(i, i, if i % 2 == 0 { 2.0 } else { -2.0 });
            }
            a.to_csr()
        };
        let singular = {
            let mut a = Coo::new(n, n);
            for i in 0..n - 1 {
                a.push(i, i, 1.0); // last row/col all zero
            }
            a.to_csr()
        };
        let badly_scaled = {
            let mut a = Coo::new(n, n);
            for i in 0..n {
                a.push(i, i, 1e200); // forces Inf dot products with b=1e200
            }
            a.to_csr()
        };
        let wd = Some(Duration::from_secs(2));
        // `must_fail` lists the engines that have to report a structured
        // failure: CG breaks on indefinite curvature, but BiCGSTAB solves a
        // nonsingular indefinite system legitimately (it never required SPD).
        for (name, a, b_val, must_fail) in [
            ("indefinite", &indefinite, 1.0, &["cg"][..]),
            ("singular", &singular, 1.0, &[][..]),
            (
                "badly_scaled",
                &badly_scaled,
                1e200,
                &["cg", "bicgstab"][..],
            ),
        ] {
            let m = tiled(a);
            let b = vec![b_val; n];
            for warps in [1, 4, 7] {
                for (engine, ename) in [
                    (run_cg_threaded_watchdog as Engine, "cg"),
                    (run_bicgstab_threaded_watchdog as Engine, "bicgstab"),
                ] {
                    let rep: ThreadedReport = engine(&m, &b, 1e-10, 100, warps, wd);
                    assert!(
                        !rep.final_relres.is_nan(),
                        "{name}/{ename}/{warps}: NaN relres"
                    );
                    if must_fail.contains(&ename) {
                        assert!(
                            rep.failure.is_some(),
                            "{name}/{ename}/{warps}: expected a structured failure"
                        );
                        assert!(
                            !rep.breakdowns.is_empty(),
                            "{name}/{ename}/{warps}: breakdown trail empty"
                        );
                    } else {
                        // Terminated (converged / out of iterations /
                        // structured failure) — the point is: no hang.
                        assert!(rep.iterations <= 100, "{name}/{ename}/{warps}");
                    }
                }
            }
        }
    }

    // ---- Pipelined engines -----------------------------------------------

    #[test]
    fn pipelined_cg_converges_and_is_warp_invariant() {
        let a = poisson1d(512);
        let m = tiled(&a);
        let mut b = vec![0.0; 512];
        a.matvec(&vec![1.0; 512], &mut b);
        let base = run_cg_pipelined_threaded(&m, &b, 1e-10, 1000, 1);
        assert!(base.converged, "relres {}", base.final_relres);
        assert!(base.failure.is_none());
        for v in &base.x {
            assert!((v - 1.0).abs() < 1e-7, "{v}");
        }
        for warps in [2, 5, 8] {
            let rep = run_cg_pipelined_threaded(&m, &b, 1e-10, 1000, warps);
            assert!(rep.converged, "warps {warps}");
            assert_eq!(rep.iterations, base.iterations, "warps {warps}");
            assert_eq!(
                rep.final_relres.to_bits(),
                base.final_relres.to_bits(),
                "warps {warps}"
            );
            assert_eq!(rep.residual_history, base.residual_history);
            for (i, (t, s)) in rep.x.iter().zip(&base.x).enumerate() {
                assert_eq!(t.to_bits(), s.to_bits(), "warps {warps} row {i}");
            }
        }
    }

    #[test]
    fn pipelined_pcg_converges_and_is_warp_invariant() {
        let (_, m, f, b) = pcg_fixture(512);
        let base = run_pcg_pipelined_threaded(&m, &f, &b, 1e-10, 1000, 1);
        assert!(base.converged, "relres {}", base.final_relres);
        assert!(base.failure.is_none());
        for v in &base.x {
            assert!((v - 1.0).abs() < 1e-7, "{v}");
        }
        for warps in [4, 7] {
            let rep = run_pcg_pipelined_threaded(&m, &f, &b, 1e-10, 1000, warps);
            assert!(rep.converged, "warps {warps}");
            assert_eq!(rep.iterations, base.iterations, "warps {warps}");
            assert_eq!(rep.residual_history, base.residual_history);
            for (i, (t, s)) in rep.x.iter().zip(&base.x).enumerate() {
                assert_eq!(t.to_bits(), s.to_bits(), "warps {warps} row {i}");
            }
        }
    }

    #[test]
    fn pipelined_cg_iteration_count_tracks_classic() {
        // The pipelined recurrence is the same Krylov method with different
        // rounding; on a well-conditioned fixture the convergence iteration
        // may only drift by a hair.
        let a = poisson1d(256);
        let m = tiled(&a);
        let mut b = vec![0.0; 256];
        a.matvec(&vec![1.0; 256], &mut b);
        let classic = run_cg_threaded(&m, &b, 1e-10, 1000, 4);
        let pipelined = run_cg_pipelined_threaded(&m, &b, 1e-10, 1000, 4);
        assert!(classic.converged && pipelined.converged);
        assert!(
            classic.iterations.abs_diff(pipelined.iterations) <= 5,
            "classic {} vs pipelined {}",
            classic.iterations,
            pipelined.iterations
        );
        for (t, s) in pipelined.x.iter().zip(&classic.x) {
            assert!((t - s).abs() < 1e-7);
        }
    }

    #[test]
    fn pipelined_cg_indefinite_fails_finite() {
        let n = 64;
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, -1.0);
        }
        let m = tiled(&a.to_csr());
        let b = vec![1.0; n];
        for warps in [1, 4] {
            let rep = run_cg_pipelined_threaded(&m, &b, 1e-10, 1000, warps);
            assert!(!rep.converged, "warps {warps}");
            assert!(rep.final_relres.is_finite(), "warps {warps}");
            assert!(rep.x.iter().all(|v| v.is_finite()), "warps {warps}");
            assert!(
                matches!(rep.failure, Some(SolveFailure::Stalled { .. })),
                "warps {warps}: {:?}",
                rep.failure
            );
            assert_eq!(rep.iterations, MAX_CONSECUTIVE_RESTARTS, "warps {warps}");
            assert!(rep
                .breakdowns
                .iter()
                .all(|e| e.kind == BreakdownKind::Curvature));
            assert_eq!(
                rep.breakdowns.last().unwrap().action,
                RecoveryAction::Aborted
            );
        }
    }

    #[test]
    fn pipelined_zero_rhs_and_max_iter() {
        let a = poisson1d(64);
        let m = tiled(&a);
        let rep = run_cg_pipelined_threaded(&m, &vec![0.0; 64], 1e-10, 100, 4);
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
        let mut b = vec![0.0; 64];
        a.matvec(&vec![1.0; 64], &mut b);
        let rep = run_cg_pipelined_threaded(&m, &b, 1e-30, 5, 4);
        assert!(!rep.converged);
        assert_eq!(rep.iterations, 5);
        assert!(rep.failure.is_none());

        let (_, m, f, b) = pcg_fixture(64);
        let rep = run_pcg_pipelined_threaded(&m, &f, &vec![0.0; 64], 1e-10, 100, 4);
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
        let rep = run_pcg_pipelined_threaded(&m, &f, &b, 0.0, 3, 4);
        assert!(!rep.converged);
        assert_eq!(rep.iterations, 3);
        assert!(rep.failure.is_none());
    }

    #[test]
    fn pipelined_benign_faults_bitwise_inert() {
        let a = poisson1d(160);
        let m = tiled(&a);
        let mut b = vec![0.0; 160];
        a.matvec(&vec![1.0; 160], &mut b);
        let plan = FaultPlan::seeded(11).with_delay(200, 16).with_stall(4, 50);
        let clean = run_cg_pipelined_threaded(&m, &b, 1e-10, 1000, 4);
        let rep = run_cg_pipelined_threaded_full(
            &m,
            &b,
            1e-10,
            1000,
            4,
            WatchdogPolicy::default(),
            &plan,
        );
        assert!(rep.converged);
        let inj = rep.injected_faults.expect("non-empty plan → telemetry");
        assert!(inj.counts.total() > 0, "benign faults actually fired");
        for (t, c) in rep.x.iter().zip(&clean.x) {
            assert_eq!(t.to_bits(), c.to_bits(), "benign plan is bitwise inert");
        }

        let (_, pm, f, pb) = pcg_fixture(160);
        let clean = run_pcg_pipelined_threaded(&pm, &f, &pb, 1e-10, 1000, 4);
        let rep = run_pcg_pipelined_threaded_full(
            &pm,
            &f,
            &pb,
            1e-10,
            1000,
            4,
            WatchdogPolicy::default(),
            &plan,
        );
        assert!(rep.converged);
        for (t, c) in rep.x.iter().zip(&clean.x) {
            assert_eq!(t.to_bits(), c.to_bits(), "benign plan is bitwise inert");
        }
    }

    #[test]
    fn pipelined_watchdog_zero_deadline_wedges_cleanly() {
        let a = poisson1d(128);
        let m = tiled(&a);
        let mut b = vec![0.0; 128];
        a.matvec(&vec![1.0; 128], &mut b);
        let rep: ThreadedReport =
            run_cg_pipelined_threaded_watchdog(&m, &b, 1e-10, 1000, 4, Some(Duration::ZERO));
        assert!(!rep.converged);
        assert!(
            matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
            "{:?}",
            rep.failure
        );
        assert_eq!(rep.breakdowns.last().unwrap().kind, BreakdownKind::Watchdog);
    }

    /// The tentpole claim, measured: the classic CG passes ~4 synchronization
    /// epochs per iteration, the pipelined CG exactly one (plus one at init);
    /// classic PCG four barriers, pipelined PCG two (plus two at init). The
    /// trace counts every `BarrierEnter` per warp, so the densities are
    /// directly comparable (SpTRSV row waits are recorded as `RowWait` and
    /// do not inflate the metric).
    #[test]
    fn pipelined_trace_shows_barrier_collapse() {
        let tr = TraceConfig {
            enabled: true,
            capacity_per_warp: 65536,
        };
        let wd = WatchdogPolicy::default();
        let plan = FaultPlan::default();

        let a = poisson1d(256);
        let m = tiled(&a);
        let mut b = vec![0.0; 256];
        a.matvec(&vec![1.0; 256], &mut b);
        let classic = run_cg_threaded_traced(&m, &b, 1e-10, 1000, 4, wd, &plan, &tr);
        let piped = run_cg_pipelined_threaded_traced(&m, &b, 1e-10, 1000, 4, wd, &plan, &tr);
        assert!(classic.converged && piped.converged);
        let cs = classic.trace.as_ref().unwrap().summary();
        let ps = piped.trace.as_ref().unwrap().summary();
        assert_eq!(cs.dropped + ps.dropped, 0, "ring too small for the test");
        let (cd, pd) = (cs.barriers_per_iteration(), ps.barriers_per_iteration());
        assert!(pd <= 1.5, "pipelined CG barrier density {pd}");
        assert!(pd < cd, "pipelined {pd} not below classic {cd}");

        // 2D Poisson: ILU(0) is *inexact* there, so PCG runs enough
        // iterations to amortize the two init barriers (the tridiagonal
        // fixture converges in one iteration, where density = 2 + 2/1 = 4
        // says nothing about the steady state).
        let k = 16;
        let n = k * k;
        let mut a2 = Coo::new(n, n);
        for i in 0..k {
            for jj in 0..k {
                let row = i * k + jj;
                a2.push(row, row, 4.0);
                if i > 0 {
                    a2.push(row, row - k, -1.0);
                }
                if i + 1 < k {
                    a2.push(row, row + k, -1.0);
                }
                if jj > 0 {
                    a2.push(row, row - 1, -1.0);
                }
                if jj + 1 < k {
                    a2.push(row, row + 1, -1.0);
                }
            }
        }
        let a2 = a2.to_csr();
        let pm = tiled(&a2);
        let f = mf_kernels::ilu0(&a2).unwrap();
        let mut pb = vec![0.0; n];
        a2.matvec(&vec![1.0; n], &mut pb);
        let classic = run_pcg_threaded_traced(&pm, &f, &pb, 1e-10, 1000, 4, wd, &plan, &tr);
        let piped = run_pcg_pipelined_threaded_traced(&pm, &f, &pb, 1e-10, 1000, 4, wd, &plan, &tr);
        assert!(classic.converged && piped.converged);
        let cs = classic.trace.as_ref().unwrap().summary();
        let ps = piped.trace.as_ref().unwrap().summary();
        assert_eq!(cs.dropped + ps.dropped, 0, "ring too small for the test");
        let (cd, pd) = (cs.barriers_per_iteration(), ps.barriers_per_iteration());
        assert!(pd <= 2.5, "pipelined PCG barrier density {pd}");
        assert!(pd < cd, "pipelined {pd} not below classic {cd}");
    }

    #[test]
    fn pipelined_repeated_runs_are_consistent() {
        let a = poisson1d(200);
        let m = tiled(&a);
        let mut b = vec![0.0; 200];
        a.matvec(&vec![1.0; 200], &mut b);
        let base = run_cg_pipelined_threaded(&m, &b, 1e-10, 1000, 7);
        assert!(base.converged);
        for trial in 0..10 {
            let rep = run_cg_pipelined_threaded(&m, &b, 1e-10, 1000, 7);
            assert!(rep.converged, "trial {trial}");
            for (t, s) in rep.x.iter().zip(&base.x) {
                assert_eq!(t.to_bits(), s.to_bits(), "trial {trial}");
            }
        }
    }
}
