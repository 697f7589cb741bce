//! # mf-trace
//!
//! A low-overhead, deterministic event recorder for the Mille-feuille
//! solver engines (sequential CG/BiCGSTAB, threaded CG/BiCGSTAB/SpTRSV,
//! threaded PCG/PBiCGSTAB).
//!
//! ## Design
//!
//! * **Off by default, one branch per site.** Engines hold an
//!   `Option<&WarpTracer>`; a disabled trace is `None`, so every event
//!   site costs a single predictable branch.
//! * **Per-warp ring buffers.** Each warp records into its own
//!   fixed-capacity [`WarpTracer`] (no sharing, no locks, `Cell`-based
//!   interior mutability so the engine closures stay `Fn`-shaped). When
//!   full, the oldest events are overwritten and a `dropped` counter
//!   advances — drop decisions depend only on the deterministic event
//!   count, never on timing.
//! * **Deterministic merge.** At join time the per-warp streams are
//!   merged by `(iteration, step, warp, seq)` into a single [`Trace`].
//!   Because the engines are deterministic by construction, *which*
//!   events exist and their merged order are bitwise-reproducible across
//!   runs and schedules. The only schedule-dependent quantity is the
//!   spin-poll count riding in the `b` payload of `BarrierExit` /
//!   `RowWait` events; the canonical serialization zeroes exactly those.
//! * **Exports.** [`Trace::to_jsonl`] (full, including poll counts),
//!   [`Trace::canonical_jsonl`] (nondeterministic payloads zeroed —
//!   bitwise-stable), and [`Trace::to_chrome_trace`] (Chrome
//!   `trace_event` JSON loadable in Perfetto, logical timestamps only —
//!   also bitwise-stable).
//!
//! Coordinates `(warp, iteration, step)` match the step tables in
//! `mf_solver::threaded` (`CG_STEPS`, `PCG_STEPS`, …) and the
//! `FaultPlan` repro lines, so a trace lines up with a fault-injection
//! replay one-to-one.

use std::cell::Cell;
use std::fmt::Write as _;

/// Default per-warp ring capacity (events). At ~32 B/event this is
/// ~256 KiB per warp — enough for several hundred iterations of the
/// busiest engine (threaded PBiCGSTAB) before the ring wraps.
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// Sentinel step used for events synthesized after the solve loop
/// (breakdown/recovery trail): sorts after every real step of its
/// iteration.
pub const STEP_EPILOGUE: u16 = u16::MAX;

/// Tracing knobs carried by `SolverConfig::trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. `false` (the default) compiles every event site
    /// down to one `Option` branch and allocates nothing.
    pub enabled: bool,
    /// Ring capacity per warp, in events. Oldest events are dropped
    /// (and counted) once a warp exceeds this.
    pub capacity_per_warp: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity_per_warp: DEFAULT_TRACE_CAPACITY,
        }
    }
}

impl TraceConfig {
    /// Tracing switched on with the default ring capacity.
    pub fn on() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }

    /// Tracing switched on with an explicit per-warp ring capacity.
    pub fn with_capacity(capacity_per_warp: usize) -> Self {
        TraceConfig {
            enabled: true,
            capacity_per_warp: capacity_per_warp.max(1),
        }
    }
}

/// What happened. The `a`/`b` payload meaning is per-kind:
///
/// | kind | `a` | `b` | `b` deterministic? |
/// |---|---|---|---|
/// | `IterStart` | iteration | 0 | yes |
/// | `IterEnd` | iteration | 0 | yes |
/// | `BarrierEnter` | epoch target | 0 | yes |
/// | `BarrierExit` | epoch target | spin polls | **no** |
/// | `RowWait` | rows in pass | spin polls | **no** |
/// | `Precision` | packed tile histogram (4×16 bit, fp64..fp8) | 0 | yes |
/// | `Bypass` | tiles bypassed this SpMV | nnz bypassed | yes |
/// | `SpmvBytes` | precision index (0=fp64..3=fp8) | value bytes | yes |
/// | `Breakdown` | `BreakdownKind` code | `RecoveryAction` code | yes |
/// | `Fault` | injected-fault code | 0 | yes |
/// | `CacheHit` | fingerprint low 64 bits | entry bytes | yes* |
/// | `CacheMiss` | fingerprint low 64 bits | entry bytes | yes* |
/// | `CacheEvict` | fingerprint low 64 bits | bytes freed | yes* |
/// | `Retier` | packed (cap code << 32 \| actions) | iteration decided | yes |
/// | `Halo` | bytes exchanged | packed (peer shard << 32 \| messages) | yes |
///
/// (*) Cache events are deterministic for a fixed *request order*; a
/// concurrent serving front-end interleaves requests nondeterministically,
/// so its streams are reproducible only under a serialized replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    IterStart = 0,
    IterEnd = 1,
    BarrierEnter = 2,
    BarrierExit = 3,
    RowWait = 4,
    Precision = 5,
    Bypass = 6,
    SpmvBytes = 7,
    Breakdown = 8,
    Fault = 9,
    CacheHit = 10,
    CacheMiss = 11,
    CacheEvict = 12,
    /// Adaptive re-tier plan applied (controller v2).
    Retier = 13,
    /// Sharded-engine halo exchange: one shard's boundary-vector traffic
    /// for an iteration step. Appended last so [`TraceSummary::counts`]
    /// indices from earlier releases stay valid.
    Halo = 14,
}

impl EventKind {
    /// Every kind, in discriminant order — [`TraceSummary::counts`] is
    /// indexed by this order.
    pub const ALL: [EventKind; 15] = [
        EventKind::IterStart,
        EventKind::IterEnd,
        EventKind::BarrierEnter,
        EventKind::BarrierExit,
        EventKind::RowWait,
        EventKind::Precision,
        EventKind::Bypass,
        EventKind::SpmvBytes,
        EventKind::Breakdown,
        EventKind::Fault,
        EventKind::CacheHit,
        EventKind::CacheMiss,
        EventKind::CacheEvict,
        EventKind::Retier,
        EventKind::Halo,
    ];

    /// Stable snake_case label used in every export format.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::IterStart => "iter_start",
            EventKind::IterEnd => "iter_end",
            EventKind::BarrierEnter => "barrier_enter",
            EventKind::BarrierExit => "barrier_exit",
            EventKind::RowWait => "row_wait",
            EventKind::Precision => "precision",
            EventKind::Bypass => "bypass",
            EventKind::SpmvBytes => "spmv_bytes",
            EventKind::Breakdown => "breakdown",
            EventKind::Fault => "fault",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::CacheEvict => "cache_evict",
            EventKind::Retier => "retier",
            EventKind::Halo => "halo",
        }
    }

    /// Whether the `b` payload is schedule-dependent (spin-poll counts).
    /// Canonical serializations zero exactly these payloads; everything
    /// else in the stream is deterministic by engine construction.
    pub fn payload_is_schedule_dependent(self) -> bool {
        matches!(self, EventKind::BarrierExit | EventKind::RowWait)
    }
}

/// One recorded event. Fixed-size and `Copy` so the ring buffer is a
/// flat array write on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Warp id (host-side sequential cores record as warp 0).
    pub warp: u32,
    /// Solver iteration the event belongs to.
    pub iteration: u32,
    /// Step index within the engine's step table ([`STEP_EPILOGUE`] for
    /// post-loop synthesized events).
    pub step: u16,
    /// What happened.
    pub kind: EventKind,
    /// Per-warp monotone sequence number (ties within one step).
    pub seq: u32,
    /// Kind-specific payload, always deterministic.
    pub a: u64,
    /// Kind-specific payload; schedule-dependent for `BarrierExit` /
    /// `RowWait` (spin-poll counts), deterministic otherwise.
    pub b: u64,
}

impl TraceEvent {
    fn zero() -> Self {
        TraceEvent {
            warp: 0,
            iteration: 0,
            step: 0,
            kind: EventKind::IterStart,
            seq: 0,
            a: 0,
            b: 0,
        }
    }

    /// Merge sort key: `(iteration, step, warp, seq)`. Steps within an
    /// iteration are totally ordered by the engine step table, warps
    /// break ties, `seq` orders events inside one `(warp, step)` cell.
    fn key(&self) -> (u32, u16, u32, u32) {
        (self.iteration, self.step, self.warp, self.seq)
    }
}

/// Pack a 4-bin tile-precision histogram (fp64, fp32, fp16, fp8 counts)
/// into the `a` payload of a `Precision` event. Bins saturate at
/// `u16::MAX` tiles.
pub fn pack_precision_histogram(hist: [usize; 4]) -> u64 {
    let mut packed = 0u64;
    for (i, &h) in hist.iter().enumerate() {
        packed |= (h.min(u16::MAX as usize) as u64) << (16 * i);
    }
    packed
}

/// Inverse of [`pack_precision_histogram`].
pub fn unpack_precision_histogram(packed: u64) -> [usize; 4] {
    let mut hist = [0usize; 4];
    for (i, h) in hist.iter_mut().enumerate() {
        *h = ((packed >> (16 * i)) & 0xFFFF) as usize;
    }
    hist
}

/// Per-warp event recorder: a fixed-capacity keep-last-N ring buffer
/// with `Cell` interior mutability (engine warp bodies are immutable
/// closures over their sync handle). Created once per warp *outside*
/// the panic boundary so events survive a warp panic.
#[derive(Debug)]
pub struct WarpTracer {
    warp: u32,
    buf: Vec<Cell<TraceEvent>>,
    head: Cell<usize>,
    len: Cell<usize>,
    seq: Cell<u32>,
    dropped: Cell<u64>,
    polls: Cell<u64>,
    cur_iter: Cell<u32>,
    cur_step: Cell<u16>,
    started: Cell<bool>,
}

impl WarpTracer {
    pub fn new(warp: usize, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        WarpTracer {
            warp: warp as u32,
            buf: vec![Cell::new(TraceEvent::zero()); capacity],
            head: Cell::new(0),
            len: Cell::new(0),
            seq: Cell::new(0),
            dropped: Cell::new(0),
            polls: Cell::new(0),
            cur_iter: Cell::new(0),
            cur_step: Cell::new(0),
            started: Cell::new(false),
        }
    }

    /// Move the stamp to `(iteration, step)`; subsequent [`record`]s
    /// carry these coordinates. Crossing into a new iteration emits the
    /// `IterEnd`/`IterStart` boundary pair.
    ///
    /// [`record`]: WarpTracer::record
    pub fn stamp(&self, iteration: i64, step: usize) {
        let it = iteration.max(0) as u32;
        let boundary = !self.started.get() || it != self.cur_iter.get();
        if boundary && self.started.get() {
            // Close the previous iteration before moving the stamp.
            self.push(EventKind::IterEnd, self.cur_iter.get() as u64, 0);
        }
        self.cur_iter.set(it);
        self.cur_step
            .set(step.min(STEP_EPILOGUE as usize - 1) as u16);
        if boundary {
            self.started.set(true);
            self.push(EventKind::IterStart, it as u64, 0);
        }
    }

    /// Record one event at the current stamp.
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        self.push(kind, a, b);
    }

    fn push(&self, kind: EventKind, a: u64, b: u64) {
        let ev = TraceEvent {
            warp: self.warp,
            iteration: self.cur_iter.get(),
            step: self.cur_step.get(),
            kind,
            seq: self.seq.get(),
            a,
            b,
        };
        self.seq.set(self.seq.get().wrapping_add(1));
        let cap = self.buf.len();
        if self.len.get() < cap {
            self.buf[(self.head.get() + self.len.get()) % cap].set(ev);
            self.len.set(self.len.get() + 1);
        } else {
            // Ring full: overwrite the oldest event. The decision
            // depends only on the (deterministic) event count.
            self.buf[self.head.get()].set(ev);
            self.head.set((self.head.get() + 1) % cap);
            self.dropped.set(self.dropped.get() + 1);
        }
    }

    /// Accumulate spin-poll iterations observed by this warp (summed
    /// once per spin site on exit, never per poll).
    pub fn add_polls(&self, n: u64) {
        self.polls.set(self.polls.get() + n);
    }

    /// Total spin polls accumulated so far.
    pub fn polls(&self) -> u64 {
        self.polls.get()
    }

    /// Unroll the ring into the per-warp finish payload.
    pub fn finish(self) -> WarpTrace {
        let cap = self.buf.len();
        let mut events = Vec::with_capacity(self.len.get());
        for i in 0..self.len.get() {
            events.push(self.buf[(self.head.get() + i) % cap].get());
        }
        WarpTrace {
            warp: self.warp,
            events,
            dropped: self.dropped.get(),
            polls: self.polls.get(),
        }
    }
}

/// One warp's finished event stream, ready to merge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarpTrace {
    pub warp: u32,
    pub events: Vec<TraceEvent>,
    pub dropped: u64,
    pub polls: u64,
}

/// The merged, deterministic event stream of one solve, carried by
/// `SolveReport::trace` / `ThreadedReport::trace`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events sorted by `(iteration, step, warp, seq)`.
    pub events: Vec<TraceEvent>,
    /// Number of per-warp streams merged.
    pub warps: usize,
    /// Events lost to ring wraparound, summed over warps.
    pub dropped: u64,
    /// Spin-poll iterations, summed over warps (schedule-dependent).
    pub total_polls: u64,
}

impl Trace {
    /// Merge per-warp streams in deterministic order. Each stream is
    /// already sorted (per-warp `(iteration, step)` stamps and `seq`
    /// are monotone), so a stable sort by the global key suffices.
    pub fn merge(warp_traces: Vec<WarpTrace>) -> Self {
        let warps = warp_traces.len();
        let mut dropped = 0;
        let mut total_polls = 0;
        let mut events = Vec::with_capacity(warp_traces.iter().map(|w| w.events.len()).sum());
        for wt in warp_traces {
            dropped += wt.dropped;
            total_polls += wt.polls;
            events.extend(wt.events);
        }
        events.sort_by_key(|e| e.key());
        Trace {
            events,
            warps,
            dropped,
            total_polls,
        }
    }

    /// Append post-loop synthesized events (breakdown/recovery trail)
    /// and restore sorted order. Synthesized events use
    /// [`STEP_EPILOGUE`] so they land after every real step of their
    /// iteration.
    pub fn append_epilogue(&mut self, events: impl IntoIterator<Item = TraceEvent>) {
        self.events.extend(events);
        self.events.sort_by_key(|e| e.key());
    }

    /// Build a synthesized breakdown event (step = [`STEP_EPILOGUE`]).
    pub fn breakdown_event(
        iteration: usize,
        kind_code: u64,
        action_code: u64,
        seq: u32,
    ) -> TraceEvent {
        TraceEvent {
            warp: 0,
            iteration: iteration.min(u32::MAX as usize) as u32,
            step: STEP_EPILOGUE,
            kind: EventKind::Breakdown,
            seq,
            a: kind_code,
            b: action_code,
        }
    }

    /// Total events of one kind.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Per-precision value bytes summed over `SpmvBytes` events,
    /// indexed fp64, fp32, fp16, fp8.
    pub fn bytes_by_precision(&self) -> [u64; 4] {
        let mut bytes = [0u64; 4];
        for e in &self.events {
            if e.kind == EventKind::SpmvBytes {
                bytes[(e.a as usize).min(3)] += e.b;
            }
        }
        bytes
    }

    /// Tiles skipped via the `vis_flag` bypass, summed over the solve.
    pub fn bypassed_tiles(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Bypass)
            .map(|e| e.a)
            .sum()
    }

    /// Fraction of spin polls per recorded barrier/row-wait exit — a
    /// proxy for the spin-wait share of the solve (schedule-dependent).
    pub fn spin_polls_per_wait(&self) -> f64 {
        let waits = self
            .events
            .iter()
            .filter(|e| e.kind.payload_is_schedule_dependent())
            .count();
        if waits == 0 {
            0.0
        } else {
            self.total_polls as f64 / waits as f64
        }
    }

    /// Full JSONL export: one event per line, including the
    /// schedule-dependent poll payloads.
    pub fn to_jsonl(&self) -> String {
        self.jsonl(false)
    }

    /// Canonical JSONL export: schedule-dependent payloads zeroed, so
    /// the output is bitwise identical across runs and warp schedules
    /// for the same `(matrix, seed, plan, warp count)`.
    pub fn canonical_jsonl(&self) -> String {
        self.jsonl(true)
    }

    fn jsonl(&self, canonical: bool) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 128);
        for e in &self.events {
            let b = if canonical && e.kind.payload_is_schedule_dependent() {
                0
            } else {
                e.b
            };
            let _ = writeln!(
                out,
                "{{\"warp\":{},\"iter\":{},\"step\":{},\"seq\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
                e.warp,
                e.iteration,
                e.step,
                e.seq,
                e.kind.label(),
                e.a,
                b
            );
        }
        out
    }

    /// One-pass aggregate of the merged stream — the shared replacement
    /// for the ad-hoc event counting the benches and tests used to
    /// re-implement over `events`.
    pub fn summary(&self) -> TraceSummary {
        let mut counts = [0usize; EventKind::ALL.len()];
        let mut iterations = 0usize;
        for e in &self.events {
            counts[e.kind as usize] += 1;
            if e.kind == EventKind::IterStart {
                iterations = iterations.max(e.iteration as usize + 1);
            }
        }
        TraceSummary {
            counts,
            warps: self.warps,
            iterations,
            total_polls: self.total_polls,
            dropped: self.dropped,
        }
    }

    /// Chrome `trace_event` JSON (the `{"traceEvents": [...]}` object
    /// form), loadable in Perfetto / `chrome://tracing`. Timestamps are
    /// *logical*: each event's `ts` is its index in the merged
    /// deterministic order and `dur` is 1, so the export is bitwise
    /// identical across runs — the timeline shows causal order, not
    /// wall time. Schedule-dependent payloads are omitted.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 160 + 64);
        out.push_str("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let args = if e.kind.payload_is_schedule_dependent() {
                format!("{{\"a\":{}}}", e.a)
            } else {
                format!("{{\"a\":{},\"b\":{}}}", e.a, e.b)
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"solver\",\"ph\":\"X\",\"ts\":{},\"dur\":1,\"pid\":0,\"tid\":{},\"args\":{{\"iter\":{},\"step\":{},\"payload\":{}}}}}",
                e.kind.label(),
                i,
                e.warp,
                e.iteration,
                e.step,
                args
            );
        }
        out.push_str("]}");
        out
    }
}

/// Aggregate view of one merged [`Trace`]: per-kind event counts plus the
/// derived per-iteration synchronization metrics the benches and the
/// pipelined-parity harness gate on. Produced by [`Trace::summary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Event counts indexed by [`EventKind::ALL`] order (discriminant).
    pub counts: [usize; EventKind::ALL.len()],
    /// Warp streams merged into the trace.
    pub warps: usize,
    /// Iteration-space size: `max(iteration) + 1` over `IterStart`
    /// events (0 when nothing was recorded). Init-phase events stamped
    /// before the first iteration are folded into iteration 0.
    pub iterations: usize,
    /// Spin-poll iterations summed over warps (schedule-dependent).
    pub total_polls: u64,
    /// Events lost to ring wraparound, summed over warps.
    pub dropped: u64,
}

impl TraceSummary {
    /// Count of one event kind.
    pub fn count(&self, kind: EventKind) -> usize {
        self.counts[kind as usize]
    }

    /// Barrier epochs per iteration per warp: every warp records one
    /// `BarrierEnter` per epoch it participates in, so
    /// `count / (warps × iterations)` is the engine's barrier schedule
    /// density — the headline number the pipelined engines cut from ~4
    /// to 1–2. Returns 0.0 for empty traces.
    pub fn barriers_per_iteration(&self) -> f64 {
        let denom = self.warps * self.iterations;
        if denom == 0 {
            0.0
        } else {
            self.count(EventKind::BarrierEnter) as f64 / denom as f64
        }
    }

    /// Spin polls per recorded wait exit (`BarrierExit` + `RowWait`),
    /// schedule-dependent. Returns 0.0 when no waits were recorded.
    pub fn spin_polls_per_wait(&self) -> f64 {
        let waits = self.count(EventKind::BarrierExit) + self.count(EventKind::RowWait);
        if waits == 0 {
            0.0
        } else {
            self.total_polls as f64 / waits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(warp: usize, cap: usize, n: usize) -> WarpTracer {
        let t = WarpTracer::new(warp, cap);
        for i in 0..n {
            t.stamp(i as i64, 0);
            t.record(EventKind::BarrierEnter, i as u64, 0);
            t.record(EventKind::BarrierExit, i as u64, 7 * i as u64);
        }
        t
    }

    #[test]
    fn disabled_config_is_default() {
        let cfg = TraceConfig::default();
        assert!(!cfg.enabled);
        assert_eq!(cfg.capacity_per_warp, DEFAULT_TRACE_CAPACITY);
        assert!(TraceConfig::on().enabled);
        assert_eq!(TraceConfig::with_capacity(3).capacity_per_warp, 3);
    }

    #[test]
    fn stamp_emits_iteration_boundaries() {
        let t = WarpTracer::new(0, 64);
        t.stamp(0, 0);
        t.stamp(0, 1); // same iteration: no boundary
        t.stamp(1, 0);
        let wt = t.finish();
        let kinds: Vec<EventKind> = wt.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::IterStart,
                EventKind::IterEnd,
                EventKind::IterStart
            ]
        );
        assert_eq!(wt.events[1].iteration, 0);
        assert_eq!(wt.events[2].iteration, 1);
    }

    #[test]
    fn ring_keeps_last_n_and_counts_drops() {
        let t = WarpTracer::new(2, 4);
        t.stamp(0, 0); // IterStart = 1 event
        for i in 0..10 {
            t.record(EventKind::Bypass, i, 0);
        }
        let wt = t.finish();
        assert_eq!(wt.events.len(), 4);
        assert_eq!(wt.dropped, 7); // 11 pushed, 4 kept
                                   // Kept events are the newest, in order.
        let a: Vec<u64> = wt.events.iter().map(|e| e.a).collect();
        assert_eq!(a, vec![6, 7, 8, 9]);
        assert!(wt.events.iter().all(|e| e.warp == 2));
    }

    #[test]
    fn seq_orders_events_within_a_step() {
        let t = WarpTracer::new(0, 16);
        t.stamp(3, 2);
        t.record(EventKind::BarrierEnter, 1, 0);
        t.record(EventKind::BarrierExit, 1, 5);
        let wt = t.finish();
        assert!(wt.events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(wt
            .events
            .iter()
            .skip(1)
            .all(|e| e.iteration == 3 && e.step == 2));
    }

    #[test]
    fn merge_is_sorted_and_aggregates() {
        let a = tracer_with(1, 64, 3);
        a.add_polls(10);
        let b = tracer_with(0, 64, 3);
        b.add_polls(32);
        let tr = Trace::merge(vec![a.finish(), b.finish()]);
        assert_eq!(tr.warps, 2);
        assert_eq!(tr.total_polls, 42);
        assert_eq!(tr.dropped, 0);
        let mut keys: Vec<_> = tr.events.iter().map(|e| e.key()).collect();
        let sorted = {
            let mut s = keys.clone();
            s.sort();
            s
        };
        assert_eq!(keys, sorted);
        keys.dedup();
        assert_eq!(keys.len(), tr.events.len(), "keys are unique");
        // Warp 0's events sort before warp 1's inside each step.
        let first_iter0: Vec<u32> = tr
            .events
            .iter()
            .filter(|e| e.iteration == 0 && e.kind == EventKind::BarrierEnter)
            .map(|e| e.warp)
            .collect();
        assert_eq!(first_iter0, vec![0, 1]);
    }

    #[test]
    fn merge_is_invariant_to_input_order() {
        let mk = || {
            vec![
                tracer_with(0, 64, 4).finish(),
                tracer_with(1, 64, 4).finish(),
            ]
        };
        let fwd = Trace::merge(mk());
        let rev = Trace::merge(mk().into_iter().rev().collect());
        assert_eq!(fwd.events, rev.events);
    }

    #[test]
    fn canonical_jsonl_zeroes_only_schedule_dependent_payloads() {
        let t = tracer_with(0, 64, 2);
        let tr = Trace::merge(vec![t.finish()]);
        let full = tr.to_jsonl();
        let canon = tr.canonical_jsonl();
        assert!(full.contains("\"kind\":\"barrier_exit\",\"a\":1,\"b\":7"));
        assert!(canon.contains("\"kind\":\"barrier_exit\",\"a\":1,\"b\":0"));
        // Deterministic payloads survive canonicalization.
        assert!(canon.contains("\"kind\":\"barrier_enter\",\"a\":1,\"b\":0"));
        assert_eq!(full.lines().count(), tr.events.len());
        assert_eq!(canon.lines().count(), tr.events.len());
    }

    #[test]
    fn chrome_trace_shape_and_determinism() {
        let tr = Trace::merge(vec![tracer_with(0, 64, 2).finish()]);
        let json = tr.to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":0"));
        // Logical timestamps: ts equals merged index.
        assert!(json.contains("\"ts\":0"));
        assert!(json.contains(&format!("\"ts\":{}", tr.events.len() - 1)));
        // Poll payloads (schedule-dependent) never appear.
        let t2 = tracer_with(0, 64, 2);
        t2.add_polls(99_999);
        let tr2 = Trace::merge(vec![t2.finish()]);
        assert_eq!(json, tr2.to_chrome_trace());
        // Balanced-brace sanity: crude but catches truncation.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn epilogue_events_sort_after_real_steps() {
        let mut tr = Trace::merge(vec![tracer_with(0, 64, 2).finish()]);
        tr.append_epilogue([Trace::breakdown_event(0, 3, 1, 0)]);
        let last_iter0 = tr.events.iter().rfind(|e| e.iteration == 0).unwrap();
        assert_eq!(last_iter0.kind, EventKind::Breakdown);
        assert_eq!(last_iter0.step, STEP_EPILOGUE);
        assert_eq!((last_iter0.a, last_iter0.b), (3, 1));
    }

    #[test]
    fn precision_histogram_roundtrip() {
        let h = [3usize, 70_000, 0, 12];
        let packed = pack_precision_histogram(h);
        assert_eq!(unpack_precision_histogram(packed), [3, 65_535, 0, 12]);
    }

    #[test]
    fn summaries() {
        let t = WarpTracer::new(0, 64);
        t.stamp(0, 1);
        t.record(EventKind::SpmvBytes, 0, 800);
        t.record(EventKind::SpmvBytes, 2, 64);
        t.record(EventKind::Bypass, 5, 40);
        t.record(EventKind::BarrierExit, 1, 0);
        t.add_polls(12);
        let tr = Trace::merge(vec![t.finish()]);
        assert_eq!(tr.bytes_by_precision(), [800, 0, 64, 0]);
        assert_eq!(tr.bypassed_tiles(), 5);
        assert_eq!(tr.count(EventKind::SpmvBytes), 2);
        assert!((tr.spin_polls_per_wait() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn summary_counts_and_barrier_density() {
        // Two warps × 3 iterations × one barrier pair per iteration.
        let a = tracer_with(0, 64, 3);
        a.add_polls(6);
        let b = tracer_with(1, 64, 3);
        let s = Trace::merge(vec![a.finish(), b.finish()]).summary();
        assert_eq!(s.warps, 2);
        assert_eq!(s.iterations, 3);
        assert_eq!(s.count(EventKind::IterStart), 6);
        assert_eq!(s.count(EventKind::BarrierEnter), 6);
        assert_eq!(s.count(EventKind::BarrierExit), 6);
        assert_eq!(s.count(EventKind::Fault), 0);
        assert!((s.barriers_per_iteration() - 1.0).abs() < 1e-12);
        assert!((s.spin_polls_per_wait() - 1.0).abs() < 1e-12);
        assert_eq!(s.dropped, 0);
        // Summary counts agree with the one-kind-at-a-time counter.
        let tr = Trace::merge(vec![tracer_with(0, 64, 2).finish()]);
        let s2 = tr.summary();
        for k in EventKind::ALL {
            assert_eq!(s2.count(k), tr.count(k), "{}", k.label());
        }
    }

    #[test]
    fn summary_of_empty_trace_is_all_zero() {
        let s = Trace::default().summary();
        assert_eq!(s.iterations, 0);
        assert_eq!(s.warps, 0);
        assert_eq!(s.barriers_per_iteration(), 0.0);
        assert_eq!(s.spin_polls_per_wait(), 0.0);
        assert!(s.counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn tracer_survives_move_across_threads() {
        // WarpTracer is Send (Cell<T: Send> is Send): the engines build
        // it inside a spawned warp and hand it back at join.
        let t = std::thread::spawn(|| {
            let t = WarpTracer::new(4, 16);
            t.stamp(0, 0);
            t.record(EventKind::Fault, 2, 0);
            t.finish()
        })
        .join()
        .unwrap();
        assert_eq!(t.warp, 4);
        assert_eq!(t.events.len(), 2);
    }
}
