//! Drives a workload: the untraced run yields the end-to-end metrics, the
//! traced run the per-layer ones.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::probes;
use crate::stats::{geomean, median, percentile, MIN_BEYOND};
use crate::trace::Tracer;
use crate::workload::{Request, Workload};

/// A p90 with [`MIN_BEYOND`] samples beyond it needs this many samples;
/// the untraced run keeps going past `--seconds` until it has them.
pub const MIN_LATENCY_SAMPLES: usize = 10 * MIN_BEYOND;
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 25;
/// Stop starting requests after this long whatever else holds.
const HARD_CAP_S: f64 = 140.0;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for an exact count).
    pub samples: usize,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Exact counts of the run, reported next to the metrics.
    pub counts: Vec<(&'static str, f64)>,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("solve_ms_p50", "ms"),
    ("solve_ms_p90", "ms"),
    ("rhs_per_s", "1/s"),
    ("solve_ms_geomean", "ms"),
    ("verified_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("sparse.fingerprint_us", "us"),
    ("sparse.tile_ms", "ms"),
    ("sparse.matvec_us", "us"),
    ("precision.low_prec_nnz_ratio", "ratio"),
    ("kernels.spmv_mixed_us", "us"),
    ("kernels.spmv_mixed_gbps", "GB/s"),
    ("kernels.spmv_mixed_par_us", "us"),
    ("kernels.spmv_par_speedup", "x"),
    ("kernels.spmv_csr_us", "us"),
    ("kernels.tiled_over_csr", "x"),
    ("kernels.dot_us", "us"),
    ("kernels.axpy_us", "us"),
    ("kernels.stream_copy_gbps", "GB/s"),
    ("kernels.ilu0_ms", "ms"),
    ("kernels.sptrsv_us", "us"),
    ("solver.preprocess_ms", "ms"),
    ("solver.preprocess_serial_ms", "ms"),
    ("solver.ticketed_over_serial", "x"),
    ("solver.iterations", "count"),
    ("solver.iter_us", "us"),
    ("solver.single_kernel_ratio", "ratio"),
    ("solver.pipelined_ratio", "ratio"),
    ("solver.false_converged", "count"),
    ("threaded.iter_us_w1", "us"),
    ("threaded.iter_us_w2", "us"),
    ("threaded.warp_speedup", "x"),
    ("serve.prepare_hit_us", "us"),
    ("serve.prepare_miss_ms", "ms"),
    ("serve.single_rhs_ms", "ms"),
    ("serve.batch_rhs_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.resident_mb", "MiB"),
    ("baselines.csr_cg_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// Per-right-hand-side outcome counts.
#[derive(Default, Clone, Debug, PartialEq)]
pub struct Tally {
    pub rhs: u64,
    pub verified: u64,
    pub false_converged: u64,
    pub iterations: u64,
    pub panics: u64,
    pub mismatches: u64,
    pub single_kernel: u64,
    pub pipelined: u64,
    pub decisions: u64,
}

impl Tally {
    fn add(&mut self, r: &Request) {
        self.rhs += r.verdicts.len() as u64;
        self.verified += r.verdicts.iter().filter(|v| v.verified).count() as u64;
        self.false_converged += r.verdicts.iter().filter(|v| v.false_converged()).count() as u64;
        self.iterations += r.iterations;
        self.mismatches += r.mismatches;
        if let Some(d) = r.decision {
            self.decisions += 1;
            self.single_kernel += u64::from(d.single_kernel);
            self.pipelined += u64::from(d.pipelined);
        }
    }

    fn attempted(&self) -> u64 {
        self.rhs + self.panics
    }

    /// Panics and bitwise violations always fail; unverified answers fail
    /// where the workload expects every answer to verify.
    fn failed(&self, expects_all_verified: bool) -> u64 {
        let unverified = if expects_all_verified {
            self.rhs - self.verified
        } else {
            0
        };
        self.panics + self.mismatches + unverified
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("rhs", self.rhs as f64),
            ("verified", self.verified as f64),
            ("false_converged", self.false_converged as f64),
            ("iterations", self.iterations as f64),
            ("panics", self.panics as f64),
            ("bitwise_mismatches", self.mismatches as f64),
        ]
    }
}

/// Request `i`, with a panic turned into `None`.
fn guarded(w: &mut dyn Workload, i: usize, tr: &mut Tracer) -> Option<Request> {
    catch_unwind(AssertUnwindSafe(|| w.request(i, tr))).ok()
}

/// Repeated set-ups; the median is `setup_s`.
fn timed_setup(w: &mut dyn Workload) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < SETUP_MAX_REPS
        && (walls.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_S)
    {
        let t = Instant::now();
        w.setup();
        walls.push(t.elapsed().as_secs_f64());
    }
    walls
}

/// The untraced run: set-up, then the seeded stream for `seconds` (whole
/// passes for a fixed population), every answer verified.
pub fn run_untraced(w: &mut dyn Workload, seconds: f64) -> Result<Outcome, String> {
    let setup = timed_setup(w);
    let mut tr = Tracer::new(false);
    let mut tally = Tally::default();
    let pop = w.population();
    // Stream: one sample per single request. Population: one list per
    // entry, one sample per pass.
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); pop.unwrap_or(0)];
    let mut singles = Vec::new();
    let mut first: Vec<Option<Vec<u64>>> = vec![None; pop.unwrap_or(0)];
    let (mut rhs, mut wall) = (0u64, 0.0);
    let start = Instant::now();
    let mut i = 0;
    loop {
        let el = start.elapsed().as_secs_f64();
        let done = match pop {
            Some(n) => i > 0 && i % n == 0 && el + el / (i / n) as f64 > seconds,
            None => el >= seconds && singles.len() >= MIN_LATENCY_SAMPLES,
        };
        if done || el >= HARD_CAP_S {
            break;
        }
        match (guarded(w, i, &mut tr), pop) {
            (None, _) => tally.panics += 1,
            (Some(r), Some(n)) => {
                let k = i % n;
                samples[k].push(r.wall_s);
                match &first[k] {
                    None => {
                        tally.add(&r);
                        first[k] = Some(r.x_hashes);
                    }
                    // Later passes repeat the first one bit for bit.
                    Some(h) => tally.mismatches += u64::from(*h != r.x_hashes) + r.mismatches,
                }
            }
            (Some(r), None) => {
                tally.add(&r);
                rhs += r.verdicts.len() as u64;
                wall += r.wall_s;
                if r.single {
                    singles.push(r.wall_s);
                }
            }
        }
        i += 1;
    }
    if pop.is_some() {
        singles = samples
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
            .collect();
        rhs = singles.len() as u64;
        wall = singles.iter().sum();
    }
    let n = singles.len();
    if n == 0 {
        return Err("no request completed".into());
    }
    let p90 = percentile(&singles, 0.9).ok_or_else(|| {
        format!("p90 refused: {n} samples leave fewer than {MIN_BEYOND} beyond it")
    })?;
    let values = [
        (median(&singles) * 1e3, n),
        (p90 * 1e3, n),
        (rhs as f64 / wall, rhs as usize),
        (geomean(&singles) * 1e3, n),
        (
            tally.verified as f64 / tally.rhs.max(1) as f64,
            tally.rhs as usize,
        ),
        (median(&setup), setup.len()),
        (crate::host::peak_rss_mb(), 1),
    ];
    let mut counts = tally.counts();
    counts.push(("requests", i as f64));
    Ok(Outcome {
        correct: tally.failed(w.expects_all_verified()) == 0,
        attempted: tally.attempted(),
        failed: tally.failed(w.expects_all_verified()),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, samples))| Metric {
                name,
                value,
                unit,
                samples,
            })
            .collect(),
        counts,
    })
}

/// The traced run: one fixed-length stream run twice in lock-step on two
/// copies of the workload, `plain` untraced and `traced` traced
/// (alternating which goes first), then the layer probes. Returns the
/// outcome and the recorded trace.
pub fn run_traced(
    mut plain: Box<dyn Workload>,
    mut traced: Box<dyn Workload>,
    seconds: f64,
    seed: u64,
) -> Result<(Outcome, Tracer), String> {
    plain.setup();
    traced.setup();
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let mut tally = Tally::default();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    for i in 0..traced.traced_requests() {
        let (p, t) = if i % 2 == 0 {
            let p = guarded(plain.as_mut(), i, &mut off);
            (p, guarded(traced.as_mut(), i, &mut tr))
        } else {
            let t = guarded(traced.as_mut(), i, &mut tr);
            (guarded(plain.as_mut(), i, &mut off), t)
        };
        let (Some(p), Some(t)) = (p, t) else {
            tally.panics += 1;
            continue;
        };
        // Tracing splits calls but must not change a single bit.
        tally.mismatches += u64::from(p.x_hashes != t.x_hashes) + p.mismatches;
        tally.add(&t);
        if t.single {
            plain_walls.push(p.wall_s);
            traced_walls.push(t.wall_s);
        }
    }
    if traced_walls.is_empty() {
        return Err("no traced request completed".into());
    }
    let overhead = if traced.population().is_some() {
        geomean(&traced_walls) / geomean(&plain_walls) - 1.0
    } else {
        median(&traced_walls) / median(&plain_walls) - 1.0
    };
    let stream_serve = traced.serve_counters();
    let budget = (seconds * 0.01).clamp(0.02, 0.5);
    let probe_serve = probes::run(traced.probe_matrix(), &mut tr, budget, seed);
    let serve = stream_serve.or(probe_serve).ok_or("no serve counters")?;

    let med = |name: &str, scale: f64| -> Result<(f64, usize), String> {
        let s = tr.self_times(name);
        if s.is_empty() {
            return Err(format!("no spans named {name}"));
        }
        Ok((median(&s) * scale, s.len()))
    };
    let per_iter = |name: &str, iters: &str| -> Result<(f64, usize), String> {
        let s = tr.self_times(name);
        let it = tr.counter(iters);
        if s.is_empty() || it == 0.0 {
            return Err(format!("no iterations under {name}"));
        }
        Ok((s.iter().sum::<f64>() / it * 1e6, it as usize))
    };
    let ratio = |a: (f64, usize), b: (f64, usize)| (a.0 / b.0, a.1.min(b.1));
    let exact = |v: f64| (v, 1usize);

    let spmv = med("kernels.spmv_mixed", 1e6)?;
    let spmv_par = med("kernels.spmv_mixed_par", 1e6)?;
    let csr = med("kernels.spmv_csr", 1e6)?;
    let copy = med("kernels.stream_copy", 1.0)?;
    let pre = med("solver.preprocess", 1e3)?;
    let pre_serial = med("solver.preprocess_serial", 1e3)?;
    let pre_ticketed = med("solver.preprocess_ticketed", 1e3)?;
    let w1 = per_iter("threaded.cg_w1", "threaded.cg_w1_iterations")?;
    let w2 = per_iter("threaded.cg_w2", "threaded.cg_w2_iterations")?;
    let batch = med("serve.batch", 1e3)?;
    let singles = tr.durations("serve.single");
    let lookups = (serve.hits + serve.misses).max(1) as f64;
    let decisions = tally.decisions.max(1) as f64;
    let values = [
        med("sparse.fingerprint", 1e6)?,
        med("sparse.tile", 1e3)?,
        med("sparse.matvec", 1e6)?,
        exact(tr.counter("precision.low_prec_nnz_ratio")),
        spmv,
        (
            tr.counter("kernels.spmv_computed_bytes") / (spmv.0 * 1e-6) / 1e9,
            spmv.1,
        ),
        spmv_par,
        ratio(spmv, spmv_par),
        csr,
        ratio(spmv, csr),
        med("kernels.dot", 1e6)?,
        med("kernels.axpy", 1e6)?,
        (
            tr.counter("kernels.stream_copy_bytes") / copy.0 / 1e9,
            copy.1,
        ),
        med("kernels.ilu0", 1e3)?,
        med("kernels.sptrsv", 1e6)?,
        pre,
        pre_serial,
        ratio(pre_ticketed, pre_serial),
        exact(tally.iterations as f64),
        per_iter("solver.iterate", "solver.iterate_iterations")?,
        exact(tally.single_kernel as f64 / decisions),
        exact(tally.pipelined as f64 / decisions),
        exact(tally.false_converged as f64),
        w1,
        w2,
        ratio(w1, w2),
        med("serve.prepare_hit", 1e6)?,
        med("serve.prepare_miss", 1e3)?,
        (median(&singles) * 1e3, singles.len()),
        (
            batch.0 / crate::workloads::serve_mixed::BATCH_K as f64,
            batch.1,
        ),
        exact(serve.hits as f64 / lookups),
        exact(serve.evictions as f64),
        exact(serve.resident_bytes as f64 / (1u64 << 20) as f64),
        med("baselines.csr_cg", 1e3)?,
        (overhead, traced_walls.len()),
    ];
    let mut counts = tally.counts();
    counts.extend([
        ("cache_hits", serve.hits as f64),
        ("cache_misses", serve.misses as f64),
        ("cache_evictions", serve.evictions as f64),
    ]);
    let failed = tally.failed(traced.expects_all_verified());
    let outcome = Outcome {
        correct: failed == 0,
        attempted: tally.attempted(),
        failed,
        metrics: PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, samples))| Metric {
                name,
                value,
                unit,
                samples,
            })
            .collect(),
        counts,
    };
    Ok((outcome, tr))
}
