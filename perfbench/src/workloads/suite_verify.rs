//! `suite-verify`: both paper sweep populations, CG entries through
//! `MilleFeuille::solve_cg` and BiCGSTAB entries through `solve_bicgstab`,
//! with b = A·1 and the default config except `HostParallelism::Serial`.
//! The population is fixed; the seed sets the order in which it is solved.
//!
//! Serial keeps the three entries above `AUTO_PAR_NNZ` (a third of the
//! pass) off the 2-thread path, whose wall time follows how much of the
//! second vCPU the host steals; the parallel and serial builds are bitwise
//! identical, so every verdict is the same either way.
//!
//! The sweep's named proxies are not capped by `max_nnz`; those above it
//! are left out to bound the pass time, except the ones known to report
//! convergence with a wrong answer, which stay in so the defect shows.

use std::time::Instant;

use mf_collection::{bicgstab_suite, cg_suite, SolverKind, SuiteOptions};
use mf_gpu::DeviceSpec;
use mf_solver::{ExecutedMode, HostParallelism, MilleFeuille, SolverConfig};
use mf_sparse::Csr;

use crate::rng;
use crate::stats;
use crate::trace::Tracer;
use crate::verify::Verdict;
use crate::workload::{Decision, Request, Workload};

pub const COUNT: usize = 120;
pub const MAX_NNZ: usize = 60_000;
/// Named proxies above `MAX_NNZ` that report a false convergence.
pub const KEEP_ABOVE_MAX_NNZ: [&str; 3] = ["majorbasis", "garon2", "torso2"];
/// A solve shorter than this is repeated until the repeats add up to it,
/// and its wall is their median.
const MIN_ENTRY_S: f64 = 2e-3;
const MAX_REPS: usize = 64;

const TAG_ORDER: u64 = 31;

struct Entry {
    name: String,
    kind: SolverKind,
    a: Csr,
    b: Vec<f64>,
}

pub struct SuiteVerify {
    entries: Vec<Entry>,
    order: Vec<usize>,
    /// The largest CG entry: set-up request and probe matrix.
    rep: usize,
    facade: MilleFeuille,
}

impl SuiteVerify {
    /// The sweeps at `count`/`max_nnz`, keeping the entries in `keep`
    /// whatever their size.
    pub fn new(count: usize, max_nnz: usize, keep: &[&str], seed: u64) -> SuiteVerify {
        let opts = SuiteOptions {
            count,
            max_nnz,
            ..SuiteOptions::default()
        };
        let entries: Vec<Entry> = cg_suite(&opts)
            .into_iter()
            .chain(bicgstab_suite(&opts))
            .filter_map(|e| {
                let a = e.generate();
                let keep = a.nnz() <= max_nnz || keep.contains(&e.name.as_str());
                keep.then(|| {
                    let mut b = vec![0.0; a.nrows];
                    a.matvec(&vec![1.0; a.ncols], &mut b);
                    Entry {
                        name: e.name,
                        kind: e.kind,
                        a,
                        b,
                    }
                })
            })
            .collect();
        let rep = (0..entries.len())
            .filter(|&k| entries[k].kind == SolverKind::Cg && entries[k].a.nnz() <= max_nnz)
            .max_by_key(|&k| entries[k].a.nnz())
            .expect("the CG sweep is never empty");
        SuiteVerify {
            order: rng::permutation(seed, TAG_ORDER, 0, entries.len()),
            entries,
            rep,
            facade: MilleFeuille::new(
                DeviceSpec::a100(),
                SolverConfig {
                    host_parallelism: HostParallelism::Serial,
                    ..SolverConfig::default()
                },
            ),
        }
    }

    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.name.as_str())
    }
}

impl Workload for SuiteVerify {
    fn setup(&mut self) {
        let e = &self.entries[self.rep];
        self.facade.solve_cg(&e.a, &e.b);
    }

    fn request(&mut self, i: usize, tr: &mut Tracer) -> Request {
        let e = &self.entries[self.order[i % self.entries.len()]];
        let facade = &self.facade;
        let solve = || match e.kind {
            SolverKind::Cg => facade.solve_cg(&e.a, &e.b),
            SolverKind::Bicgstab => facade.solve_bicgstab(&e.a, &e.b),
        };
        let req = tr.begin("request", i as u64);
        let (mut walls, mut total) = (Vec::new(), 0.0);
        let mut hashes = Vec::new();
        let mut rep = None;
        while walls.is_empty() || (total < MIN_ENTRY_S && walls.len() < MAX_REPS) {
            let t = Instant::now();
            let r = tr.span("solver.solve", i as u64, solve);
            let w = t.elapsed().as_secs_f64();
            walls.push(w);
            total += w;
            hashes.push(rng::bits_hash(&r.x));
            rep = Some(r);
        }
        tr.end(req);
        let rep = rep.expect("at least one solve");
        // Repeats of one deterministic solve must agree bit for bit.
        let mismatches = hashes.iter().filter(|&&h| h != hashes[0]).count() as u64;
        let decision = tr.is_on().then(|| Decision {
            single_kernel: rep.mode == ExecutedMode::SingleKernel,
            pipelined: facade.decide_pipeline(&facade.preprocess(&e.a).tiled, rep.mode),
        });
        Request {
            wall_s: stats::median(&walls),
            single: true,
            verdicts: vec![Verdict::check(
                &e.a,
                &rep.x,
                &e.b,
                rep.converged,
                facade.config.tolerance,
            )],
            x_hashes: vec![hashes[0]],
            iterations: rep.iterations as u64,
            mismatches,
            decision,
        }
    }

    fn population(&self) -> Option<usize> {
        Some(self.entries.len())
    }

    fn traced_requests(&self) -> usize {
        self.entries.len()
    }

    fn expects_all_verified(&self) -> bool {
        false
    }

    fn probe_matrix(&self) -> &Csr {
        &self.entries[self.rep].a
    }

    fn matrices(&self) -> Vec<(String, &Csr)> {
        let largest = self
            .entries
            .iter()
            .max_by_key(|e| e.a.nnz())
            .expect("non-empty");
        vec![
            (
                format!("{} (set-up, probes)", self.entries[self.rep].name),
                &self.entries[self.rep].a,
            ),
            (format!("{} (largest)", largest.name), &largest.a),
        ]
    }
}
