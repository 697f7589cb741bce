//! `cold-cg`: one-shot `MilleFeuille::solve_cg` requests on one 2-D
//! Poisson stencil, each with a fresh seeded b and its own preprocessing.
//!
//! The stencil is below `AUTO_PAR_NNZ`, so the default config runs the
//! serial kernels, and its working set fits in L2. Larger stencils made the
//! run-to-run spread too wide to gate on (see `perfbench/README.md`); the
//! parallel kernels and the ticketed preprocessing are measured per layer.

use std::time::Instant;

use mf_gpu::DeviceSpec;
use mf_solver::{ExecutedMode, MilleFeuille, SolverWorkspace};
use mf_sparse::Csr;

use crate::rng;
use crate::trace::Tracer;
use crate::verify::Verdict;
use crate::workload::{Decision, Request, Workload};

/// poisson2d(80,80): n = 6 400, 31 680 nnz < `AUTO_PAR_NNZ` (65 536).
pub const GRID: usize = 80;

pub struct ColdCg {
    a: Csr,
    facade: MilleFeuille,
    seed: u64,
}

impl ColdCg {
    pub fn new(grid: usize, seed: u64) -> ColdCg {
        ColdCg {
            a: mf_collection::poisson2d(grid, grid),
            facade: MilleFeuille::with_defaults(DeviceSpec::a100()),
            seed,
        }
    }
}

const TAG_REQ: u64 = 1;
const TAG_SETUP: u64 = 2;

impl Workload for ColdCg {
    fn setup(&mut self) {
        let b = rng::rhs(self.seed, TAG_SETUP, 0, self.a.nrows);
        self.facade.solve_cg(&self.a, &b);
    }

    fn request(&mut self, i: usize, tr: &mut Tracer) -> Request {
        let (a, facade) = (&self.a, &self.facade);
        let b = rng::rhs(self.seed, TAG_REQ, i as u64, a.nrows);
        let req = tr.begin("request", i as u64);
        let t = Instant::now();
        // Traced: the same request as `preprocess` + `solve_cg_preprocessed`,
        // bitwise identical to `solve_cg`, so each layer gets its own span.
        let (rep, pre) = if tr.is_on() {
            let pre = tr.span("solver.preprocess", i as u64, || facade.preprocess(a));
            let mut ws = SolverWorkspace::new();
            let rep = tr.span("solver.iterate", i as u64, || {
                facade.solve_cg_preprocessed(a, &pre, &b, &mut ws)
            });
            (rep, Some(pre))
        } else {
            (facade.solve_cg(a, &b), None)
        };
        let wall_s = t.elapsed().as_secs_f64();
        tr.end(req);
        tr.count("solver.iterate_iterations", rep.iterations as f64);
        let decision = pre.map(|p| Decision {
            single_kernel: rep.mode == ExecutedMode::SingleKernel,
            pipelined: facade.decide_pipeline(&p.tiled, rep.mode),
        });
        Request {
            wall_s,
            single: true,
            verdicts: vec![Verdict::check(
                a,
                &rep.x,
                &b,
                rep.converged,
                facade.config.tolerance,
            )],
            x_hashes: vec![rng::bits_hash(&rep.x)],
            iterations: rep.iterations as u64,
            mismatches: 0,
            decision,
        }
    }

    fn traced_requests(&self) -> usize {
        24
    }

    fn probe_matrix(&self) -> &Csr {
        &self.a
    }

    fn matrices(&self) -> Vec<(String, &Csr)> {
        vec![(
            format!("poisson2d_{}", (self.a.nrows as f64).sqrt() as usize),
            &self.a,
        )]
    }
}
