//! `serve-mixed`: one closed-loop client driving one `SolveService`
//! (ILU(0)-preconditioned singles, blocked-CG batches) whose cache holds
//! fewer matrices than the tenant set.
//!
//! The stream is built in rounds of `HOT + 2` requests: first a single on
//! a cold tenant (a guaranteed miss that evicts the other cold tenant),
//! then one single on each hot tenant in seeded order (guaranteed hits),
//! then one batch of `BATCH_K` right-hand sides on a seeded hot tenant.
//! One miss in every `HOT + 1` singles keeps p50 inside the hit mode and
//! p90 inside the miss mode, with a miss share that every seed shares.

use std::time::Instant;

use mf_gpu::DeviceSpec;
use mf_serve::{CacheConfig, ServeConfig, SolveService};
use mf_solver::{ExecutedMode, MilleFeuille, SolverWorkspace};
use mf_sparse::Csr;

use crate::rng;
use crate::trace::Tracer;
use crate::verify::{bitwise_eq, Verdict};
use crate::workload::{Decision, Request, ServeCounters, Workload};

/// Tenants are `poisson2d(80,80) + s·I`: n = 6 400, 31 680 nnz, below
/// `AUTO_PAR_NNZ`, so every kernel runs serially.
pub const GRID: usize = 80;
const HOT: usize = 3;
const COLD: usize = 2;
pub const BATCH_K: usize = 4;
const ROUND: usize = HOT + 2;
/// Every this many rounds, the first hot single is re-solved cold through
/// the facade and must match bitwise.
const CHECK_EVERY: usize = 4;

const TAG_REQ: u64 = 21;
const TAG_ORDER: u64 = 22;
const TAG_BATCH: u64 = 23;

fn config() -> ServeConfig {
    ServeConfig {
        precondition: true,
        cache: CacheConfig {
            max_entries: HOT + 1,
            ..CacheConfig::default()
        },
        ..ServeConfig::default()
    }
}

pub struct ServeMixed {
    tenants: Vec<Csr>,
    service: SolveService,
    /// Same device and solver config as the service: the cold reference.
    facade: MilleFeuille,
    seed: u64,
}

impl ServeMixed {
    pub fn new(grid: usize, seed: u64) -> ServeMixed {
        let base = mf_collection::poisson2d(grid, grid);
        let tenants = (0..HOT + COLD)
            .map(|t| mf_kernels::diag_shifted(&base, 0.05 + 0.01 * t as f64))
            .collect();
        let cfg = config();
        ServeMixed {
            tenants,
            facade: MilleFeuille::new(DeviceSpec::a100(), cfg.solver.clone()),
            service: SolveService::new(cfg),
            seed,
        }
    }

    /// `(tenant, batch?)` of request `i`.
    fn slot(&self, i: usize) -> (usize, bool) {
        let (round, k) = (i / ROUND, i % ROUND);
        if k == 0 {
            (HOT + (round + 1) % COLD, false)
        } else if k <= HOT {
            (
                rng::permutation(self.seed, TAG_ORDER, round as u64, HOT)[k - 1],
                false,
            )
        } else {
            (
                (rng::stream(self.seed, TAG_BATCH, round as u64) % HOT as u64) as usize,
                true,
            )
        }
    }
}

impl Workload for ServeMixed {
    /// Cache warm-up on a fresh service: the first cold tenant, then the
    /// hot set, so the cold entry is least recently used.
    fn setup(&mut self) {
        self.service = SolveService::new(config());
        self.service.prepare(&self.tenants[HOT]);
        for t in &self.tenants[..HOT] {
            self.service.prepare(t);
        }
    }

    fn request(&mut self, i: usize, tr: &mut Tracer) -> Request {
        let (tenant, batch) = self.slot(i);
        let a = &self.tenants[tenant];
        let tol = self.facade.config.tolerance;
        let id = i as u64;
        if batch {
            let rhss: Vec<Vec<f64>> = (0..BATCH_K)
                .map(|j| rng::rhs(self.seed, TAG_REQ, (id << 8) | j as u64, a.nrows))
                .collect();
            let req = tr.begin("serve.batch", id);
            let t = Instant::now();
            let out = self.service.solve_batch(a, &rhss);
            let wall_s = t.elapsed().as_secs_f64();
            tr.end(req);
            return Request {
                wall_s,
                single: false,
                verdicts: out
                    .iter()
                    .zip(&rhss)
                    .map(|(o, b)| Verdict::check(a, &o.x, b, o.converged, tol))
                    .collect(),
                x_hashes: out.iter().map(|o| rng::bits_hash(&o.x)).collect(),
                iterations: out.iter().map(|o| o.iterations as u64).sum(),
                mismatches: 0,
                decision: None,
            };
        }
        let b = rng::rhs(self.seed, TAG_REQ, id << 8, a.nrows);
        let req = tr.begin("serve.single", id);
        let t = Instant::now();
        // Traced: `SolveService::solve` as its two calls, prepare (named by
        // its cache outcome) and the facade solve on the prepared state.
        let (rep, hit, decision) = if tr.is_on() {
            let sp = tr.begin("serve.prepare", id);
            let (prepared, hit) = self.service.prepare(a);
            tr.end_as(
                sp,
                Some(if hit {
                    "serve.prepare_hit"
                } else {
                    "serve.prepare_miss"
                }),
            );
            let facade = &self.facade;
            let rep = tr.span("solver.iterate", id, || match &prepared.ilu {
                Some(ilu) => facade.solve_pcg_preprocessed(a, &prepared.pre, &b, ilu),
                None => {
                    facade.solve_cg_preprocessed(a, &prepared.pre, &b, &mut SolverWorkspace::new())
                }
            });
            let d = Decision {
                single_kernel: prepared.mode == ExecutedMode::SingleKernel,
                pipelined: prepared.pipelined,
            };
            (rep, hit, Some(d))
        } else {
            let r = self.service.solve(a, &b);
            (r.report, r.cache_hit, None)
        };
        let wall_s = t.elapsed().as_secs_f64();
        tr.end(req);
        tr.count("solver.iterate_iterations", rep.iterations as f64);
        let expect_hit = tenant < HOT;
        let mut mismatches = u64::from(hit != expect_hit);
        if hit && i % (ROUND * CHECK_EVERY) == 1 {
            // mf-serve's determinism contract: a hit is bitwise a cold solve.
            let cold = self
                .facade
                .solve_pcg(a, &b)
                .map(|r| r.x)
                .unwrap_or_default();
            mismatches += u64::from(!bitwise_eq(&cold, &rep.x));
        }
        Request {
            wall_s,
            single: true,
            verdicts: vec![Verdict::check(a, &rep.x, &b, rep.converged, tol)],
            x_hashes: vec![rng::bits_hash(&rep.x)],
            iterations: rep.iterations as u64,
            mismatches,
            decision,
        }
    }

    fn traced_requests(&self) -> usize {
        8 * ROUND
    }

    fn probe_matrix(&self) -> &Csr {
        &self.tenants[0]
    }

    fn matrices(&self) -> Vec<(String, &Csr)> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(t, a)| (format!("tenant{t}"), a))
            .collect()
    }

    fn serve_counters(&self) -> Option<ServeCounters> {
        let s = self.service.cache_stats();
        Some(ServeCounters {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            resident_bytes: self.service.cache_bytes(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_has_one_cold_miss_per_round_and_seeded_order() {
        let w = ServeMixed::new(6, 1);
        for round in 0..6 {
            let slots: Vec<_> = (0..ROUND).map(|k| w.slot(round * ROUND + k)).collect();
            assert_eq!(slots[0], (HOT + (round + 1) % COLD, false));
            let mut hot: Vec<usize> = slots[1..=HOT].iter().map(|s| s.0).collect();
            hot.sort_unstable();
            assert_eq!(hot, (0..HOT).collect::<Vec<_>>());
            assert!(slots[ROUND - 1].1 && slots[ROUND - 1].0 < HOT);
        }
        let other = ServeMixed::new(6, 2);
        assert!((0..10 * ROUND).any(|i| w.slot(i) != other.slot(i)));
    }
}
