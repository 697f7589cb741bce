//! What every workload provides to the runner.

use mf_sparse::Csr;

use crate::trace::Tracer;
use crate::verify::Verdict;

/// One request of a workload's seeded stream, as seen by the client.
pub struct Request {
    /// Wall time of the program work, excluding input generation and
    /// verification.
    pub wall_s: f64,
    /// A single-right-hand-side request (the latency percentiles cover
    /// only these; batches count toward throughput).
    pub single: bool,
    /// One verdict per right-hand side.
    pub verdicts: Vec<Verdict>,
    /// Bit-pattern hash of each solution, for bitwise cross-checks.
    pub x_hashes: Vec<u64>,
    pub iterations: u64,
    /// Bitwise-contract violations the request itself detected.
    pub mismatches: u64,
    /// The solver's automatic choices, recorded in the traced run only.
    pub decision: Option<Decision>,
}

#[derive(Clone, Copy, Debug)]
pub struct Decision {
    pub single_kernel: bool,
    pub pipelined: bool,
}

/// Preprocessing-cache counters of a `SolveService`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub resident_bytes: usize,
}

pub trait Workload {
    /// One set-up pass; the runner repeats it and the last one stays in
    /// effect for the timed requests.
    fn setup(&mut self);
    /// Request `i` of the stream; spans are recorded into `tr` when it is on.
    fn request(&mut self, i: usize, tr: &mut Tracer) -> Request;
    /// `Some(n)` for a fixed population of `n` requests, run in whole passes.
    fn population(&self) -> Option<usize> {
        None
    }
    /// Length of the traced run's fixed stream (fixed so its counts repeat).
    fn traced_requests(&self) -> usize;
    /// Whether an unverified answer is a failed operation (it is not on a
    /// population that is measured for its known false convergences).
    fn expects_all_verified(&self) -> bool {
        true
    }
    /// The matrix the per-layer kernel probes run on.
    fn probe_matrix(&self) -> &Csr;
    /// Every distinct matrix, for the working-set descriptor.
    fn matrices(&self) -> Vec<(String, &Csr)>;
    fn serve_counters(&self) -> Option<ServeCounters> {
        None
    }
}
