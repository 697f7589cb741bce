pub mod cold_cg;
pub mod serve_mixed;
pub mod suite_verify;

use crate::workload::Workload;

pub const NAMES: [&str; 3] = ["cold-cg", "serve-mixed", "suite-verify"];

/// The named workload at its benchmark size, inputs drawn from `seed`.
pub fn make(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cold-cg" => Box::new(cold_cg::ColdCg::new(cold_cg::GRID, seed)),
        "serve-mixed" => Box::new(serve_mixed::ServeMixed::new(serve_mixed::GRID, seed)),
        "suite-verify" => Box::new(suite_verify::SuiteVerify::new(
            suite_verify::COUNT,
            suite_verify::MAX_NNZ,
            &suite_verify::KEEP_ABOVE_MAX_NNZ,
            seed,
        )),
        _ => return None,
    })
}
