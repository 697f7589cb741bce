//! Self-tests of the benchmark on reduced sizes of its own workloads.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::runner::{run_traced, run_untraced, Outcome};
use crate::trace::Tracer;
use crate::workload::Workload;
use crate::workloads::{cold_cg::ColdCg, serve_mixed::ServeMixed, suite_verify};

fn small(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "cold-cg" => Box::new(ColdCg::new(16, seed)),
        "serve-mixed" => Box::new(ServeMixed::new(12, seed)),
        "suite-verify" => Box::new(suite_verify::SuiteVerify::new(16, 3_000, &[], seed)),
        _ => unreachable!(),
    }
}

fn traced(name: &str, seed: u64) -> Outcome {
    run_traced(small(name, seed), small(name, seed), 1.0, seed)
        .expect("traced run")
        .0
}

#[test]
fn one_seed_reproduces_the_exact_counts() {
    for name in crate::workloads::NAMES {
        let (a, b) = (traced(name, 7), traced(name, 7));
        assert!(a.correct, "{name}");
        let names: Vec<_> = a.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, crate::runner::PER_LAYER.map(|(n, _)| n), "{name}");
        assert_eq!(a.counts, b.counts, "{name}");
        for m in [
            "solver.iterations",
            "solver.false_converged",
            "serve.hit_ratio",
            "serve.evictions",
        ] {
            let v = |o: &Outcome| o.metrics.iter().find(|x| x.name == m).unwrap().value;
            assert_eq!(v(&a).to_bits(), v(&b).to_bits(), "{name} {m}");
        }
    }
}

#[test]
fn a_different_seed_changes_the_inputs() {
    for name in crate::workloads::NAMES {
        let (mut a, mut b) = (small(name, 1), small(name, 2));
        let mut off = Tracer::new(false);
        let differs =
            (0..8).any(|i| a.request(i, &mut off).x_hashes != b.request(i, &mut off).x_hashes);
        assert!(differs, "{name}");
    }
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let mut w = small("serve-mixed", 3);
    let o = run_untraced(w.as_mut(), 0.1).expect("untraced run");
    assert!(o.correct && o.failed == 0);
    let names: Vec<_> = o.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, crate::runner::END_TO_END.map(|(n, _)| n));
    assert!(o
        .metrics
        .iter()
        .all(|m| m.value.is_finite() && m.value > 0.0));
}

#[test]
fn population_keeps_every_known_false_convergence() {
    let w = suite_verify::SuiteVerify::new(
        suite_verify::COUNT,
        suite_verify::MAX_NNZ,
        &suite_verify::KEEP_ABOVE_MAX_NNZ,
        1,
    );
    let names: Vec<&str> = w.names().collect();
    for must in [
        "majorbasis",
        "garon2",
        "torso2",
        "nonsym_convdiff2d_84",
        "nonsym_convdiff2d_91",
    ] {
        assert!(names.contains(&must), "{must} missing");
    }
}
