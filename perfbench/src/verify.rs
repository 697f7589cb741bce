//! Independent answer check: the true FP64 residual against the original
//! CSR matrix, computed with `Csr::matvec`, never the solver's recurrence.

use mf_sparse::Csr;

/// A right-hand side counts as verified when the solver reports
/// convergence and the true residual is within this factor of `tol`.
pub const VERIFY_FACTOR: f64 = 10.0;

/// ‖b − A·x‖ / ‖b‖ in FP64.
pub fn true_relres(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; a.nrows];
    a.matvec(x, &mut ax);
    let (mut rr, mut bb) = (0.0, 0.0);
    for (bi, axi) in b.iter().zip(&ax) {
        rr += (bi - axi) * (bi - axi);
        bb += bi * bi;
    }
    (rr / bb.max(f64::MIN_POSITIVE)).sqrt()
}

/// Outcome of one right-hand side.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Verdict {
    pub converged: bool,
    pub verified: bool,
}

impl Verdict {
    pub fn check(a: &Csr, x: &[f64], b: &[f64], converged: bool, tol: f64) -> Verdict {
        let relres = true_relres(a, x, b);
        Verdict {
            converged,
            verified: converged && relres.is_finite() && relres <= VERIFY_FACTOR * tol,
        }
    }

    /// The solver said "converged" but the answer is wrong.
    pub fn false_converged(self) -> bool {
        self.converged && !self.verified
    }
}

/// Bitwise equality of two solution vectors.
pub fn bitwise_eq(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifier_rejects_a_perturbed_x() {
        let a = mf_collection::poisson2d(8, 8);
        let x_true = vec![1.0; a.ncols];
        let mut b = vec![0.0; a.nrows];
        a.matvec(&x_true, &mut b);
        assert!(Verdict::check(&a, &x_true, &b, true, 1e-10).verified);
        let mut x = x_true.clone();
        x[17] += 1e-6;
        let v = Verdict::check(&a, &x, &b, true, 1e-10);
        assert!(!v.verified && v.false_converged());
        assert!(!bitwise_eq(&x, &x_true));
    }
}
