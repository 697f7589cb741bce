//! Incomplete factorizations for the preconditioned solvers (§III-C, §IV-C).
//!
//! * [`ilu0`] — ILU(0): `A ≈ L·U` restricted to the sparsity pattern of `A`
//!   (no fill-in). `L` is unit lower triangular (unit diagonal not stored),
//!   `U` is upper triangular with the diagonal stored.
//! * [`ic0`] — IC(0): `A ≈ L·Lᵀ` for symmetric positive-definite matrices.
//!
//! Applying the preconditioner (`M z = r`) is two triangular solves, which
//! the solvers run through the recursive-block SpTRSV of [`crate::sptrsv`].

use crate::sptrsv::{sptrsv_lower, sptrsv_upper, RecursiveTrsvStats, TrsvPlan, DEFAULT_TRSV_LEAF};
use mf_sparse::Csr;

/// The recursive-block SpTRSV schedules of a factor pair: forward solve
/// then backward solve. The plan borrows the factors, so a solver builds
/// one per solve (in its prologue) and replays it every iteration; nothing
/// is cached on the factors themselves.
#[derive(Clone, Debug)]
pub struct FactorPlan<'a> {
    lower: TrsvPlan<'a>,
    upper: TrsvPlan<'a>,
}

impl FactorPlan<'_> {
    /// Applies the preconditioner: `scratch` receives the intermediate `y`
    /// of the forward solve, `z` the solution. Allocation-free.
    pub fn apply_into(&self, r: &[f64], scratch: &mut [f64], z: &mut [f64]) {
        self.lower.solve_into(r, scratch);
        self.upper.solve_into(scratch, z);
    }

    /// Combined work statistics of the forward + backward pair.
    pub fn stats(&self) -> RecursiveTrsvStats {
        let (s1, s2) = (self.lower.stats(), self.upper.stats());
        RecursiveTrsvStats {
            leaves: s1.leaves + s2.leaves,
            max_leaf_rows: s1.max_leaf_rows.max(s2.max_leaf_rows),
            spmv_nnz: s1.spmv_nnz + s2.spmv_nnz,
            trsv_nnz: s1.trsv_nnz + s2.trsv_nnz,
            depth: s1.depth.max(s2.depth),
        }
    }

    /// Combined dependency-level count of both factors (what the
    /// level-scheduled alternative of the cost model is priced by).
    pub fn levels(&self) -> usize {
        self.lower.levels() + self.upper.levels()
    }
}

/// An ILU(0) factorization `A ≈ L U`.
#[derive(Clone, Debug)]
pub struct Ilu0 {
    /// Strictly lower triangle of `L` (unit diagonal implicit).
    pub l: Csr,
    /// Upper triangle of `U` including the diagonal.
    pub u: Csr,
}

/// Errors of the incomplete factorizations.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// A zero (or missing) pivot was hit at the given row.
    ZeroPivot(usize),
    /// IC(0) hit a non-positive diagonal (matrix not SPD enough).
    NotSpd(usize),
    /// The matrix is not square.
    NotSquare,
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::ZeroPivot(r) => write!(f, "zero pivot at row {r}"),
            FactorError::NotSpd(r) => write!(f, "non-positive IC(0) pivot at row {r}"),
            FactorError::NotSquare => write!(f, "matrix must be square"),
        }
    }
}

impl std::error::Error for FactorError {}

/// A pivot that cannot be divided by safely: zero, subnormal, NaN or
/// infinite. Subnormal pivots overflow the multipliers into inf/NaN and
/// poison the factors exactly like a hard zero, so the factorizations
/// treat the whole class identically.
fn unusable_pivot(p: f64) -> bool {
    !p.is_finite() || p.abs() < f64::MIN_POSITIVE
}

/// How many diagonal-boosting retries the `*_boosted` drivers attempt
/// before giving up and surfacing the last pivot failure.
pub const MAX_FACTOR_SHIFTS: usize = 4;

/// First boost is this fraction of the largest diagonal magnitude; each
/// retry doubles it.
const SHIFT_FRACTION: f64 = 1e-3;

/// The boosting scale ‖diag‖: largest finite |a_ii|, or 1 when the
/// diagonal is entirely absent/zero so the shift is still nonzero.
fn shift_base(a: &Csr) -> f64 {
    let mut base = 0.0f64;
    for i in 0..a.nrows.min(a.ncols) {
        let d = a.get(i, i).abs();
        if d.is_finite() && d > base {
            base = d;
        }
    }
    if base > 0.0 {
        base
    } else {
        1.0
    }
}

/// Returns `A + shift·I` as a new CSR matrix, inserting diagonal entries
/// that are structurally missing from `A`'s pattern (a missing `a_ii` is
/// precisely the structural-zero-pivot case boosting exists to repair).
pub fn diag_shifted(a: &Csr, shift: f64) -> Csr {
    let n = a.nrows;
    let mut rowptr = Vec::with_capacity(n + 1);
    let mut colidx = Vec::with_capacity(a.nnz() + n);
    let mut vals = Vec::with_capacity(a.nnz() + n);
    rowptr.push(0);
    for i in 0..n {
        let mut seen_diag = false;
        for (c, v) in a.row(i) {
            if c == i {
                colidx.push(c);
                vals.push(v + shift);
                seen_diag = true;
            } else {
                if c > i && !seen_diag && i < a.ncols {
                    colidx.push(i);
                    vals.push(shift);
                    seen_diag = true;
                }
                colidx.push(c);
                vals.push(v);
            }
        }
        if !seen_diag && i < a.ncols {
            colidx.push(i);
            vals.push(shift);
        }
        rowptr.push(colidx.len());
    }
    Csr {
        nrows: n,
        ncols: a.ncols,
        rowptr,
        colidx,
        vals,
    }
}

/// ILU(0) with zero/tiny-pivot fallback by diagonal boosting (a Manteuffel
/// shift): when the plain factorization breaks down on a pivot, retry on
/// `A + αI` with `α = 10⁻³·max|a_ii|`, doubling `α` per attempt, at most
/// [`MAX_FACTOR_SHIFTS`] retries. Returns the factorization together with
/// the shift of **every** attempt made (empty when the unshifted
/// factorization succeeded) so callers can record one
/// `BreakdownEvent::FactorShift` per attempt. The final factors
/// approximate `A + α_last·I`, which for these small `α` still
/// preconditions `A` effectively. `NotSquare` is never retried — no shift
/// repairs a shape error.
pub fn ilu0_boosted(a: &Csr) -> Result<(Ilu0, Vec<f64>), FactorError> {
    match ilu0(a) {
        Ok(f) => return Ok((f, Vec::new())),
        Err(FactorError::NotSquare) => return Err(FactorError::NotSquare),
        Err(_) => {}
    }
    let mut shifts = Vec::new();
    let mut shift = SHIFT_FRACTION * shift_base(a);
    let mut last = FactorError::ZeroPivot(0);
    for _ in 0..MAX_FACTOR_SHIFTS {
        shifts.push(shift);
        match ilu0(&diag_shifted(a, shift)) {
            Ok(f) => return Ok((f, shifts)),
            Err(e) => last = e,
        }
        shift *= 2.0;
    }
    Err(last)
}

/// Computes the ILU(0) factorization of `a` (IKJ variant, no fill-in).
pub fn ilu0(a: &Csr) -> Result<Ilu0, FactorError> {
    if a.nrows != a.ncols {
        return Err(FactorError::NotSquare);
    }
    let n = a.nrows;

    // U rows built incrementally; `udiag` caches the pivot of each row.
    let mut u_rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
    let mut l_rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
    let mut udiag = vec![0.0f64; n];

    // Dense scatter workspace: position of column c in the current row's
    // working set, or usize::MAX.
    let mut pos = vec![usize::MAX; n];
    let mut work_cols: Vec<usize> = Vec::new();
    let mut work_vals: Vec<f64> = Vec::new();

    for i in 0..n {
        work_cols.clear();
        work_vals.clear();
        for (c, v) in a.row(i) {
            pos[c] = work_cols.len();
            work_cols.push(c);
            work_vals.push(v);
        }

        // Eliminate with previously finished rows k < i present in the
        // pattern (work_cols is sorted because CSR rows are sorted).
        for wk in 0..work_cols.len() {
            let k = work_cols[wk];
            if k >= i {
                break;
            }
            let pivot = udiag[k];
            if unusable_pivot(pivot) {
                return Err(FactorError::ZeroPivot(k));
            }
            let factor = work_vals[wk] / pivot;
            work_vals[wk] = factor;
            for &(j, ukj) in &u_rows[k] {
                if j <= k {
                    continue;
                }
                let pj = pos[j];
                if pj != usize::MAX {
                    work_vals[pj] -= factor * ukj;
                }
            }
        }

        // Split the worked row into L (c < i) and U (c >= i).
        let mut lrow = Vec::new();
        let mut urow = Vec::new();
        for (wk, &c) in work_cols.iter().enumerate() {
            if c < i {
                lrow.push((c, work_vals[wk]));
            } else {
                if c == i {
                    udiag[i] = work_vals[wk];
                }
                urow.push((c, work_vals[wk]));
            }
        }
        if unusable_pivot(udiag[i]) {
            return Err(FactorError::ZeroPivot(i));
        }
        // Clear scatter markers.
        for &c in &work_cols {
            pos[c] = usize::MAX;
        }
        l_rows.push(lrow);
        u_rows.push(urow);
    }

    Ok(Ilu0 {
        l: rows_to_csr(n, &l_rows),
        u: rows_to_csr(n, &u_rows),
    })
}

fn rows_to_csr(n: usize, rows: &[Vec<(usize, f64)>]) -> Csr {
    let nnz: usize = rows.iter().map(Vec::len).sum();
    let mut rowptr = Vec::with_capacity(n + 1);
    let mut colidx = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    rowptr.push(0);
    for row in rows {
        for &(c, v) in row {
            colidx.push(c);
            vals.push(v);
        }
        rowptr.push(colidx.len());
    }
    Csr {
        nrows: n,
        ncols: n,
        rowptr,
        colidx,
        vals,
    }
}

impl Ilu0 {
    /// Applies the preconditioner: solves `L U z = r` with plain
    /// substitution (oracle path).
    pub fn apply(&self, r: &[f64]) -> Vec<f64> {
        let y = sptrsv_lower(&self.l, r, true);
        sptrsv_upper(&self.u, &y, false)
    }

    /// Applies the preconditioner with the recursive-block SpTRSV (the path
    /// Mille-feuille uses, §III-C). Returns `z` and the combined SpTRSV
    /// statistics of both solves for the cost model.
    pub fn apply_recursive(&self, r: &[f64], leaf: usize) -> (Vec<f64>, RecursiveTrsvStats) {
        let mut y = vec![0.0; r.len()];
        let mut z = vec![0.0; r.len()];
        let stats = self.apply_recursive_into(r, leaf, &mut y, &mut z);
        (z, stats)
    }

    /// In-place [`Self::apply_recursive`]: `scratch` holds the intermediate
    /// `y` of `L y = r`, `z` receives the solution. Builds the
    /// [`FactorPlan`] and replays it once; loops that apply the same
    /// factors repeatedly build the plan once with [`Self::plan`].
    pub fn apply_recursive_into(
        &self,
        r: &[f64],
        leaf: usize,
        scratch: &mut [f64],
        z: &mut [f64],
    ) -> RecursiveTrsvStats {
        let plan = self.plan(leaf);
        plan.apply_into(r, scratch, z);
        plan.stats()
    }

    /// The recursive-block SpTRSV schedules of `L` (unit diagonal) and `U`.
    pub fn plan(&self, leaf: usize) -> FactorPlan<'_> {
        FactorPlan {
            lower: TrsvPlan::lower(&self.l, true, leaf),
            upper: TrsvPlan::upper(&self.u, false, leaf),
        }
    }

    /// Applies with the default leaf size.
    pub fn apply_default(&self, r: &[f64]) -> Vec<f64> {
        self.apply_recursive(r, DEFAULT_TRSV_LEAF).0
    }

    /// Total stored nonzeros of both factors.
    pub fn nnz(&self) -> usize {
        self.l.nnz() + self.u.nnz()
    }
}

/// An IC(0) factorization `A ≈ L·Lᵀ` packaged for preconditioner
/// application (both triangular solves are non-unit-diagonal).
#[derive(Clone, Debug)]
pub struct Ic0 {
    /// Lower-triangular Cholesky factor (diagonal stored).
    pub l: Csr,
    /// Its transpose, kept materialized so the backward solve streams rows.
    pub lt: Csr,
}

impl Ic0 {
    /// Factorizes an SPD matrix.
    pub fn new(a: &Csr) -> Result<Ic0, FactorError> {
        let l = ic0(a)?;
        let lt = l.transpose();
        Ok(Ic0 { l, lt })
    }

    /// IC(0) with the same bounded diagonal-boosting fallback as
    /// [`ilu0_boosted`]: zero/tiny pivots retry on `A + αI` with a doubling
    /// shift, at most [`MAX_FACTOR_SHIFTS`] attempts, all attempted shifts
    /// returned for breakdown-event recording. A genuinely indefinite
    /// matrix still fails — the largest boost tried is `8·10⁻³·max|a_ii|`,
    /// far below what it would take to make a negative eigenvalue positive
    /// — so boosting repairs borderline pivots without silently
    /// Cholesky-factoring non-SPD systems.
    pub fn new_boosted(a: &Csr) -> Result<(Ic0, Vec<f64>), FactorError> {
        match Ic0::new(a) {
            Ok(f) => return Ok((f, Vec::new())),
            Err(FactorError::NotSquare) => return Err(FactorError::NotSquare),
            Err(_) => {}
        }
        let mut shifts = Vec::new();
        let mut shift = SHIFT_FRACTION * shift_base(a);
        let mut last = FactorError::ZeroPivot(0);
        for _ in 0..MAX_FACTOR_SHIFTS {
            shifts.push(shift);
            match Ic0::new(&diag_shifted(a, shift)) {
                Ok(f) => return Ok((f, shifts)),
                Err(e) => last = e,
            }
            shift *= 2.0;
        }
        Err(last)
    }

    /// Applies the preconditioner: solves `L Lᵀ z = r` by substitution.
    pub fn apply(&self, r: &[f64]) -> Vec<f64> {
        let y = sptrsv_lower(&self.l, r, false);
        sptrsv_upper(&self.lt, &y, false)
    }

    /// Applies with the recursive-block SpTRSV, returning combined stats.
    pub fn apply_recursive(&self, r: &[f64], leaf: usize) -> (Vec<f64>, RecursiveTrsvStats) {
        let mut y = vec![0.0; r.len()];
        let mut z = vec![0.0; r.len()];
        let stats = self.apply_recursive_into(r, leaf, &mut y, &mut z);
        (z, stats)
    }

    /// In-place [`Self::apply_recursive`] (see [`Ilu0::apply_recursive_into`]).
    pub fn apply_recursive_into(
        &self,
        r: &[f64],
        leaf: usize,
        scratch: &mut [f64],
        z: &mut [f64],
    ) -> RecursiveTrsvStats {
        let plan = self.plan(leaf);
        plan.apply_into(r, scratch, z);
        plan.stats()
    }

    /// The recursive-block SpTRSV schedules of `L` and `Lᵀ`.
    pub fn plan(&self, leaf: usize) -> FactorPlan<'_> {
        FactorPlan {
            lower: TrsvPlan::lower(&self.l, false, leaf),
            upper: TrsvPlan::upper(&self.lt, false, leaf),
        }
    }

    /// Total stored nonzeros of both factor copies.
    pub fn nnz(&self) -> usize {
        self.l.nnz() + self.lt.nnz()
    }
}

/// Computes the IC(0) factorization `A ≈ L Lᵀ` of an SPD matrix; returns the
/// lower-triangular factor with the diagonal stored.
pub fn ic0(a: &Csr) -> Result<Csr, FactorError> {
    if a.nrows != a.ncols {
        return Err(FactorError::NotSquare);
    }
    let n = a.nrows;
    let mut l_rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
    let mut ldiag = vec![0.0f64; n];
    // Dense scatter of the current row of L (columns <= i).
    let mut dense = vec![0.0f64; n];
    let mut cols: Vec<usize> = Vec::new();

    for i in 0..n {
        cols.clear();
        for (c, v) in a.row(i) {
            if c <= i {
                dense[c] = v;
                cols.push(c);
            }
        }
        // l_ij = (a_ij - sum_{k<j} l_ik l_jk) / l_jj  for pattern entries.
        let mut row = Vec::with_capacity(cols.len());
        for &j in &cols {
            let mut s = dense[j];
            // Intersection of row i's current partial entries and row j of L.
            if j < i {
                for &(k, ljk) in &l_rows[j] {
                    if k < j {
                        s -= dense[k] * ljk;
                    }
                }
                let v = s / ldiag[j];
                dense[j] = v;
                row.push((j, v));
            } else {
                // diagonal: l_ii = sqrt(a_ii - sum l_ik^2)
                let mut d = s;
                for &(_, lik) in &row {
                    d -= lik * lik;
                }
                if d <= 0.0 || !d.is_finite() {
                    return Err(FactorError::NotSpd(i));
                }
                let v = d.sqrt();
                ldiag[i] = v;
                row.push((i, v));
            }
        }
        if unusable_pivot(ldiag[i]) {
            return Err(FactorError::ZeroPivot(i));
        }
        for &c in &cols {
            dense[c] = 0.0;
        }
        l_rows.push(row);
    }
    Ok(rows_to_csr(n, &l_rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::{Coo, Dense};

    fn tridiag_spd(n: usize) -> Csr {
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

    fn nonsym(n: usize) -> Csr {
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 5.0 + (i % 3) as f64);
            if i > 0 {
                a.push(i, i - 1, -1.5);
            }
            if i + 1 < n {
                a.push(i, i + 1, -0.5);
            }
            if i + 3 < n {
                a.push(i, i + 3, 0.25);
            }
        }
        a.to_csr()
    }

    /// Multiplies L (unit lower) * U as dense, for exactness checks.
    fn lu_product(f: &Ilu0) -> Dense {
        let n = f.l.nrows;
        let mut ld = Dense::from_csr(&f.l);
        for i in 0..n {
            ld[(i, i)] = 1.0;
        }
        let ud = Dense::from_csr(&f.u);
        let mut prod = Dense::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += ld[(i, k)] * ud[(k, j)];
                }
                prod[(i, j)] = s;
            }
        }
        prod
    }

    #[test]
    fn ilu0_of_tridiagonal_is_exact_lu() {
        // A tridiagonal matrix has no fill-in, so ILU(0) == LU and L*U == A.
        let a = tridiag_spd(20);
        let f = ilu0(&a).unwrap();
        let prod = lu_product(&f);
        let ad = Dense::from_csr(&a);
        for i in 0..20 {
            for j in 0..20 {
                assert!(
                    (prod[(i, j)] - ad[(i, j)]).abs() < 1e-12,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn ilu0_apply_solves_exactly_for_no_fill_matrices() {
        let a = tridiag_spd(30);
        let f = ilu0(&a).unwrap();
        let b: Vec<f64> = (0..30).map(|i| (i as f64).sin() + 1.5).collect();
        let z = f.apply(&b);
        // L U z = b exactly (up to roundoff) since ILU==LU here.
        let mut r = vec![0.0; 30];
        a.matvec(&z, &mut r);
        for i in 0..30 {
            assert!((r[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn ilu0_pattern_matches_input() {
        let a = nonsym(25);
        let f = ilu0(&a).unwrap();
        // No fill-in: L and U patterns are subsets of A's pattern.
        for r in 0..25 {
            for (c, _) in f.l.row(r) {
                assert!(a.get(r, c) != 0.0 || c == r, "L fill at ({r},{c})");
                assert!(c < r);
            }
            for (c, _) in f.u.row(r) {
                assert!(a.get(r, c) != 0.0 || c == r, "U fill at ({r},{c})");
                assert!(c >= r);
            }
        }
        assert_eq!(f.nnz(), a.nnz());
    }

    #[test]
    fn ilu0_apply_recursive_matches_plain() {
        let a = nonsym(60);
        let f = ilu0(&a).unwrap();
        let b: Vec<f64> = (0..60).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let plain = f.apply(&b);
        for leaf in [1, 4, 16, 64] {
            let (rec, stats) = f.apply_recursive(&b, leaf);
            for i in 0..60 {
                assert!((plain[i] - rec[i]).abs() < 1e-10 * plain[i].abs().max(1.0));
            }
            assert!(stats.leaves >= 2);
        }
        let d = f.apply_default(&b);
        assert_eq!(d.len(), 60);
    }

    #[test]
    fn ilu0_zero_pivot_detected() {
        let mut a = Coo::new(2, 2);
        a.push(0, 1, 1.0);
        a.push(1, 0, 1.0);
        a.push(1, 1, 1.0);
        // a(0,0) missing -> structural zero pivot.
        assert!(matches!(ilu0(&a.to_csr()), Err(FactorError::ZeroPivot(0))));
    }

    #[test]
    fn ilu0_rejects_rectangular() {
        let a = Coo::new(2, 3).to_csr();
        assert!(matches!(ilu0(&a), Err(FactorError::NotSquare)));
    }

    #[test]
    fn ic0_of_tridiagonal_is_exact_cholesky() {
        let a = tridiag_spd(15);
        let l = ic0(&a).unwrap();
        // L * L^T == A for no-fill matrices.
        let ld = Dense::from_csr(&l);
        let ad = Dense::from_csr(&a);
        for i in 0..15 {
            for j in 0..15 {
                let mut s = 0.0;
                for k in 0..15 {
                    s += ld[(i, k)] * ld[(j, k)];
                }
                assert!((s - ad[(i, j)]).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn ic0_wrapper_applies_preconditioner() {
        let a = tridiag_spd(25);
        let ic = Ic0::new(&a).unwrap();
        let b: Vec<f64> = (0..25).map(|i| (i as f64).cos() + 2.0).collect();
        // Exact Cholesky for tridiagonal: applying M^{-1} solves the system.
        let z = ic.apply(&b);
        let mut r = vec![0.0; 25];
        a.matvec(&z, &mut r);
        for i in 0..25 {
            assert!((r[i] - b[i]).abs() < 1e-10);
        }
        // Recursive application agrees.
        let (z2, stats) = ic.apply_recursive(&b, 4);
        for i in 0..25 {
            assert!((z[i] - z2[i]).abs() < 1e-10);
        }
        assert!(stats.leaves >= 2);
        assert_eq!(ic.nnz(), ic.l.nnz() * 2);
    }

    #[test]
    fn ic0_rejects_indefinite() {
        let mut a = Coo::new(2, 2);
        a.push(0, 0, -1.0);
        a.push(1, 1, 1.0);
        assert!(matches!(ic0(&a.to_csr()), Err(FactorError::NotSpd(0))));
    }

    #[test]
    fn diag_shifted_inserts_missing_diagonal() {
        let mut a = Coo::new(3, 3);
        a.push(0, 1, 2.0); // row 0: no diagonal, off-diag after it
        a.push(1, 1, 5.0); // row 1: diagonal present
        a.push(2, 0, 3.0); // row 2: no diagonal, off-diag before it
        let s = diag_shifted(&a.to_csr(), 0.5);
        assert_eq!(s.get(0, 0), 0.5);
        assert_eq!(s.get(0, 1), 2.0);
        assert_eq!(s.get(1, 1), 5.5);
        assert_eq!(s.get(2, 0), 3.0);
        assert_eq!(s.get(2, 2), 0.5);
        // Columns stay sorted within each row.
        for r in 0..3 {
            let cols: Vec<usize> = s.row(r).map(|(c, _)| c).collect();
            let mut sorted = cols.clone();
            sorted.sort_unstable();
            assert_eq!(cols, sorted, "row {r} unsorted");
        }
    }

    #[test]
    fn ilu0_boosted_recovers_structural_zero_pivot() {
        // (0,0) and (1,1) structurally missing: plain ILU(0) fails, the
        // boosted driver inserts the diagonal and factors A + αI.
        let mut a = Coo::new(4, 4);
        a.push(0, 1, 1.0);
        a.push(1, 0, 1.0);
        a.push(2, 2, 1.0);
        a.push(3, 3, 1.0);
        let a = a.to_csr();
        assert!(matches!(ilu0(&a), Err(FactorError::ZeroPivot(0))));
        let (f, shifts) = ilu0_boosted(&a).unwrap();
        assert!(!shifts.is_empty(), "a shift must have been applied");
        for w in shifts.windows(2) {
            assert_eq!(w[1], 2.0 * w[0], "shift schedule doubles");
        }
        // α‖diag‖ scaling: base is max|a_ii| = 1.
        assert_eq!(shifts[0], 1e-3);
        assert_eq!(f.l.nrows, 4);
        assert_eq!(f.u.nrows, 4);
    }

    #[test]
    fn ilu0_boosted_clean_matrix_is_shift_free() {
        let a = tridiag_spd(12);
        let (f, shifts) = ilu0_boosted(&a).unwrap();
        assert!(shifts.is_empty(), "no breakdown → no shift");
        // Identical to the plain factorization.
        let plain = ilu0(&a).unwrap();
        assert_eq!(f.u.vals, plain.u.vals);
        assert_eq!(f.l.vals, plain.l.vals);
    }

    #[test]
    fn ilu0_boosted_never_retries_shape_errors() {
        let a = Coo::new(2, 3).to_csr();
        assert!(matches!(ilu0_boosted(&a), Err(FactorError::NotSquare)));
    }

    #[test]
    fn ilu0_rejects_subnormal_pivot() {
        // A tiny (subnormal) pivot is as unusable as an exact zero: the
        // 1/pivot multiplier overflows. Must fail, and boosting must fix it.
        let mut a = Coo::new(2, 2);
        a.push(0, 0, 1e-320);
        a.push(0, 1, 1.0);
        a.push(1, 0, 1.0);
        a.push(1, 1, 1.0);
        let a = a.to_csr();
        assert!(matches!(ilu0(&a), Err(FactorError::ZeroPivot(0))));
        let (_, shifts) = ilu0_boosted(&a).unwrap();
        assert!(!shifts.is_empty());
    }

    #[test]
    fn ic0_boosted_recovers_zero_diagonal() {
        // Missing (0,0) entry: plain IC(0) hits a zero pivot; boosting
        // inserts α on the diagonal and succeeds.
        let mut a = Coo::new(2, 2);
        a.push(1, 1, 4.0);
        let a = a.to_csr();
        assert!(Ic0::new(&a).is_err());
        let (ic, shifts) = Ic0::new_boosted(&a).unwrap();
        assert!(!shifts.is_empty());
        assert_eq!(ic.l.nrows, 2);
    }

    #[test]
    fn ic0_boosted_still_rejects_indefinite() {
        // Eigenvalue −1 needs a shift > 1; the bounded schedule tops out at
        // 8e-3·max|a_ii|, so a genuinely indefinite matrix still fails.
        let mut a = Coo::new(2, 2);
        a.push(0, 0, -1.0);
        a.push(1, 1, 1.0);
        assert!(matches!(
            Ic0::new_boosted(&a.to_csr()),
            Err(FactorError::NotSpd(0))
        ));
    }

    #[test]
    fn ilu0_preconditioner_reduces_condition() {
        // For the 2D-Laplacian-like matrix, M^{-1}A should be much closer to
        // identity than A: check ||M^{-1}A - I||_F < ||A - I||_F.
        let a = tridiag_spd(40);
        let f = ilu0(&a).unwrap();
        let n = 40;
        let mut minva = Dense::zeros(n, n);
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let mut col = vec![0.0; n];
            a.matvec(&e, &mut col);
            let z = f.apply(&col);
            for i in 0..n {
                minva[(i, j)] = z[i];
            }
        }
        let mut dist_precond = 0.0;
        let ad = Dense::from_csr(&a);
        let mut dist_raw = 0.0;
        for i in 0..n {
            for j in 0..n {
                let idm = if i == j { 1.0 } else { 0.0 };
                dist_precond += (minva[(i, j)] - idm).powi(2);
                dist_raw += (ad[(i, j)] - idm).powi(2);
            }
        }
        assert!(dist_precond.sqrt() < 1e-8, "ILU exact for tridiag");
        assert!(dist_raw.sqrt() > 1.0);
    }
}
