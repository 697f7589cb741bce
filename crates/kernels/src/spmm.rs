//! Blocked (multi-right-hand-side) kernels for the serving layer.
//!
//! A stream of small solves sharing one operator is the workload shape the
//! ROADMAP's solver-as-a-service targets: `k` conjugate-gradient
//! recurrences advance in lockstep, and the dominant memory traffic — one
//! pass over the tiled matrix — is amortized across all `k` vectors by
//! [`spmm_mixed`] (SpMM instead of `k` SpMVs). The per-tile work the
//! single-vector kernel pays once per solve (flag lookup, bypass test,
//! precision bookkeeping, metadata walks) is paid once per *batch* here.
//!
//! # Layout
//!
//! Multi-vectors are stored **column-major**: a block of `k` vectors of
//! length `n` is one flat `&[f64]` of length `n·k`, column `j` occupying
//! `[j·n, (j+1)·n)`. [`col`]/[`col_mut`] slice out one column.
//!
//! # Determinism contract
//!
//! For every active column `j`, [`spmm_mixed`] performs *exactly* the
//! floating-point operations [`crate::spmv_mixed`] performs for that
//! column's vector, in the same order: one demand pass over the tiles,
//! then for each row and active column the same segment replay. A batched
//! solve is therefore bitwise identical to the `k` independent solves it
//! replaces (pinned by proptests here and by the blocked-core parity tests
//! in `mf-solver`).

use crate::blas1;
use crate::spmv::{MixedSpmvStats, SharedTiles};
use crate::visflag::VisFlag;
use mf_sparse::TiledMatrix;

/// Column `j` of a column-major `n × k` multi-vector.
#[inline]
pub fn col(v: &[f64], n: usize, j: usize) -> &[f64] {
    &v[j * n..(j + 1) * n]
}

/// Mutable column `j` of a column-major `n × k` multi-vector.
#[inline]
pub fn col_mut(v: &mut [f64], n: usize, j: usize) -> &mut [f64] {
    &mut v[j * n..(j + 1) * n]
}

/// Mixed-precision sparse matrix × multi-vector product
/// `Y[:, j] = A · X[:, j]` for every *active* column `j`, sharing one pass
/// over the tiles (Algorithm 5 generalized to a column block).
///
/// * `x` is column-major `ncols × k`, `y` column-major `nrows × k`.
/// * `active[j] == false` skips column `j` entirely — its `y` column is
///   left untouched (frozen converged columns in the blocked CG core).
/// * `vis_flags` applies to every column (the blocked path runs with the
///   partial-convergence strategy disabled, i.e. all-`Keep` flags; a
///   per-column dynamic strategy would break the shared-tile-pass
///   amortization this kernel exists for).
///
/// Returns the stats of **one** demand pass (tiles/nnz are counted once,
/// not once per column): the traffic actually paid, which is what the
/// coster charges — the amortization is the point.
pub fn spmm_mixed(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    vis_flags: &[VisFlag],
    x: &[f64],
    y: &mut [f64],
    active: &[bool],
) -> MixedSpmvStats {
    let k = active.len();
    assert_eq!(x.len(), m.ncols * k, "x must be ncols × k column-major");
    assert_eq!(y.len(), m.nrows * k, "y must be nrows × k column-major");
    assert!(
        vis_flags.len() >= m.tile_cols,
        "need one vis_flag per tile column: {} < {}",
        vis_flags.len(),
        m.tile_cols
    );
    let (n_in, n_out) = (m.ncols, m.nrows);
    let (stats, bypass) = shared.demand_pass(m, vis_flags);
    for r in 0..n_out {
        for (j, _) in active.iter().enumerate().filter(|(_, a)| **a) {
            // The single-vector kernel's row replay for column j: the
            // exact op sequence of spmv_mixed, so the column result is
            // bitwise its.
            let xj = col(x, n_in, j);
            y[j * n_out + r] = if bypass {
                shared.row_product::<true>(r, xj, vis_flags, m.tile_size)
            } else {
                shared.row_product::<false>(r, xj, vis_flags, m.tile_size)
            };
        }
    }
    stats
}

/// Per-column dot products `out[j] = (X[:, j], Y[:, j])` for active
/// columns; inactive entries of `out` are left untouched. Each column is
/// [`blas1::dot`] exactly (bitwise).
pub fn dot_block(x: &[f64], y: &[f64], n: usize, active: &[bool], out: &mut [f64]) {
    for (j, _) in active.iter().enumerate().filter(|(_, a)| **a) {
        out[j] = blas1::dot(col(x, n, j), col(y, n, j));
    }
}

/// Per-column AXPY `Y[:, j] += alpha[j] · X[:, j]` for active columns
/// ([`blas1::axpy`] per column, bitwise).
pub fn axpy_block(alpha: &[f64], x: &[f64], y: &mut [f64], n: usize, active: &[bool]) {
    for (j, _) in active.iter().enumerate().filter(|(_, a)| **a) {
        blas1::axpy(alpha[j], col(x, n, j), col_mut(y, n, j));
    }
}

/// Per-column `P[:, j] = X[:, j] + beta[j] · P[:, j]` for active columns
/// ([`blas1::xpay`] per column, bitwise).
pub fn xpay_block(x: &[f64], beta: &[f64], p: &mut [f64], n: usize, active: &[bool]) {
    for (j, _) in active.iter().enumerate().filter(|(_, a)| **a) {
        blas1::xpay(col(x, n, j), beta[j], col_mut(p, n, j));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::spmv_mixed;
    use mf_precision::ClassifyOptions;
    use mf_sparse::{Coo, Csr, TiledMatrix};

    fn poisson1d(n: usize) -> Csr {
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

    fn mixed_tiled(a: &Csr) -> TiledMatrix {
        TiledMatrix::from_csr_with(a, 16, &ClassifyOptions::default())
    }

    fn keep(tile_cols: usize) -> Vec<VisFlag> {
        vec![VisFlag::Keep; tile_cols.max(1)]
    }

    fn seeded_vec(n: usize, seed: u64) -> Vec<f64> {
        // Tiny splitmix64-driven values in [-1, 1].
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^= z >> 31;
                (z as f64 / u64::MAX as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn spmm_matches_spmv_per_column_bitwise() {
        let a = poisson1d(137); // non-multiple of the tile size
        let m = mixed_tiled(&a);
        let n = m.nrows;
        let k = 5;
        let flags = keep(m.tile_cols);

        let x: Vec<f64> = (0..k).flat_map(|j| seeded_vec(n, j as u64 + 1)).collect();
        let mut y = vec![f64::NAN; n * k];
        let mut shared = SharedTiles::load(&m);
        let active = vec![true; k];
        let stats = spmm_mixed(&m, &mut shared, &flags, &x, &mut y, &active);

        for j in 0..k {
            let mut shared_j = SharedTiles::load(&m);
            let mut yj = vec![0.0; n];
            let sj = spmv_mixed(&m, &mut shared_j, &flags, col(&x, n, j), &mut yj);
            assert_eq!(col(&y, n, j), &yj[..], "column {j} must be bitwise spmv");
            // One matrix pass: stats equal a single SpMV's, not k of them.
            assert_eq!(stats.nnz_total(), sj.nnz_total());
        }
    }

    #[test]
    fn inactive_columns_are_untouched() {
        let a = poisson1d(64);
        let m = mixed_tiled(&a);
        let n = m.nrows;
        let flags = keep(m.tile_cols);
        let x: Vec<f64> = (0..3).flat_map(|j| seeded_vec(n, j + 10)).collect();
        let mut y = vec![7.5; n * 3];
        let mut shared = SharedTiles::load(&m);
        spmm_mixed(&m, &mut shared, &flags, &x, &mut y, &[true, false, true]);
        assert!(col(&y, n, 1).iter().all(|&v| v == 7.5), "frozen column");
        assert!(col(&y, n, 0).iter().all(|&v| v != 7.5));
    }

    #[test]
    fn k1_is_exactly_spmv() {
        let a = poisson1d(250);
        let m = mixed_tiled(&a);
        let flags = keep(m.tile_cols);
        let x = seeded_vec(m.nrows, 3);
        let mut y1 = vec![0.0; m.nrows];
        let mut y2 = vec![0.0; m.nrows];
        let mut s1 = SharedTiles::load(&m);
        let mut s2 = SharedTiles::load(&m);
        let st1 = spmv_mixed(&m, &mut s1, &flags, &x, &mut y1);
        let st2 = spmm_mixed(&m, &mut s2, &flags, &x, &mut y2, &[true]);
        assert_eq!(y1, y2);
        assert_eq!(st1.nnz_total(), st2.nnz_total());
        assert_eq!(st1.tiles_computed, st2.tiles_computed);
    }

    #[test]
    fn blocked_blas1_matches_per_column() {
        let n = 300;
        let k = 4;
        let x: Vec<f64> = (0..k).flat_map(|j| seeded_vec(n, j as u64)).collect();
        let mut y: Vec<f64> = (0..k).flat_map(|j| seeded_vec(n, j as u64 + 50)).collect();
        let active = [true, true, false, true];
        let alpha = [0.5, -1.25, 99.0, 2.0];

        let mut dots = [0.0f64; 4];
        dot_block(&x, &y, n, &active, &mut dots);
        for j in [0usize, 1, 3] {
            assert_eq!(dots[j], blas1::dot(col(&x, n, j), col(&y, n, j)));
        }
        assert_eq!(dots[2], 0.0, "inactive column untouched");

        let y_before: Vec<f64> = col(&y, n, 2).to_vec();
        axpy_block(&alpha, &x, &mut y, n, &active);
        assert_eq!(col(&y, n, 2), &y_before[..], "inactive column frozen");
        let mut expect = seeded_vec(n, 50);
        blas1::axpy(0.5, col(&x, n, 0), &mut expect);
        assert_eq!(col(&y, n, 0), &expect[..]);
    }
}
