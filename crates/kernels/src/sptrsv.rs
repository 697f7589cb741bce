//! Sparse triangular solves (SpTRSV).
//!
//! The preconditioned solvers (paper §III-C last paragraph, §IV-C) apply
//! `M z = r` with `M = L U` from ILU(0), which needs two triangular solves
//! per iteration. Three algorithms are provided:
//!
//! * [`sptrsv_lower`] / [`sptrsv_upper`] — plain substitution (the oracle).
//! * [`level_schedule`] — dependency-level analysis; the number of levels is
//!   what makes SpTRSV latency-bound on GPUs and is fed to the cost model.
//! * [`TrsvPlan`] — the **recursive-block algorithm** (ref. \[41\]) the paper
//!   uses: a triangular matrix is split into two smaller triangles and one
//!   square block; the square block is applied with SpMV (parallel-friendly),
//!   recursing into the triangles. §IV-C credits this for the large
//!   PCG/PBiCGSTAB speedups on matrices with high-parallelism blocks. On
//!   the host the recursion is compiled once into a row-ordered segment
//!   schedule and replayed row by row; the replay performs the recursion's
//!   floating-point operations in the recursion's order, so its results are
//!   bitwise the recursive walk's (see [`TrsvPlan`] for the argument).
//!   [`sptrsv_lower_recursive`] / [`sptrsv_upper_recursive`] build and
//!   replay in one call.

use mf_sparse::Csr;

/// Forward substitution `L x = b`. `unit_diag` treats the diagonal as 1
/// (entries on the diagonal are ignored if present).
///
/// # Panics
/// Panics (in debug) if a non-unit diagonal entry is missing or zero.
pub fn sptrsv_lower(l: &Csr, b: &[f64], unit_diag: bool) -> Vec<f64> {
    assert_eq!(l.nrows, l.ncols);
    assert_eq!(b.len(), l.nrows);
    let n = l.nrows;
    let mut x = b.to_vec();
    for r in 0..n {
        let mut sum = 0.0;
        let mut diag = if unit_diag { 1.0 } else { 0.0 };
        for (c, v) in l.row(r) {
            if c < r {
                sum += v * x[c];
            } else if c == r && !unit_diag {
                diag = v;
            }
        }
        debug_assert!(diag != 0.0, "zero diagonal at row {r}");
        x[r] = (x[r] - sum) / diag;
    }
    x
}

/// Backward substitution `U x = b`.
pub fn sptrsv_upper(u: &Csr, b: &[f64], unit_diag: bool) -> Vec<f64> {
    assert_eq!(u.nrows, u.ncols);
    assert_eq!(b.len(), u.nrows);
    let n = u.nrows;
    let mut x = b.to_vec();
    for r in (0..n).rev() {
        let mut sum = 0.0;
        let mut diag = if unit_diag { 1.0 } else { 0.0 };
        for (c, v) in u.row(r) {
            if c > r {
                sum += v * x[c];
            } else if c == r && !unit_diag {
                diag = v;
            }
        }
        debug_assert!(diag != 0.0, "zero diagonal at row {r}");
        x[r] = (x[r] - sum) / diag;
    }
    x
}

/// Allocation-free [`sptrsv_lower`]: solves `L x = b` into `x`
/// (`x.len() == b.len()`), bitwise-identical to the allocating variant.
/// This is the summation-order reference for the threaded in-kernel
/// SpTRSV — both combine each row's stored entries in CSR order.
pub fn sptrsv_lower_into(l: &Csr, b: &[f64], x: &mut [f64], unit_diag: bool) {
    assert_eq!(l.nrows, l.ncols);
    assert_eq!(b.len(), l.nrows);
    assert_eq!(x.len(), l.nrows);
    for r in 0..l.nrows {
        let mut sum = 0.0;
        let mut diag = if unit_diag { 1.0 } else { 0.0 };
        for (c, v) in l.row(r) {
            if c < r {
                sum += v * x[c];
            } else if c == r && !unit_diag {
                diag = v;
            }
        }
        debug_assert!(diag != 0.0, "zero diagonal at row {r}");
        x[r] = (b[r] - sum) / diag;
    }
}

/// Allocation-free [`sptrsv_upper`]: solves `U x = b` into `x`.
pub fn sptrsv_upper_into(u: &Csr, b: &[f64], x: &mut [f64], unit_diag: bool) {
    assert_eq!(u.nrows, u.ncols);
    assert_eq!(b.len(), u.nrows);
    assert_eq!(x.len(), u.nrows);
    for r in (0..u.nrows).rev() {
        let mut sum = 0.0;
        let mut diag = if unit_diag { 1.0 } else { 0.0 };
        for (c, v) in u.row(r) {
            if c > r {
                sum += v * x[c];
            } else if c == r && !unit_diag {
                diag = v;
            }
        }
        debug_assert!(diag != 0.0, "zero diagonal at row {r}");
        x[r] = (b[r] - sum) / diag;
    }
}

/// Dependency levels of a triangular solve.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelSchedule {
    /// Level of each row (0-based). Rows in the same level are independent.
    pub level_of: Vec<usize>,
    /// Number of levels — the sequential depth of the solve.
    pub num_levels: usize,
    /// Rows per level.
    pub level_sizes: Vec<usize>,
}

/// Computes the dependency levels of a (structurally) triangular matrix.
/// `lower = true` analyses `L` (dependencies are columns `< r`), otherwise
/// `U` (columns `> r`).
pub fn level_schedule(t: &Csr, lower: bool) -> LevelSchedule {
    let n = t.nrows;
    let mut level_of = vec![0usize; n];
    let mut num_levels = 0usize;
    let rows: Box<dyn Iterator<Item = usize>> = if lower {
        Box::new(0..n)
    } else {
        Box::new((0..n).rev())
    };
    for r in rows {
        let mut lvl = 0usize;
        for (c, _) in t.row(r) {
            let dep = if lower { c < r } else { c > r };
            if dep {
                lvl = lvl.max(level_of[c] + 1);
            }
        }
        level_of[r] = lvl;
        num_levels = num_levels.max(lvl + 1);
    }
    let mut level_sizes = vec![0usize; num_levels];
    for &l in &level_of {
        level_sizes[l] += 1;
    }
    LevelSchedule {
        level_of,
        num_levels,
        level_sizes,
    }
}

/// Work statistics of a recursive-block triangular solve, consumed by the
/// cost model (the square-block SpMV part is parallel, the leaf part is
/// level-bound only within each leaf).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecursiveTrsvStats {
    /// Leaf triangles solved by substitution.
    pub leaves: usize,
    /// Rows of the largest leaf (bounds each leaf's sequential depth).
    pub max_leaf_rows: usize,
    /// Nonzeros applied in square-block SpMV updates (parallel work).
    pub spmv_nnz: usize,
    /// Nonzeros consumed inside leaf substitutions (sequential-ish work).
    pub trsv_nnz: usize,
    /// Recursion depth reached.
    pub depth: usize,
}

/// Default leaf size of the recursive algorithm.
pub const DEFAULT_TRSV_LEAF: usize = 64;

/// A row-ordered replay schedule of the recursive-block triangular solve
/// (ref. \[41\]) of one factor.
///
/// The recursion splits the row range `[lo, hi)` at `mid`, solves the
/// first triangle, applies the square block between the halves as an SpMV
/// and recurses into the second triangle, down to leaves of at most `leaf`
/// rows. Row `r` therefore receives one subtraction per ancestor block
/// whose second half holds it, then its leaf substitution. The plan
/// replays exactly that: rows in execution order (increasing for `L`,
/// decreasing for `U`), each row a run of segments in the order the
/// recursion visits its blocks, each segment the row's entries inside that
/// block's column interval, in storage order. Entries the recursion never
/// reads (the wrong side of the diagonal) are dropped, and so are blocks
/// with no entries in the row.
///
/// A segment is kept as runs of positions in the factor's own storage, so
/// the plan borrows the factor instead of copying it. For a row stored in
/// column order the runs fall out of its leaf's split points — its `L`
/// entries meet the blocks in visit order, its `U` entries in reverse — so
/// only rows stored out of column order need regrouping.
///
/// Replay computes `x_r = ((b_r − S_1) − S_2 … − S_leaf) / d_r`, each
/// `S_k` a left fold from `0.0`, which is the recursion's floating-point
/// sequence for that row: every `x[c]` it reads is final by then, and a
/// skipped block would have subtracted `0.0`, which leaves `x` unchanged.
/// So the result is bitwise the recursive walk's, without re-scanning
/// every row at every recursion level.
///
/// One O(nnz + n·log(n/leaf)) build pass also yields the walk's
/// structural [`RecursiveTrsvStats`] and the dependency-level count of
/// [`level_schedule`], which the cost model needs.
#[derive(Clone, Debug)]
pub struct TrsvPlan<'a> {
    t: &'a Csr,
    lower: bool,
    /// Leaves in execution order: rows `[lo, hi)`, solved in increasing
    /// order for `L` and decreasing order for `U`.
    leaves: Vec<(usize, usize)>,
    /// Run offsets per row in execution order (`n + 1` entries).
    row_run: Vec<u32>,
    /// Storage ranges `[start, end)` of the runs; `start` has
    /// [`JOINS_SEGMENT`] set when the run continues the previous run's
    /// segment instead of opening a new one.
    runs: Vec<(u32, u32)>,
    /// Divisor per row in execution order (`1.0` for a unit diagonal).
    diag: Vec<f64>,
    stats: RecursiveTrsvStats,
    levels: usize,
}

/// Marks a run that stays in its predecessor's segment.
const JOINS_SEGMENT: u32 = 1 << 31;

impl<'a> TrsvPlan<'a> {
    /// Plans the forward solve `L x = b`. `unit_diag` treats the diagonal
    /// as 1 (stored diagonal entries are ignored).
    pub fn lower(l: &'a Csr, unit_diag: bool, leaf: usize) -> TrsvPlan<'a> {
        Self::build(l, true, unit_diag, leaf)
    }

    /// Plans the backward solve `U x = b`.
    pub fn upper(u: &'a Csr, unit_diag: bool, leaf: usize) -> TrsvPlan<'a> {
        Self::build(u, false, unit_diag, leaf)
    }

    fn build(t: &'a Csr, lower: bool, unit: bool, leaf: usize) -> TrsvPlan<'a> {
        assert!(leaf >= 1);
        assert_eq!(t.nrows, t.ncols);
        let n = t.nrows;
        assert!(
            t.nnz() < JOINS_SEGMENT as usize && n <= u32::MAX as usize,
            "triangular factor too large for 31-bit plan offsets"
        );
        let mut stats = RecursiveTrsvStats::default();
        let (mut leaves, mut splits) = (Vec::new(), Vec::new());
        leaf_walk(
            0,
            n,
            1,
            leaf,
            lower,
            &mut Vec::new(),
            &mut leaves,
            &mut splits,
            &mut stats,
        );
        let mut row_run = Vec::with_capacity(n + 1);
        let mut runs: Vec<(u32, u32)> = Vec::with_capacity(2 * n);
        let mut diags = Vec::with_capacity(n);
        let mut level_of = vec![0u32; n];
        let (mut levels, mut deps, mut leaf_deps) = (0u32, 0usize, 0usize);
        let mut keyed: Vec<(usize, u32)> = Vec::new();
        row_run.push(0u32);
        for &(lo, hi, s0, s1) in &leaves {
            let splits = &splits[s0..s1];
            for i in lo..hi {
                let r = if lower { i } else { lo + hi - 1 - i };
                let (a, e) = (t.rowptr[r], t.rowptr[r + 1]);
                let cols = &t.colidx[a..e];
                let mut diag = if unit { 1.0 } else { 0.0 };
                let mut lvl = 0u32;
                // A row stored in column order keeps its dependencies as
                // one contiguous, ascending stretch `d0..d1`.
                let (mut d0, mut d1) = (usize::MAX, 0);
                let mut ordered = true;
                for (k, &c) in cols.iter().enumerate() {
                    if (lower && c < r) || (!lower && c > r) {
                        lvl = lvl.max(level_of[c] + 1);
                        deps += 1;
                        leaf_deps += usize::from(if lower { c >= lo } else { c < hi });
                        if d0 == usize::MAX {
                            d0 = k;
                        } else {
                            ordered &= d1 == k && cols[k - 1] <= c;
                        }
                        d1 = k + 1;
                    } else if c == r && !unit {
                        diag = t.vals[a + k];
                    }
                }
                debug_assert!(diag != 0.0, "zero diagonal at row {r}");
                level_of[r] = lvl;
                levels = levels.max(lvl + 1);
                diags.push(diag);
                if d0 == usize::MAX {
                    row_run.push(runs.len() as u32);
                    continue;
                }
                let at = |k: usize| (a + k) as u32;
                if !ordered {
                    // Regroup entry by entry, stably by block key (the
                    // number of split points on the row's side of `c`).
                    keyed.clear();
                    for (k, &c) in cols.iter().enumerate() {
                        if (lower && c < r) || (!lower && c > r) {
                            let key = if lower {
                                splits.partition_point(|&s| s <= c)
                            } else {
                                splits.partition_point(|&s| s > c)
                            };
                            keyed.push((key, at(k)));
                        }
                    }
                    keyed.sort_by_key(|&(key, _)| key);
                    for (g, &(key, k)) in keyed.iter().enumerate() {
                        let joins = g > 0 && keyed[g - 1].0 == key;
                        runs.push((k | if joins { JOINS_SEGMENT } else { 0 }, k + 1));
                    }
                } else if lower {
                    // Blocks in visit order: one ends where the columns
                    // pass the next split point.
                    let mut next = splits.partition_point(|&s| s <= cols[d0]);
                    let mut start = d0;
                    for (k, &c) in cols.iter().enumerate().take(d1).skip(d0 + 1) {
                        if next < splits.len() && splits[next] <= c {
                            runs.push((at(start), at(k)));
                            start = k;
                            while next < splits.len() && splits[next] <= c {
                                next += 1;
                            }
                        }
                    }
                    runs.push((at(start), at(d1)));
                } else {
                    // The outermost block is the last stretch of columns:
                    // walk back, a block starting where the columns drop
                    // below the next split point.
                    let mut next = splits.partition_point(|&s| s > cols[d1 - 1]);
                    let mut end = d1;
                    for k in (d0..d1 - 1).rev() {
                        let c = cols[k];
                        if next < splits.len() && c < splits[next] {
                            runs.push((at(k + 1), at(end)));
                            end = k + 1;
                            while next < splits.len() && c < splits[next] {
                                next += 1;
                            }
                        }
                    }
                    runs.push((at(d0), at(end)));
                }
                row_run.push(runs.len() as u32);
            }
        }
        stats.trsv_nnz = leaf_deps;
        stats.spmv_nnz = deps - leaf_deps;
        TrsvPlan {
            t,
            lower,
            leaves: leaves.iter().map(|&(lo, hi, _, _)| (lo, hi)).collect(),
            row_run,
            runs,
            diag: diags,
            stats,
            levels: levels as usize,
        }
    }

    /// Replays the solve: `x` receives the solution of `T x = b`
    /// (`x.len() == b.len() == n`), bitwise the recursive walk's.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.diag.len());
        assert_eq!(x.len(), self.diag.len());
        let (cols, vals) = (&self.t.colidx[..], &self.t.vals[..]);
        let rows = self.leaves.iter().flat_map(|&(lo, hi)| {
            let lower = self.lower;
            (lo..hi).map(move |i| if lower { i } else { lo + hi - 1 - i })
        });
        for ((r, rr), &d) in rows.zip(self.row_run.windows(2)).zip(&self.diag) {
            let mut acc = b[r];
            let mut sum = 0.0;
            for (i, &(start, end)) in self.runs[rr[0] as usize..rr[1] as usize].iter().enumerate() {
                if i > 0 && start & JOINS_SEGMENT == 0 {
                    acc -= sum;
                    sum = 0.0;
                }
                let (lo, hi) = ((start & !JOINS_SEGMENT) as usize, end as usize);
                for (v, &c) in vals[lo..hi].iter().zip(&cols[lo..hi]) {
                    sum += v * x[c];
                }
            }
            if rr[0] != rr[1] {
                acc -= sum;
            }
            x[r] = acc / d;
        }
    }

    /// Work statistics of the recursive walk this plan replays.
    pub fn stats(&self) -> RecursiveTrsvStats {
        self.stats
    }

    /// Dependency levels of the factor (`level_schedule(..).num_levels`).
    pub fn levels(&self) -> usize {
        self.levels
    }
}

/// Enumerates the leaves of the recursion over rows `[lo, hi)` in
/// execution order, recording each as `(lo, hi, splits range)` and the
/// walk's structural statistics. `stack` holds the split points at which
/// the descent entered a block's second half — one per ancestor block
/// whose square part the node's rows receive: for `L` the rows `[mid, hi)`
/// receive the block over columns `[lo, mid)`, for `U` the rows
/// `[lo, mid)` the block over `[mid, hi)`.
#[allow(clippy::too_many_arguments)]
fn leaf_walk(
    lo: usize,
    hi: usize,
    depth: usize,
    leaf: usize,
    lower: bool,
    stack: &mut Vec<usize>,
    leaves: &mut Vec<(usize, usize, usize, usize)>,
    splits: &mut Vec<usize>,
    stats: &mut RecursiveTrsvStats,
) {
    if hi <= lo {
        return;
    }
    stats.depth = stats.depth.max(depth);
    if hi - lo <= leaf {
        stats.leaves += 1;
        stats.max_leaf_rows = stats.max_leaf_rows.max(hi - lo);
        leaves.push((lo, hi, splits.len(), splits.len() + stack.len()));
        splits.extend_from_slice(stack);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    // Execution order: L solves [lo, mid) first, U solves [mid, hi) first.
    let (first, second) = if lower {
        ((lo, mid), (mid, hi))
    } else {
        ((mid, hi), (lo, mid))
    };
    leaf_walk(
        first.0,
        first.1,
        depth + 1,
        leaf,
        lower,
        stack,
        leaves,
        splits,
        stats,
    );
    stack.push(mid);
    leaf_walk(
        second.0,
        second.1,
        depth + 1,
        leaf,
        lower,
        stack,
        leaves,
        splits,
        stats,
    );
    stack.pop();
}

/// Recursive-block forward solve `L x = b` (ref. \[41\]): builds the
/// [`TrsvPlan`] and replays it.
pub fn sptrsv_lower_recursive(
    l: &Csr,
    b: &[f64],
    unit_diag: bool,
    leaf: usize,
) -> (Vec<f64>, RecursiveTrsvStats) {
    let plan = TrsvPlan::lower(l, unit_diag, leaf);
    let mut x = vec![0.0; l.nrows];
    plan.solve_into(b, &mut x);
    (x, plan.stats())
}

/// Recursive-block backward solve `U x = b`.
pub fn sptrsv_upper_recursive(
    u: &Csr,
    b: &[f64],
    unit_diag: bool,
    leaf: usize,
) -> (Vec<f64>, RecursiveTrsvStats) {
    let plan = TrsvPlan::upper(u, unit_diag, leaf);
    let mut x = vec![0.0; u.nrows];
    plan.solve_into(b, &mut x);
    (x, plan.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::{Coo, Dense};

    fn lower_bidiag(n: usize) -> Csr {
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0 + (i % 3) as f64);
            if i > 0 {
                a.push(i, i - 1, -1.0);
            }
        }
        a.to_csr()
    }

    fn random_lower(n: usize, extra: usize) -> Csr {
        let mut a = Coo::new(n, n);
        let mut state = 99u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for i in 0..n {
            a.push(i, i, 3.0 + (i % 5) as f64);
        }
        for _ in 0..extra {
            let r = next() % n;
            if r == 0 {
                continue;
            }
            let c = next() % r;
            a.push(r, c, ((next() % 9) as f64 - 4.0) / 2.0);
        }
        a.to_csr()
    }

    #[test]
    fn lower_solve_matches_dense() {
        let l = random_lower(40, 120);
        let b: Vec<f64> = (0..40).map(|i| (i as f64).cos()).collect();
        let x = sptrsv_lower(&l, &b, false);
        let d = Dense::from_csr(&l);
        let xd = d.solve(&b).unwrap();
        for i in 0..40 {
            assert!(
                (x[i] - xd[i]).abs() < 1e-9 * xd[i].abs().max(1.0),
                "row {i}"
            );
        }
    }

    #[test]
    fn upper_solve_matches_dense() {
        let u = random_lower(40, 120).transpose();
        let b: Vec<f64> = (0..40).map(|i| (i as f64).sin() + 2.0).collect();
        let x = sptrsv_upper(&u, &b, false);
        let d = Dense::from_csr(&u);
        let xd = d.solve(&b).unwrap();
        for i in 0..40 {
            assert!(
                (x[i] - xd[i]).abs() < 1e-9 * xd[i].abs().max(1.0),
                "row {i}"
            );
        }
    }

    #[test]
    fn unit_diag_ignores_stored_diagonal() {
        // L = [[7, 0], [2, 7]] with unit_diag: acts like [[1,0],[2,1]].
        let mut a = Coo::new(2, 2);
        a.push(0, 0, 7.0);
        a.push(1, 0, 2.0);
        a.push(1, 1, 7.0);
        let x = sptrsv_lower(&a.to_csr(), &[1.0, 5.0], true);
        assert_eq!(x, vec![1.0, 3.0]);
    }

    #[test]
    fn levels_of_diagonal_matrix_is_one() {
        let mut a = Coo::new(5, 5);
        for i in 0..5 {
            a.push(i, i, 1.0);
        }
        let s = level_schedule(&a.to_csr(), true);
        assert_eq!(s.num_levels, 1);
        assert_eq!(s.level_sizes, vec![5]);
    }

    #[test]
    fn levels_of_bidiagonal_is_n() {
        let l = lower_bidiag(10);
        let s = level_schedule(&l, true);
        assert_eq!(s.num_levels, 10);
        assert!(s.level_of.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn levels_of_upper() {
        let u = lower_bidiag(10).transpose();
        let s = level_schedule(&u, false);
        assert_eq!(s.num_levels, 10);
        assert_eq!(s.level_of[9], 0); // last row solves first
        assert_eq!(s.level_of[0], 9);
    }

    #[test]
    fn block_diagonal_has_few_levels() {
        // Two independent 3-chains: levels = 3, not 6.
        let mut a = Coo::new(6, 6);
        for i in 0..6 {
            a.push(i, i, 1.0);
        }
        a.push(1, 0, 1.0);
        a.push(2, 1, 1.0);
        a.push(4, 3, 1.0);
        a.push(5, 4, 1.0);
        let s = level_schedule(&a.to_csr(), true);
        assert_eq!(s.num_levels, 3);
        assert_eq!(s.level_sizes, vec![2, 2, 2]);
    }

    #[test]
    fn recursive_matches_plain_lower() {
        for leaf in [1, 2, 8, 64] {
            let l = random_lower(100, 400);
            let b: Vec<f64> = (0..100).map(|i| ((i * i) % 17) as f64 - 8.0).collect();
            let plain = sptrsv_lower(&l, &b, false);
            let (rec, stats) = sptrsv_lower_recursive(&l, &b, false, leaf);
            for i in 0..100 {
                assert!(
                    (plain[i] - rec[i]).abs() < 1e-10 * plain[i].abs().max(1.0),
                    "leaf {leaf} row {i}"
                );
            }
            assert!(stats.leaves >= 1);
            assert!(stats.max_leaf_rows <= leaf.max(1));
        }
    }

    #[test]
    fn recursive_matches_plain_upper() {
        for leaf in [1, 4, 32] {
            let u = random_lower(80, 300).transpose();
            let b: Vec<f64> = (0..80).map(|i| (i as f64 * 0.3).sin()).collect();
            let plain = sptrsv_upper(&u, &b, false);
            let (rec, _) = sptrsv_upper_recursive(&u, &b, false, leaf);
            for i in 0..80 {
                assert!(
                    (plain[i] - rec[i]).abs() < 1e-10 * plain[i].abs().max(1.0),
                    "leaf {leaf} row {i}"
                );
            }
        }
    }

    #[test]
    fn recursive_stats_account_all_offdiag_nnz() {
        let l = random_lower(64, 200);
        let b = vec![1.0; 64];
        let (_, stats) = sptrsv_lower_recursive(&l, &b, false, 8);
        // Every strictly-lower nonzero is consumed exactly once, either in a
        // leaf or in a square-block SpMV.
        let strict_lower = l.nnz() - 64; // diagonal entries excluded
        assert_eq!(stats.spmv_nnz + stats.trsv_nnz, strict_lower);
        assert!(stats.spmv_nnz > 0, "recursion must offload work to SpMV");
        assert!(stats.depth > 1);
    }

    #[test]
    fn recursive_unit_diag() {
        let mut a = Coo::new(3, 3);
        a.push(1, 0, 2.0);
        a.push(2, 1, 3.0);
        let (x, _) = sptrsv_lower_recursive(&a.to_csr(), &[1.0, 0.0, 0.0], true, 1);
        assert_eq!(x, vec![1.0, -2.0, 6.0]);
    }

    #[test]
    fn into_variants_bitwise_match_allocating() {
        let l = random_lower(48, 160);
        let u = l.transpose();
        let b: Vec<f64> = (0..48).map(|i| (i as f64 * 0.37).sin() + 0.5).collect();

        let y_alloc = sptrsv_lower(&l, &b, false);
        let mut y = vec![0.0; 48];
        sptrsv_lower_into(&l, &b, &mut y, false);
        assert_eq!(
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y_alloc.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let z_alloc = sptrsv_upper(&u, &y_alloc, true);
        let mut z = vec![0.0; 48];
        sptrsv_upper_into(&u, &y, &mut z, true);
        assert_eq!(
            z.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            z_alloc.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
