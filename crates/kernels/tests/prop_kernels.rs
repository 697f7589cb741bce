//! Property-based tests for the computational kernels.

use mf_kernels::{
    blas1, ilu0, level_schedule, retrieve_vis_flags, spmm_mixed, spmv_csr, spmv_csr_par,
    spmv_mixed, spmv_mixed_par, spmv_tiled, spmv_tiled_par, sptrsv_lower, sptrsv_lower_recursive,
    sptrsv_upper, sptrsv_upper_recursive, MixedSpmvStats, RecursiveTrsvStats, SharedTiles,
    TrsvPlan, VisFlag,
};
use mf_precision::{pick_scale_exp, ClassifyOptions, Precision, RetierAction, TileTier};
use mf_sparse::{Coo, Csr, TiledMatrix};
use proptest::prelude::*;

fn coo_strategy(max_n: usize, max_nnz: usize) -> impl Strategy<Value = Csr> {
    (2..max_n).prop_flat_map(move |n| {
        prop::collection::vec((0..n, 0..n, -8i32..=8), 0..max_nnz).prop_map(move |entries| {
            let mut a = Coo::new(n, n);
            for i in 0..n {
                a.push(i, i, 20.0); // dominant diagonal
            }
            for (r, c, v) in entries {
                if r != c && v != 0 {
                    a.push(r, c, v as f64 / 2.0);
                }
            }
            a.to_csr()
        })
    })
}

/// Like [`coo_strategy`] but with values spread over many magnitudes, so
/// precision lowering is genuinely lossy and per-tile classification picks
/// different precisions — the interesting regime for bitwise-identity tests.
fn varied_coo_strategy(max_n: usize, max_nnz: usize) -> impl Strategy<Value = Csr> {
    (2..max_n).prop_flat_map(move |n| {
        prop::collection::vec((0..n, 0..n, 1i32..=2000), 0..max_nnz).prop_map(move |entries| {
            let mut a = Coo::new(n, n);
            for i in 0..n {
                a.push(i, i, 20.0 + (i % 7) as f64 * 0.013);
            }
            for (r, c, v) in entries {
                if r != c {
                    let mag = 10f64.powi((v % 11) - 5);
                    a.push(r, c, v as f64 / 777.0 * mag);
                }
            }
            a.to_csr()
        })
    })
}

/// Deterministic value vector for the fused-kernel equivalence tests: mostly
/// finite values across magnitudes, with NaN and ±Inf mixed in (1-in-16 slots
/// each) so the fused pass is proven to propagate non-finite data exactly
/// like the unfused sequence.
fn special_vec(n: usize, seed: u64, salt: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64 * 131 + salt);
            match h % 16 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                k => ((h >> 8) as f64 / (1u64 << 40) as f64 - 8.0) * 10f64.powi(k as i32 - 8),
            }
        })
        .collect()
}

/// Bitwise comparison that treats every NaN payload as equal (the unfused
/// reference can produce a differently-signed NaN from `-alpha * inf`-style
/// intermediates on some orderings; the contract is "NaN where NaN").
fn bits_match(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

const FLAG_CHOICES: [VisFlag; 5] = [
    VisFlag::Bypass,
    VisFlag::Fp16,
    VisFlag::Fp8,
    VisFlag::Fp32,
    VisFlag::Keep,
];

/// Deterministic pseudo-random flag pattern for `tile_cols` column segments.
fn flag_pattern(tile_cols: usize, seed: u64, round: u64) -> Vec<VisFlag> {
    (0..tile_cols)
        .map(|c| {
            let h = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(c as u64 * 97 + round * 131);
            FLAG_CHOICES[(h % FLAG_CHOICES.len() as u64) as usize]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mixed SpMV with all-Keep flags equals CSR SpMV (values here are
    /// exactly representable at every classified precision).
    #[test]
    fn mixed_spmv_matches_csr(a in coo_strategy(60, 250)) {
        let t = TiledMatrix::from_csr(&a);
        let mut shared = SharedTiles::load(&t);
        let flags = vec![VisFlag::Keep; t.tile_cols];
        let x: Vec<f64> = (0..a.ncols).map(|i| ((i * 3 + 1) % 7) as f64 - 3.0).collect();
        let mut y1 = vec![0.0; a.nrows];
        let mut y2 = vec![0.0; a.nrows];
        spmv_csr(&a, &x, &mut y1);
        let stats = spmv_mixed(&t, &mut shared, &flags, &x, &mut y2);
        for i in 0..a.nrows {
            prop_assert!((y1[i] - y2[i]).abs() < 1e-9 * y1[i].abs().max(1.0));
        }
        prop_assert_eq!(stats.nnz_total(), a.nnz());
    }

    /// Bypassing a column set equals zeroing those x entries.
    #[test]
    fn bypass_equals_zeroed_input(a in coo_strategy(50, 200), bypass_col in 0usize..4) {
        let t = TiledMatrix::from_csr(&a);
        if t.tile_cols == 0 { return Ok(()); }
        let bc = bypass_col % t.tile_cols;
        let mut shared = SharedTiles::load(&t);
        let mut flags = vec![VisFlag::Keep; t.tile_cols];
        flags[bc] = VisFlag::Bypass;
        let x: Vec<f64> = (0..a.ncols).map(|i| (i % 5) as f64 + 1.0).collect();
        let mut y1 = vec![0.0; a.nrows];
        spmv_mixed(&t, &mut shared, &flags, &x, &mut y1);
        // Oracle: zero the bypassed columns.
        let mut x2 = x.clone();
        for (i, e) in x2.iter_mut().enumerate() {
            if i / t.tile_size == bc {
                *e = 0.0;
            }
        }
        let mut y2 = vec![0.0; a.nrows];
        spmv_csr(&a, &x2, &mut y2);
        for i in 0..a.nrows {
            prop_assert!((y1[i] - y2[i]).abs() < 1e-9 * y2[i].abs().max(1.0));
        }
    }

    /// Triangular solves invert the triangle: L·x == b after solving.
    #[test]
    fn lower_solve_inverts(a in coo_strategy(50, 200)) {
        let l = a.lower_triangle();
        let b: Vec<f64> = (0..l.nrows).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let x = sptrsv_lower(&l, &b, false);
        let mut back = vec![0.0; l.nrows];
        l.matvec(&x, &mut back);
        for i in 0..l.nrows {
            prop_assert!((back[i] - b[i]).abs() < 1e-8 * b[i].abs().max(1.0));
        }
    }

    /// Recursive and plain solves agree at arbitrary leaf sizes, both ways.
    #[test]
    fn recursive_solves_agree(a in coo_strategy(60, 250), leaf in 1usize..80) {
        let l = a.lower_triangle();
        let u = a.upper_triangle();
        let b: Vec<f64> = (0..l.nrows).map(|i| (i as f64 * 0.37).sin()).collect();
        let p1 = sptrsv_lower(&l, &b, false);
        let (r1, _) = sptrsv_lower_recursive(&l, &b, false, leaf);
        let p2 = sptrsv_upper(&u, &b, false);
        let (r2, _) = sptrsv_upper_recursive(&u, &b, false, leaf);
        for i in 0..l.nrows {
            prop_assert!((p1[i] - r1[i]).abs() < 1e-9 * p1[i].abs().max(1.0));
            prop_assert!((p2[i] - r2[i]).abs() < 1e-9 * p2[i].abs().max(1.0));
        }
    }

    /// ILU(0) preconditioning: applying M⁻¹ never produces NaN on dominant
    /// systems, and M⁻¹·(A·x) ≈ x for tridiagonal-like patterns where the
    /// factorization is exact.
    #[test]
    fn ilu_apply_is_finite(a in coo_strategy(50, 200)) {
        let f = ilu0(&a).unwrap();
        let b: Vec<f64> = (0..a.nrows).map(|i| (i as f64).cos()).collect();
        let z = f.apply(&b);
        prop_assert!(z.iter().all(|v| v.is_finite()));
        let (z2, _) = f.apply_recursive(&b, 16);
        for i in 0..a.nrows {
            prop_assert!((z[i] - z2[i]).abs() < 1e-9 * z[i].abs().max(1.0));
        }
    }

    /// Level schedules are valid topological orders: every dependency of a
    /// row sits in a strictly earlier level.
    #[test]
    fn level_schedule_is_topological(a in coo_strategy(60, 250)) {
        let l = a.lower_triangle();
        let s = level_schedule(&l, true);
        for r in 0..l.nrows {
            for (c, _) in l.row(r) {
                if c < r {
                    prop_assert!(s.level_of[c] < s.level_of[r]);
                }
            }
        }
        prop_assert_eq!(s.level_sizes.iter().sum::<usize>(), l.nrows);
    }

    /// The stripe-parallel mixed SpMV is bitwise-identical to the serial
    /// engine — outputs, stats, arena bits, and precision state — across
    /// random matrices, tile sizes, thread counts, and flag patterns,
    /// including mid-run precision lowering and bypass (two rounds with
    /// different demands against the *same* shared-tile state).
    #[test]
    fn par_mixed_spmv_bitwise_equals_serial(
        a in varied_coo_strategy(80, 400),
        tile_pick in 0usize..5,
        threads in 2usize..9,
        flag_seed in 0u64..1_000_000,
    ) {
        let tile = [2usize, 4, 8, 16, 32][tile_pick];
        let t = TiledMatrix::from_csr_with(&a, tile, &ClassifyOptions::default());
        let x: Vec<f64> = (0..a.ncols)
            .map(|i| ((i * 13 + 5) % 29) as f64 * 0.37 - 4.0)
            .collect();
        let mut sh_s = SharedTiles::load(&t);
        let mut sh_p = SharedTiles::load(&t);
        for round in 0..2u64 {
            let flags = flag_pattern(t.tile_cols, flag_seed, round);
            let mut y_s = vec![0.0; a.nrows];
            let mut y_p = vec![0.0; a.nrows];
            let st_s = spmv_mixed(&t, &mut sh_s, &flags, &x, &mut y_s);
            let st_p = spmv_mixed_par(&t, &mut sh_p, &flags, &x, &mut y_p, threads);
            prop_assert_eq!(st_s, st_p);
            for i in 0..a.nrows {
                prop_assert_eq!(y_s[i].to_bits(), y_p[i].to_bits());
            }
        }
        // Shared state after both rounds: identical lowered values (bitwise)
        // and identical per-tile precision records.
        prop_assert_eq!(sh_s.arena.len(), sh_p.arena.len());
        for k in 0..sh_s.arena.len() {
            prop_assert_eq!(sh_s.arena[k].to_bits(), sh_p.arena[k].to_bits());
        }
        prop_assert_eq!(&sh_s.current_prec, &sh_p.current_prec);
    }

    /// BLAS-1 identities: dot linearity and axpy/xpay consistency.
    #[test]
    fn blas1_identities(v in prop::collection::vec(-100.0f64..100.0, 1..200), alpha in -10.0f64..10.0) {
        let n = v.len();
        let w: Vec<f64> = v.iter().map(|x| x * 0.5 + 1.0).collect();
        // dot(v, w) == dot(w, v)
        prop_assert!((blas1::dot(&v, &w) - blas1::dot(&w, &v)).abs() < 1e-9);
        // axpy then subtract recovers the original.
        let mut y = w.clone();
        blas1::axpy(alpha, &v, &mut y);
        blas1::axpy(-alpha, &v, &mut y);
        for i in 0..n {
            prop_assert!((y[i] - w[i]).abs() < 1e-9 * w[i].abs().max(1.0));
        }
        // waxpy(x, a, y) == x + a*y elementwise.
        let mut z = vec![0.0; n];
        blas1::waxpy(&v, alpha, &w, &mut z);
        for i in 0..n {
            prop_assert!((z[i] - (v[i] + alpha * w[i])).abs() < 1e-12 * z[i].abs().max(1.0));
        }
    }

    /// The fused pipelined-CG update applied per random segment is bitwise
    /// identical to the unfused whole-vector xpay/axpy sequence — over random
    /// values (including NaN/Inf), scalars, and segment splits. This is the
    /// exact claim the threaded engines rely on: fusing five kernels into one
    /// pass, cut at arbitrary owner-segment boundaries, changes no bits.
    #[test]
    fn fused_cg_update_bitwise_equals_unfused(
        n in 1usize..300,
        seed in 0u64..u64::MAX,
        alpha_raw in -100.0f64..100.0,
        alpha_kind in 0u8..10,
        beta in -100.0f64..100.0,
    ) {
        // 1-in-5 cases drive a non-finite alpha through the fused pass.
        let alpha = match alpha_kind {
            8 => f64::INFINITY,
            9 => f64::NAN,
            _ => alpha_raw,
        };
        let mk = |salt: u64| special_vec(n, seed, salt);
        let q = mk(1);
        let (p0, s0, z0, x0, r0, w0) = (mk(2), mk(3), mk(7), mk(4), mk(5), mk(6));

        // Unfused reference over the whole vector.
        let (mut p1, mut s1, mut z1, mut x1, mut r1, mut w1) = (
            p0.clone(), s0.clone(), z0.clone(), x0.clone(), r0.clone(), w0.clone(),
        );
        blas1::xpay(&r1.clone(), beta, &mut p1);
        blas1::xpay(&w1.clone(), beta, &mut s1);
        blas1::xpay(&q, beta, &mut z1);
        blas1::axpy(alpha, &p1, &mut x1);
        blas1::axpy(-alpha, &s1, &mut r1);
        blas1::axpy(-alpha, &z1, &mut w1);

        // Fused pass over random contiguous segments (cut points from the
        // same seed), mimicking arbitrary owner-warp boundaries.
        let mut bounds: Vec<usize> = (0..(seed % 5) as usize)
            .map(|k| (seed.wrapping_mul(k as u64 * 2 + 3) % (n as u64 + 1)) as usize)
            .collect();
        bounds.push(0);
        bounds.push(n);
        bounds.sort_unstable();
        bounds.dedup();
        let (mut p2, mut s2, mut z2, mut x2, mut r2, mut w2) = (
            p0.clone(), s0.clone(), z0.clone(), x0.clone(), r0.clone(), w0.clone(),
        );
        for win in bounds.windows(2) {
            let (lo, hi) = (win[0], win[1]);
            blas1::cg_pipelined_update(
                alpha, beta, &q[lo..hi],
                &mut p2[lo..hi], &mut s2[lo..hi], &mut z2[lo..hi],
                &mut x2[lo..hi], &mut r2[lo..hi], &mut w2[lo..hi],
            );
        }
        for i in 0..n {
            prop_assert!(bits_match(p1[i], p2[i]), "p[{i}]: {:e} vs {:e}", p1[i], p2[i]);
            prop_assert!(bits_match(s1[i], s2[i]), "s[{i}]: {:e} vs {:e}", s1[i], s2[i]);
            prop_assert!(bits_match(z1[i], z2[i]), "z[{i}]: {:e} vs {:e}", z1[i], z2[i]);
            prop_assert!(bits_match(x1[i], x2[i]), "x[{i}]: {:e} vs {:e}", x1[i], x2[i]);
            prop_assert!(bits_match(r1[i], r2[i]), "r[{i}]: {:e} vs {:e}", r1[i], r2[i]);
            prop_assert!(bits_match(w1[i], w2[i]), "w[{i}]: {:e} vs {:e}", w1[i], w2[i]);
        }
    }

    /// Same claim for the eight-way fused pipelined-PCG update.
    #[test]
    fn fused_pcg_update_bitwise_equals_unfused(
        n in 1usize..250,
        seed in 0u64..u64::MAX,
        alpha in -50.0f64..50.0,
        beta_raw in -50.0f64..50.0,
        beta_kind in 0u8..9,
        cut in 0usize..250,
    ) {
        let beta = if beta_kind == 8 { f64::NEG_INFINITY } else { beta_raw };
        let m_vals = special_vec(n, seed, 21);
        let nn_vals = special_vec(n, seed, 22);
        let m = &m_vals[..];
        let nn = &nn_vals[..];
        let mk = |k: f64| -> Vec<f64> { (0..n).map(|i| ((i as f64) * k).sin() * 1e2).collect() };
        let (p0, s0, q0, zz0) = (mk(0.1), mk(0.2), mk(0.3), mk(0.4));
        let (x0, r0, u0, w0) = (mk(0.5), mk(0.6), mk(0.8), mk(1.1));

        let (mut p1, mut s1, mut q1, mut zz1) = (p0.clone(), s0.clone(), q0.clone(), zz0.clone());
        let (mut x1, mut r1, mut u1, mut w1) = (x0.clone(), r0.clone(), u0.clone(), w0.clone());
        blas1::xpay(&u1.clone(), beta, &mut p1);
        blas1::xpay(&w1.clone(), beta, &mut s1);
        blas1::xpay(m, beta, &mut q1);
        blas1::xpay(nn, beta, &mut zz1);
        blas1::axpy(alpha, &p1, &mut x1);
        blas1::axpy(-alpha, &s1, &mut r1);
        blas1::axpy(-alpha, &q1, &mut u1);
        blas1::axpy(-alpha, &zz1, &mut w1);

        let (mut p2, mut s2, mut q2, mut zz2) = (p0.clone(), s0.clone(), q0.clone(), zz0.clone());
        let (mut x2, mut r2, mut u2, mut w2) = (x0.clone(), r0.clone(), u0.clone(), w0.clone());
        let c = cut.min(n);
        for (lo, hi) in [(0, c), (c, n)] {
            blas1::pcg_pipelined_update(
                alpha, beta, &m[lo..hi], &nn[lo..hi],
                &mut p2[lo..hi], &mut s2[lo..hi], &mut q2[lo..hi], &mut zz2[lo..hi],
                &mut x2[lo..hi], &mut r2[lo..hi], &mut u2[lo..hi], &mut w2[lo..hi],
            );
        }
        for i in 0..n {
            prop_assert!(bits_match(p1[i], p2[i]));
            prop_assert!(bits_match(s1[i], s2[i]));
            prop_assert!(bits_match(q1[i], q2[i]));
            prop_assert!(bits_match(zz1[i], zz2[i]));
            prop_assert!(bits_match(x1[i], x2[i]));
            prop_assert!(bits_match(r1[i], r2[i]));
            prop_assert!(bits_match(u1[i], u2[i]));
            prop_assert!(bits_match(w1[i], w2[i]));
        }
    }

    /// The fused dot pair returns exactly the bits of two separate dots.
    #[test]
    fn dot2_bitwise_equals_two_dots(
        x1 in prop::collection::vec(-1.0e8f64..1.0e8, 1..400),
        seed in 0u64..u64::MAX,
    ) {
        let n = x1.len();
        let x2: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7 + seed as f64 * 1e-12).cos()).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 13 + 7) % 101) as f64 * 1e-3 - 0.05).collect();
        let (a, b) = blas1::dot2(&x1, &x2, &y);
        prop_assert_eq!(a.to_bits(), blas1::dot(&x1, &y).to_bits());
        prop_assert_eq!(b.to_bits(), blas1::dot(&x2, &y).to_bits());
    }

    /// Both consumers of the shared `DETERMINISTIC_CHUNK` constant — the
    /// blas1 fixed-chunk reduction tree and the SpMV parallel/serial gate —
    /// stay bitwise-identical to their serial references across the chunk
    /// boundary (lengths straddling 4 096) and any rayon thread count.
    #[test]
    fn deterministic_chunk_paths_bitwise_equal_serial(
        delta in 0usize..64,
        seed in 0u64..1_000_000,
        extra in prop::collection::vec((0usize..4_160, 0usize..4_160, 1i32..=100), 0..200),
    ) {
        let n = blas1::DETERMINISTIC_CHUNK - 32 + delta; // straddles the gate
        // blas1 reduction: par vs serial fixed-chunk reference, magnitudes
        // spread so reassociation would change bits.
        let x: Vec<f64> = (0..n)
            .map(|i| ((i as u64 * 31 + seed) % 97) as f64 * 10f64.powi((i % 13) as i32 - 6))
            .collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        prop_assert_eq!(blas1::dot_par(&x, &y).to_bits(), blas1::dot_det(&x, &y).to_bits());
        prop_assert_eq!(blas1::norm2_par(&x).to_bits(), blas1::dot_det(&x, &x).sqrt().to_bits());

        // SpMV gate: par vs serial, bitwise, on a matrix the same size.
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 20.0 + (i % 5) as f64 * 0.017);
        }
        for (r, c, v) in extra {
            if r < n && c < n && r != c {
                coo.push(r, c, v as f64 * 10f64.powi((v % 9) - 4));
            }
        }
        let a = coo.to_csr();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        spmv_csr(&a, &x, &mut y1);
        spmv_csr_par(&a, &x, &mut y2);
        for i in 0..n {
            prop_assert_eq!(y1[i].to_bits(), y2[i].to_bits());
        }
        let t = TiledMatrix::from_csr(&a);
        let mut y3 = vec![0.0; n];
        let mut y4 = vec![0.0; n];
        spmv_tiled(&t, &x, &mut y3);
        spmv_tiled_par(&t, &x, &mut y4);
        for i in 0..n {
            prop_assert_eq!(y3[i].to_bits(), y4[i].to_bits());
        }
    }
}

// ---- Oracles: the kernels as they were before the row-ordered replays ----

/// The recursive-block forward solve as a recursive walk (ref. [41]): the
/// oracle [`TrsvPlan`] must reproduce bit for bit.
#[allow(clippy::too_many_arguments)]
fn rec_lower(
    l: &Csr,
    x: &mut [f64],
    lo: usize,
    hi: usize,
    unit: bool,
    leaf: usize,
    stats: &mut RecursiveTrsvStats,
    depth: usize,
) {
    if hi <= lo {
        return;
    }
    stats.depth = stats.depth.max(depth);
    if hi - lo <= leaf {
        stats.leaves += 1;
        stats.max_leaf_rows = stats.max_leaf_rows.max(hi - lo);
        for r in lo..hi {
            let mut sum = 0.0;
            let mut diag = if unit { 1.0 } else { 0.0 };
            for (c, v) in l.row(r) {
                if c >= lo && c < r {
                    sum += v * x[c];
                    stats.trsv_nnz += 1;
                } else if c == r && !unit {
                    diag = v;
                }
            }
            x[r] = (x[r] - sum) / diag;
        }
        return;
    }
    let mid = lo + (hi - lo) / 2;
    rec_lower(l, x, lo, mid, unit, leaf, stats, depth + 1);
    for r in mid..hi {
        let mut sum = 0.0;
        for (c, v) in l.row(r) {
            if c >= lo && c < mid {
                sum += v * x[c];
                stats.spmv_nnz += 1;
            }
        }
        x[r] -= sum;
    }
    rec_lower(l, x, mid, hi, unit, leaf, stats, depth + 1);
}

/// The recursive-block backward solve as a recursive walk.
#[allow(clippy::too_many_arguments)]
fn rec_upper(
    u: &Csr,
    x: &mut [f64],
    lo: usize,
    hi: usize,
    unit: bool,
    leaf: usize,
    stats: &mut RecursiveTrsvStats,
    depth: usize,
) {
    if hi <= lo {
        return;
    }
    stats.depth = stats.depth.max(depth);
    if hi - lo <= leaf {
        stats.leaves += 1;
        stats.max_leaf_rows = stats.max_leaf_rows.max(hi - lo);
        for r in (lo..hi).rev() {
            let mut sum = 0.0;
            let mut diag = if unit { 1.0 } else { 0.0 };
            for (c, v) in u.row(r) {
                if c > r && c < hi {
                    sum += v * x[c];
                    stats.trsv_nnz += 1;
                } else if c == r && !unit {
                    diag = v;
                }
            }
            x[r] = (x[r] - sum) / diag;
        }
        return;
    }
    let mid = lo + (hi - lo) / 2;
    rec_upper(u, x, mid, hi, unit, leaf, stats, depth + 1);
    for r in lo..mid {
        let mut sum = 0.0;
        for (c, v) in u.row(r) {
            if c >= mid && c < hi {
                sum += v * x[c];
                stats.spmv_nnz += 1;
            }
        }
        x[r] -= sum;
    }
    rec_upper(u, x, lo, mid, unit, leaf, stats, depth + 1);
}

/// A random triangular-solve operand with the awkward cases the replay
/// must keep bitwise: rows stored in column order or shuffled (so a row's
/// blocks interleave), duplicate columns, stray entries on the wrong side
/// of the diagonal, and rows with no off-diagonal entries. Non-unit operands
/// always store a diagonal (stored last or first at random); unit operands
/// may leave rows entirely empty.
fn trsv_operand(n: usize, entries: &[(usize, usize, i32)], unit: bool, seed: u64) -> Csr {
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for &(r, c, v) in entries {
        let (r, c) = (r % n, c % n);
        if r != c && v != 0 {
            rows[r].push((c, v as f64 / 8.0));
        }
    }
    for (r, row) in rows.iter_mut().enumerate() {
        if !unit || r % 3 == 0 {
            let d = 1.5 + (r % 4) as f64 * 0.375;
            row.push((r, if r % 2 == 0 { d } else { -d }));
        }
        // Odd seeds shuffle each row deterministically; even seeds store
        // rows in column order (duplicates kept), the layout factors have.
        if seed.is_multiple_of(2) {
            row.sort_by_key(|&(c, _)| c);
            continue;
        }
        let mut h = seed ^ (r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for k in (1..row.len()).rev() {
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            row.swap(k, (h >> 33) as usize % (k + 1));
        }
    }
    let mut csr = Csr {
        nrows: n,
        ncols: n,
        rowptr: vec![0],
        colidx: Vec::new(),
        vals: Vec::new(),
    };
    for row in rows {
        for (c, v) in row {
            csr.colidx.push(c);
            csr.vals.push(v);
        }
        csr.rowptr.push(csr.colidx.len());
    }
    csr
}

/// The tile-order mixed SpMV (paper Algorithm 5 walked tile by tile) over
/// a tile-ordered copy of the on-chip values.
struct TileOrderOracle {
    arena: Vec<f64>,
    tile_off: Vec<usize>,
    prec: Vec<Precision>,
}

impl TileOrderOracle {
    fn load(m: &TiledMatrix) -> TileOrderOracle {
        let tile_off: Vec<usize> = m.tile_nnz.iter().map(|&o| o as usize).collect();
        let mut arena = vec![0.0; m.nnz()];
        for i in 0..m.tile_count() {
            m.decode_tile_into(i, &mut arena[tile_off[i]..tile_off[i + 1]]);
        }
        TileOrderOracle {
            arena,
            tile_off,
            prec: m.tile_prec.clone(),
        }
    }

    fn retier(&mut self, m: &TiledMatrix, actions: &[RetierAction]) {
        for a in actions {
            let i = a.tile as usize;
            let vals = &mut self.arena[self.tile_off[i]..self.tile_off[i + 1]];
            m.decode_tile_into(i, vals);
            a.to.quantize_slice(vals);
            self.prec[i] = a.to.storage();
        }
    }

    fn spmv(
        &mut self,
        m: &TiledMatrix,
        flags: &[VisFlag],
        x: &[f64],
        y: &mut [f64],
    ) -> MixedSpmvStats {
        let mut stats = MixedSpmvStats::default();
        y.fill(0.0);
        for i in 0..m.tile_count() {
            let v_f = flags[m.tile_colidx[i] as usize];
            let tile_nnz = (m.tile_nnz[i + 1] - m.tile_nnz[i]) as usize;
            if v_f == VisFlag::Bypass {
                stats.tiles_bypassed += 1;
                stats.nnz_bypassed += tile_nnz;
                continue;
            }
            let (a_lo, a_hi) = (self.tile_off[i], self.tile_off[i + 1]);
            if let Some(demanded) = v_f.demanded() {
                if demanded < self.prec[i] {
                    self.prec[i] = demanded;
                    demanded.quantize_slice(&mut self.arena[a_lo..a_hi]);
                    stats.conversions += 1;
                }
            }
            stats.tiles_computed += 1;
            stats.nnz_by_prec[self.prec[i].tile_code() as usize] += tile_nnz;
            let base_row = m.tile_rowidx[i] as usize * m.tile_size;
            let base_col = m.tile_colidx[i] as usize * m.tile_size;
            for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
                let r = base_row + m.row_index[ri] as usize;
                let mut sum = 0.0;
                for k in m.csr_rowptr[ri] as usize..m.csr_rowptr[ri + 1] as usize {
                    sum += self.arena[k] * x[base_col + m.csr_colidx[k] as usize];
                }
                y[r] += sum;
            }
        }
        stats
    }
}

/// Algorithm 4 as the paper writes it: count the elements below each
/// threshold, take the first threshold that covers the whole segment.
fn vis_flags_by_counting(p: &[f64], segment_len: usize, eps: f64) -> Vec<VisFlag> {
    let thresholds = [eps * 1e-3, eps * 1e-2, eps * 1e-1, eps];
    p.chunks(segment_len)
        .map(|seg| {
            let mut flag = [0usize; 4];
            for &v in seg {
                for (u, &t) in thresholds.iter().enumerate() {
                    if v.abs() < t {
                        flag[u] += 1;
                    }
                }
            }
            match flag.iter().position(|&c| c == seg.len()) {
                Some(0) => VisFlag::Bypass,
                Some(1) => VisFlag::Fp8,
                Some(2) => VisFlag::Fp16,
                Some(3) => VisFlag::Fp32,
                _ => VisFlag::Keep,
            }
        })
        .collect()
}

fn assert_bits(a: &[f64], b: &[f64]) -> proptest::test_runner::TestCaseResult {
    prop_assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert!(
            x.to_bits() == y.to_bits(),
            "index {}: {:e} vs {:e}",
            i,
            x,
            y
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The row-ordered SpTRSV replay is bitwise the recursive walk: the
    /// solution bits, every `RecursiveTrsvStats` field and the dependency
    /// level count, for both triangles, unit and non-unit diagonals, and
    /// leaf sizes from 1 to beyond `n`.
    #[test]
    fn trsv_replay_bitwise_equals_recursion(
        n in 1usize..150,
        entries in prop::collection::vec((0usize..150, 0usize..150, -16i32..=16), 0..600),
        leaf_pick in 0usize..6,
        unit_pick in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let leaf = [1, 2, 3, 64, n, n + 7][leaf_pick];
        let unit = unit_pick == 1;
        let t = trsv_operand(n, &entries, unit, seed);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 13) as f64 * 0.25 - 1.5).collect();
        for lower in [true, false] {
            let mut oracle = b.clone();
            let mut want = RecursiveTrsvStats::default();
            let plan = if lower {
                rec_lower(&t, &mut oracle, 0, n, unit, leaf, &mut want, 1);
                TrsvPlan::lower(&t, unit, leaf)
            } else {
                rec_upper(&t, &mut oracle, 0, n, unit, leaf, &mut want, 1);
                TrsvPlan::upper(&t, unit, leaf)
            };
            let mut x = vec![f64::NAN; n];
            plan.solve_into(&b, &mut x);
            assert_bits(&x, &oracle)?;
            prop_assert_eq!(plan.stats(), want);
            prop_assert_eq!(plan.levels(), level_schedule(&t, lower).num_levels);
        }
    }

    /// The max-|p| flag scan equals the paper's counting scan on the values
    /// where the two could part: ±0, subnormals, ±Inf, NaN and values lying
    /// exactly on a threshold.
    #[test]
    fn vis_flags_max_form_equals_counting_form(
        picks in prop::collection::vec((0usize..14, 0u8..2), 0..120),
        seg in 1usize..9,
        eps_pick in 0usize..4,
    ) {
        let eps = [1e-10, 1.0, f64::MIN_POSITIVE, 3e300][eps_pick];
        let thresholds = [eps * 1e-3, eps * 1e-2, eps * 1e-1, eps];
        let p: Vec<f64> = picks
            .iter()
            .map(|&(k, neg)| {
                let v = match k {
                    0 => 0.0,
                    1 => f64::MIN_POSITIVE / 4.0,
                    2 => f64::MIN_POSITIVE,
                    3 => f64::INFINITY,
                    4 => f64::NAN,
                    5..=8 => thresholds[k - 5],
                    9..=12 => thresholds[k - 9] * 0.75,
                    _ => 1.0,
                };
                if neg == 1 { -v } else { v }
            })
            .collect();
        let mut flags = Vec::new();
        retrieve_vis_flags(&p, seg, eps, &mut flags);
        prop_assert_eq!(flags, vis_flags_by_counting(&p, seg, eps));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The row-ordered mixed SpMV kernels are bitwise the tile-order walk:
    /// `spmv_mixed`, `spmv_mixed_par` at 1–7 stripes and every `spmm_mixed`
    /// column, over flag rounds that bypass and lower FP32 → FP16 → FP8,
    /// after a re-tier plan with scaled-FP8 tiers. Outputs, statistics and
    /// each tile's on-chip values must all match.
    #[test]
    fn row_ordered_spmv_bitwise_equals_tile_order(
        a in varied_coo_strategy(90, 450),
        tile_pick in 0usize..5,
        flag_seed in 0u64..1_000_000,
    ) {
        let tile = [2usize, 3, 4, 8, 16][tile_pick];
        let m = TiledMatrix::from_csr_with(&a, tile, &ClassifyOptions::default());
        let n = a.nrows;
        let k = 3;
        let xs: Vec<f64> = (0..n * k)
            .map(|i| ((i * 13 + 5) % 29) as f64 * 0.37 - 4.0)
            .collect();
        let x = &xs[..n];

        // Re-tier every third tile, alternating FP16 and scaled FP8.
        let actions: Vec<RetierAction> = (0..m.tile_count())
            .filter(|i| i % 3 == (flag_seed % 3) as usize)
            .map(|i| {
                let max = m.decode_tile_values(i).iter().fold(0.0f64, |a, v| a.max(v.abs()));
                let to = if i % 2 == 0 {
                    TileTier::Full(Precision::Fp16)
                } else {
                    TileTier::ScaledFp8 { scale_exp: pick_scale_exp(max) }
                };
                RetierAction { tile: i as u32, from: TileTier::Full(m.tile_prec[i]), to }
            })
            .collect();

        let mut oracle = TileOrderOracle::load(&m);
        oracle.retier(&m, &actions);
        let mut seq = SharedTiles::load(&m);
        seq.apply_retier(&m, &actions);
        let mut pars: Vec<SharedTiles> = (0..7).map(|_| seq.clone()).collect();
        let mut blocked = seq.clone();

        let demand = [VisFlag::Keep, VisFlag::Fp32, VisFlag::Fp16, VisFlag::Fp8];
        for (round, &lowered) in demand.iter().enumerate() {
            let flags: Vec<VisFlag> = flag_pattern(m.tile_cols, flag_seed, round as u64)
                .into_iter()
                .map(|f| if f == VisFlag::Bypass { f } else { lowered })
                .collect();
            let mut want = vec![0.0; n];
            let want_stats = oracle.spmv(&m, &flags, x, &mut want);

            let mut y = vec![f64::NAN; n];
            prop_assert_eq!(spmv_mixed(&m, &mut seq, &flags, x, &mut y), want_stats);
            assert_bits(&y, &want)?;
            for (s, sh) in pars.iter_mut().enumerate() {
                let mut y = vec![f64::NAN; n];
                prop_assert_eq!(spmv_mixed_par(&m, sh, &flags, x, &mut y, s + 1), want_stats);
                assert_bits(&y, &want)?;
            }

            let mut ys = vec![f64::NAN; n * k];
            let active = [true, false, true];
            prop_assert_eq!(spmm_mixed(&m, &mut blocked, &flags, &xs, &mut ys, &active), want_stats);
            for (j, _) in active.iter().enumerate().filter(|(_, a)| **a) {
                let mut col = vec![0.0; n];
                let mut replay = TileOrderOracle {
                    arena: oracle.arena.clone(),
                    tile_off: oracle.tile_off.clone(),
                    prec: oracle.prec.clone(),
                };
                replay.spmv(&m, &flags, &xs[j * n..(j + 1) * n], &mut col);
                assert_bits(&ys[j * n..(j + 1) * n], &col)?;
            }
            prop_assert!(ys[n..2 * n].iter().all(|v| v.is_nan()), "inactive column written");
        }

        for sh in std::iter::once(&seq).chain(&pars).chain(std::iter::once(&blocked)) {
            prop_assert_eq!(&sh.current_prec, &oracle.prec);
            for i in 0..m.tile_count() {
                assert_bits(&sh.tile_values(&m, i), &oracle.arena[oracle.tile_off[i]..oracle.tile_off[i + 1]])?;
            }
        }
    }
}
