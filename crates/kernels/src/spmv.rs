//! Sparse matrix–vector products.
//!
//! Three kernels, mirroring the paper's implementations:
//!
//! * [`spmv_csr`] / [`spmv_csr_par`] — the FP64 CSR kernel the
//!   cuSPARSE/hipSPARSE baselines call.
//! * [`spmv_tiled`] — the tiled kernel at each tile's *initial* precision.
//! * [`spmv_mixed`] — paper **Algorithm 5**: the tiled kernel driven by the
//!   per-column `vis_flag` demands, with on-chip (shared-memory copy)
//!   precision lowering and tile bypass.
//!
//! The mixed kernels run in two halves: a per-tile *demand pass* (bypass,
//! one-way lowering, [`MixedSpmvStats`]) and a *row replay* over the
//! row-ordered on-chip arena of [`SharedTiles`]. The replay keeps the
//! tile-order kernel's floating-point order — per row, one fold from `0.0`
//! per tile in tile-column order, summed from `0.0` — so results are
//! bitwise those of walking the tiles, without the per-tile indirection.

use crate::blas1::DETERMINISTIC_CHUNK;
use crate::visflag::VisFlag;
use mf_precision::Precision;
use mf_sparse::{Csr, TiledMatrix};
use rayon::prelude::*;

/// Reference FP64 CSR SpMV: `y = A x`.
pub fn spmv_csr(a: &Csr, x: &[f64], y: &mut [f64]) {
    a.matvec(x, y);
}

/// Rayon-parallel FP64 CSR SpMV: `y = A x` (row-parallel, like one GPU
/// thread per row).
pub fn spmv_csr_par(a: &Csr, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.ncols);
    assert_eq!(y.len(), a.nrows);
    if a.nrows < DETERMINISTIC_CHUNK {
        return spmv_csr(a, x, y);
    }
    y.par_iter_mut().enumerate().for_each(|(r, yr)| {
        let mut sum = 0.0;
        for k in a.rowptr[r]..a.rowptr[r + 1] {
            sum += a.vals[k] * x[a.colidx[k]];
        }
        *yr = sum;
    });
}

/// Tiled SpMV at initial tile precisions: `y = A x`.
pub fn spmv_tiled(m: &TiledMatrix, x: &[f64], y: &mut [f64]) {
    m.matvec(x, y);
}

/// Rayon-parallel tiled SpMV: tiles are grouped by tile *row*, whose output
/// row ranges are disjoint — so tile rows parallelize without atomics (the
/// CPU analogue of assigning row tiles to independent thread blocks).
pub fn spmv_tiled_par(m: &TiledMatrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), m.ncols);
    assert_eq!(y.len(), m.nrows);
    if m.nrows < DETERMINISTIC_CHUNK {
        return spmv_tiled(m, x, y);
    }
    // Tiles are stored sorted by (tile_row, tile_col): record each tile
    // row's contiguous range, indexed directly by tile row.
    let t = m.tile_count();
    let mut row_range: Vec<(usize, usize)> = vec![(0, 0); m.tile_rows];
    let mut i = 0;
    while i < t {
        let tr = m.tile_rowidx[i] as usize;
        let lo = i;
        while i < t && m.tile_rowidx[i] as usize == tr {
            i += 1;
        }
        row_range[tr] = (lo, i);
    }
    let ts = m.tile_size;
    // Chunk y by tile row so each task owns its slice exclusively.
    let mut chunks: Vec<&mut [f64]> = Vec::with_capacity(m.tile_rows);
    {
        let mut rest = y;
        for _ in 0..m.tile_rows {
            let take = ts.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            chunks.push(head);
            rest = tail;
        }
    }
    let mut tasks: Vec<(usize, &mut [f64])> = chunks.into_iter().enumerate().collect();
    tasks.par_iter_mut().for_each(|(tr, yslice)| {
        yslice.fill(0.0);
        let (lo, hi) = row_range[*tr];
        m.tile_matvec_span(lo..hi, x, yslice, *tr * ts);
    });
}

/// The "shared memory" copy of the matrix tiles held across iterations by
/// the single-kernel scheme (§III-C). Values are decoded once at load time;
/// the dynamic strategy (§III-D) lowers a tile's precision by requantizing
/// this copy *in place* — a one-way, once-per-level conversion, exactly as
/// the paper describes ("our precision conversion occurs only once in
/// on-chip memory; thereafter, the low-precision values ... can be reused").
///
/// # Layout
///
/// The arena is laid out in **row order**. Row `r` is a run of segments
/// (`row_seg[r]..row_seg[r + 1]`); a segment is one tile's share of the
/// row, the segments of a row follow tile-column order, and segment `s`
/// holds `arena[seg_ptr[s]..seg_ptr[s + 1]]` with the absolute column of
/// each value in `cols`, in the tile's own storage order. A segment's tile
/// column is derived from its first column (a tile's rows without entries
/// get no segment), so bypass needs no per-segment tile index. A stripe of
/// whole tile rows is a contiguous row range and therefore a contiguous
/// arena range.
#[derive(Clone, Debug)]
pub struct SharedTiles {
    /// Decoded values in row order (see the layout above).
    pub arena: Vec<f64>,
    /// Absolute column of each arena value.
    cols: Vec<u32>,
    /// Arena offsets per segment (`segments + 1` entries).
    seg_ptr: Vec<u32>,
    /// Segment offsets per matrix row (`nrows + 1` entries).
    row_seg: Vec<u32>,
    /// Current (possibly lowered) precision per tile.
    pub current_prec: Vec<Precision>,
    /// Initial precision per tile (from `TilePrec`).
    pub initial_prec: Vec<Precision>,
}

impl SharedTiles {
    /// Loads (decodes) every tile — the one-time off-chip → on-chip copy —
    /// into the row-ordered arena.
    ///
    /// # Panics
    /// If the tiles are not sorted by `(tile row, tile column)` with each
    /// tile's rows listed in ascending order, as `TiledMatrix` builds them.
    pub fn load(m: &TiledMatrix) -> SharedTiles {
        let (n, ts, nnz) = (m.nrows, m.tile_size, m.nnz());
        assert!(
            nnz <= u32::MAX as usize && m.ncols <= u32::MAX as usize,
            "matrix too large for 32-bit arena offsets"
        );
        let mut arena = Vec::with_capacity(nnz);
        let mut cols = Vec::with_capacity(nnz);
        let mut seg_ptr = Vec::with_capacity(m.nonempty_row_count() + 1);
        let mut row_seg = Vec::with_capacity(n + 1);
        seg_ptr.push(0u32);
        row_seg.push(0u32);
        let (mut buf, mut cursor) = (Vec::new(), Vec::new());
        let mut t0 = 0;
        for tr in 0..m.tile_rows {
            // The tile row's tiles, decoded side by side.
            let mut t1 = t0;
            while t1 < m.tile_count() && m.tile_rowidx[t1] as usize == tr {
                t1 += 1;
            }
            let base = m.tile_nnz[t0] as usize;
            buf.resize(m.tile_nnz[t1] as usize - base, 0.0);
            for i in t0..t1 {
                let (lo, hi) = (m.tile_nnz[i] as usize, m.tile_nnz[i + 1] as usize);
                m.decode_tile_into(i, &mut buf[lo - base..hi - base]);
            }
            // Row by row, each tile contributes its next listed row when
            // that is this row: one segment per tile, in tile-column order.
            cursor.clear();
            cursor.extend((t0..t1).map(|i| m.nonrow[i] as usize));
            for lr in 0..ts.min(n - tr * ts) {
                for (i, ri) in (t0..t1).zip(cursor.iter_mut()) {
                    if *ri == m.nonrow[i + 1] as usize || m.row_index[*ri] as usize != lr {
                        continue;
                    }
                    let base_col = m.tile_colidx[i] as usize * ts;
                    let (k0, k1) = (m.csr_rowptr[*ri] as usize, m.csr_rowptr[*ri + 1] as usize);
                    arena.extend(buf[k0 - base..k1 - base].iter().copied());
                    cols.extend(
                        m.csr_colidx[k0..k1]
                            .iter()
                            .map(|&c| (base_col + c as usize) as u32),
                    );
                    if k1 > k0 {
                        seg_ptr.push(arena.len() as u32);
                    }
                    *ri += 1;
                }
                row_seg.push((seg_ptr.len() - 1) as u32);
            }
            assert!(
                (t0..t1)
                    .zip(&cursor)
                    .all(|(i, &ri)| ri == m.nonrow[i + 1] as usize),
                "tile rows must be listed in ascending order"
            );
            t0 = t1;
        }
        assert_eq!(t0, m.tile_count(), "tiles must be sorted by tile row");
        SharedTiles {
            arena,
            cols,
            seg_ptr,
            row_seg,
            current_prec: m.tile_prec.clone(),
            initial_prec: m.tile_prec.clone(),
        }
    }

    /// A valueless instance carrying only the precision state — for cost
    /// modeling (`Coster::spmv` reads `current_prec` alone) without paying
    /// for a decode of every tile.
    pub fn precision_only(initial_prec: &[Precision]) -> SharedTiles {
        SharedTiles {
            arena: Vec::new(),
            cols: Vec::new(),
            seg_ptr: vec![0],
            row_seg: vec![0],
            current_prec: initial_prec.to_vec(),
            initial_prec: initial_prec.to_vec(),
        }
    }

    /// Calls `f(tile_offset, arena_offset, len)` for each non-empty row of
    /// tile `i`: the tile's values `tile_offset..tile_offset + len` (tile
    /// storage order) live at `arena_offset..arena_offset + len`.
    fn for_each_tile_run(&self, m: &TiledMatrix, i: usize, mut f: impl FnMut(usize, usize, usize)) {
        let ts = m.tile_size;
        let tc = m.tile_colidx[i] as usize;
        let base_row = m.tile_rowidx[i] as usize * ts;
        let nnz_base = m.tile_nnz[i] as usize;
        for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
            let (k0, k1) = (m.csr_rowptr[ri] as usize, m.csr_rowptr[ri + 1] as usize);
            if k0 == k1 {
                continue;
            }
            let r = base_row + m.row_index[ri] as usize;
            let s = (self.row_seg[r] as usize..self.row_seg[r + 1] as usize)
                .find(|&s| self.cols[self.seg_ptr[s] as usize] as usize / ts == tc)
                .expect("every non-empty tile row has a segment");
            f(k0 - nnz_base, self.seg_ptr[s] as usize, k1 - k0);
        }
    }

    /// Gathers tile `i`'s current on-chip values into `out`, in the tile's
    /// storage order.
    fn gather_tile(&self, m: &TiledMatrix, i: usize, out: &mut Vec<f64>) {
        out.clear();
        out.resize((m.tile_nnz[i + 1] - m.tile_nnz[i]) as usize, 0.0);
        self.for_each_tile_run(m, i, |t, a, len| {
            out[t..t + len].copy_from_slice(&self.arena[a..a + len]);
        });
    }

    /// Writes tile `i`'s values (tile storage order) back into the arena.
    fn scatter_tile(&mut self, m: &TiledMatrix, i: usize, vals: &[f64]) {
        let mut runs = Vec::new();
        self.for_each_tile_run(m, i, |t, a, len| runs.push((t, a, len)));
        for (t, a, len) in runs {
            self.arena[a..a + len].copy_from_slice(&vals[t..t + len]);
        }
    }

    /// Decoded values of tile `i` at its current precision, in the tile's
    /// storage order.
    pub fn tile_values(&self, m: &TiledMatrix, i: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.gather_tile(m, i, &mut out);
        out
    }

    /// Lowers tile `i` to `to` if that is strictly narrower than its current
    /// precision, requantizing the on-chip copy (gathered, quantized as a
    /// whole tile, scattered back). Returns `true` when a conversion
    /// happened.
    pub fn lower_tile(&mut self, m: &TiledMatrix, i: usize, to: Precision) -> bool {
        if to < self.current_prec[i] {
            self.current_prec[i] = to;
            let mut vals = Vec::new();
            self.gather_tile(m, i, &mut vals);
            to.quantize_slice(&mut vals);
            self.scatter_tile(m, i, &vals);
            true
        } else {
            false
        }
    }

    /// Resets every tile to its initial precision by re-decoding from `m`
    /// into the existing arena (used between independent solves on the same
    /// matrix). The arena is reused, never reallocated.
    pub fn reset(&mut self, m: &TiledMatrix) {
        let mut vals = Vec::new();
        for i in 0..m.tile_count() {
            vals.resize((m.tile_nnz[i + 1] - m.tile_nnz[i]) as usize, 0.0);
            m.decode_tile_into(i, &mut vals);
            self.scatter_tile(m, i, &vals);
            self.current_prec[i] = self.initial_prec[i];
        }
    }

    /// Re-tiers tile `i` to `tier` (adaptive controller v2): re-decodes the
    /// tile's *classification-time* stored values from `m` and quantizes
    /// them to the target tier as a whole tile — no re-tiling, the layout is
    /// untouched, only the resident values and the precision tag change.
    ///
    /// Unlike [`SharedTiles::lower_tile`] (the one-way §III-D path, which
    /// deliberately requantizes the *current* on-chip copy), re-tiering
    /// always starts from a fresh decode: quantizing an already-quantized
    /// copy would compound rounding, making the values depend on the plan
    /// history rather than on the plan — and promotion would be impossible.
    /// `current_prec` records the tier's storage precision (scaled FP8
    /// accounts as FP8), so the SpMV statistics and the cost model see the
    /// re-tiered traffic with no kernel changes.
    pub fn retier_tile(&mut self, m: &TiledMatrix, i: usize, tier: mf_precision::TileTier) {
        let mut vals = m.decode_tile_values(i);
        tier.quantize_slice(&mut vals);
        self.scatter_tile(m, i, &vals);
        self.current_prec[i] = tier.storage();
    }

    /// Applies a whole re-tier plan, in action order.
    pub fn apply_retier(&mut self, m: &TiledMatrix, actions: &[mf_precision::RetierAction]) {
        for a in actions {
            self.retier_tile(m, a.tile as usize, a.to);
        }
    }

    /// Algorithm 5's per-tile half, run once per product before the row
    /// replay: counts bypassed tiles, lowers the on-chip copy of every tile
    /// whose column demands a narrower precision (one-way, §III-D), and
    /// tallies the executed precisions. Returns the statistics and whether
    /// any tile column is bypassed.
    pub(crate) fn demand_pass(
        &mut self,
        m: &TiledMatrix,
        vis_flags: &[VisFlag],
    ) -> (MixedSpmvStats, bool) {
        let mut stats = MixedSpmvStats::default();
        for i in 0..m.tile_count() {
            let v_f = vis_flags[m.tile_colidx[i] as usize];
            let tile_nnz = (m.tile_nnz[i + 1] - m.tile_nnz[i]) as usize;
            if v_f == VisFlag::Bypass {
                stats.tiles_bypassed += 1;
                stats.nnz_bypassed += tile_nnz;
                continue;
            }
            if let Some(demanded) = v_f.demanded() {
                if self.lower_tile(m, i, demanded) {
                    stats.conversions += 1;
                }
            }
            stats.tiles_computed += 1;
            stats.nnz_by_prec[self.current_prec[i].tile_code() as usize] += tile_nnz;
        }
        (stats, stats.tiles_bypassed > 0)
    }

    /// `A[r, :] · x` for matrix row `r` from its segments: each segment is a
    /// left fold from `0.0`, added to a row accumulator that starts at
    /// `0.0`. With `BYPASS`, segments whose tile column is flagged
    /// [`VisFlag::Bypass`] are skipped.
    #[inline]
    pub(crate) fn row_product<const BYPASS: bool>(
        &self,
        r: usize,
        x: &[f64],
        vis_flags: &[VisFlag],
        tile_size: usize,
    ) -> f64 {
        let mut acc = 0.0;
        let segs = &self.seg_ptr[self.row_seg[r] as usize..=self.row_seg[r + 1] as usize];
        for seg in segs.windows(2) {
            let (lo, hi) = (seg[0] as usize, seg[1] as usize);
            let cols = &self.cols[lo..hi];
            if BYPASS && vis_flags[cols[0] as usize / tile_size] == VisFlag::Bypass {
                continue;
            }
            let mut sum = 0.0;
            for (v, &c) in self.arena[lo..hi].iter().zip(cols) {
                sum += v * x[c as usize];
            }
            acc += sum;
        }
        acc
    }

    /// Replays rows `rows` into `y` (`y[k]` is row `rows.start + k`).
    fn replay_rows(
        &self,
        rows: std::ops::Range<usize>,
        x: &[f64],
        y: &mut [f64],
        vis_flags: &[VisFlag],
        tile_size: usize,
        bypass: bool,
    ) {
        debug_assert_eq!(y.len(), rows.len());
        if bypass {
            for (yr, r) in y.iter_mut().zip(rows) {
                *yr = self.row_product::<true>(r, x, vis_flags, tile_size);
            }
        } else {
            for (yr, r) in y.iter_mut().zip(rows) {
                *yr = self.row_product::<false>(r, x, vis_flags, tile_size);
            }
        }
    }
}

/// Execution statistics of one mixed-precision SpMV — feeds both the cost
/// model (weighted FLOPs/bytes) and the Fig. 11 per-precision accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MixedSpmvStats {
    /// Tiles actually multiplied.
    pub tiles_computed: usize,
    /// Tiles skipped by the bypass rule.
    pub tiles_bypassed: usize,
    /// On-chip precision conversions performed during this call.
    pub conversions: usize,
    /// Nonzeros multiplied, by executed precision `[FP64, FP32, FP16, FP8]`.
    pub nnz_by_prec: [usize; 4],
    /// Nonzeros skipped by bypass.
    pub nnz_bypassed: usize,
}

impl MixedSpmvStats {
    /// FP64-equivalent FLOPs performed (2 per nonzero, weighted by the
    /// executed precision's throughput ratio).
    pub fn weighted_flops(&self) -> f64 {
        let mut f = 0.0;
        for (code, &n) in self.nnz_by_prec.iter().enumerate() {
            let p = Precision::from_tile_code(code as u8).unwrap();
            f += 2.0 * n as f64 * p.flop_cost();
        }
        f
    }

    /// Value bytes touched (per executed precision) — the bandwidth the
    /// kernel would consume if the tile were streamed from global memory;
    /// on-chip resident tiles don't pay it after the first load.
    pub fn value_bytes(&self) -> usize {
        self.nnz_by_prec
            .iter()
            .enumerate()
            .map(|(code, &n)| n * Precision::from_tile_code(code as u8).unwrap().bytes())
            .sum()
    }

    /// Value bytes split per executed precision `[FP64, FP32, FP16, FP8]`
    /// — the per-precision breakdown of [`value_bytes`], recorded as
    /// `SpmvBytes` trace events and summed by the trace-timeline bench.
    ///
    /// [`value_bytes`]: MixedSpmvStats::value_bytes
    pub fn bytes_by_precision(&self) -> [u64; 4] {
        let mut bytes = [0u64; 4];
        for (code, &n) in self.nnz_by_prec.iter().enumerate() {
            bytes[code] = (n * Precision::from_tile_code(code as u8).unwrap().bytes()) as u64;
        }
        bytes
    }

    /// Total nonzeros considered (computed + bypassed).
    pub fn nnz_total(&self) -> usize {
        self.nnz_by_prec.iter().sum::<usize>() + self.nnz_bypassed
    }

    /// Merges another call's stats (per-iteration accumulation).
    pub fn merge(&mut self, o: &MixedSpmvStats) {
        self.tiles_computed += o.tiles_computed;
        self.tiles_bypassed += o.tiles_bypassed;
        self.conversions += o.conversions;
        for i in 0..4 {
            self.nnz_by_prec[i] += o.nnz_by_prec[i];
        }
        self.nnz_bypassed += o.nnz_bypassed;
    }
}

/// Paper **Algorithm 5**: mixed-precision SpMV `y = A x` with per-column
/// precision demands.
///
/// For every tile: look up `vis_flag[TileColidx[i]]`; bypass if demanded;
/// otherwise lower the shared-memory copy once if the demand is narrower
/// than the tile's current precision, and multiply using the (possibly
/// lowered) on-chip values. The per-tile half runs as one demand pass; the
/// multiply then replays the row-ordered arena. Row `r` receives one fold
/// per non-bypassed tile of its tile row, in tile-column order — exactly
/// the tile-order kernel's `y[r] = 0.0; y[r] += S_tile` sequence, so the
/// result is bitwise the same.
///
/// `vis_flags` must have one entry per tile column (`m.tile_cols`) — produced
/// by [`crate::visflag::retrieve_vis_flags`] with `segment_len == tile_size`.
pub fn spmv_mixed(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    vis_flags: &[VisFlag],
    x: &[f64],
    y: &mut [f64],
) -> MixedSpmvStats {
    check_mixed_inputs(m, vis_flags, x, y);
    let (stats, bypass) = shared.demand_pass(m, vis_flags);
    shared.replay_rows(0..m.nrows, x, y, vis_flags, m.tile_size, bypass);
    stats
}

fn check_mixed_inputs(m: &TiledMatrix, vis_flags: &[VisFlag], x: &[f64], y: &[f64]) {
    assert_eq!(x.len(), m.ncols);
    assert_eq!(y.len(), m.nrows);
    assert!(
        vis_flags.len() >= m.tile_cols,
        "need one vis_flag per tile column: {} < {}",
        vis_flags.len(),
        m.tile_cols
    );
}

/// Stripe-parallel mixed-precision SpMV: **bitwise-identical** to
/// [`spmv_mixed`] (outputs *and* stats), the CPU analogue of assigning row
/// tiles to independent thread blocks.
///
/// The demand pass (bypass, lowering, statistics) runs once over all tiles;
/// then the tile-row space is cut into `threads` contiguous stripes
/// (balanced by nonzero count). A stripe of whole tile rows is a contiguous
/// row range, so it owns a disjoint `y` window (handed out with
/// `split_at_mut`) and reads a contiguous arena range, with no atomics or
/// locks. Each row is replayed by the same code as the sequential kernel.
pub fn spmv_mixed_par(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    vis_flags: &[VisFlag],
    x: &[f64],
    y: &mut [f64],
    threads: usize,
) -> MixedSpmvStats {
    check_mixed_inputs(m, vis_flags, x, y);
    let threads = threads.max(1).min(m.tile_rows.max(1));
    if threads <= 1 || m.tile_count() == 0 {
        return spmv_mixed(m, shared, vis_flags, x, y);
    }
    let (stats, bypass) = shared.demand_pass(m, vis_flags);
    let shared = &*shared;

    // Cut the tile-row space into `threads` contiguous stripes balanced by
    // nonzero count; stripe boundaries are row boundaries.
    let ts = m.tile_size;
    let nrows = m.nrows;
    let nnz_before = |tr: usize| {
        let r = (tr * ts).min(nrows);
        shared.seg_ptr[shared.row_seg[r] as usize] as usize
    };
    let total_nnz = shared.arena.len();
    let mut cuts = vec![0usize; threads + 1];
    cuts[threads] = nrows;
    {
        let mut tr = 0usize;
        for (k, cut) in cuts.iter_mut().enumerate().take(threads).skip(1) {
            let target = total_nnz * k / threads;
            while tr < m.tile_rows && nnz_before(tr) < target {
                tr += 1;
            }
            *cut = (tr * ts).min(nrows);
        }
    }

    std::thread::scope(|s| {
        let mut y_rest: &mut [f64] = y;
        for w in 0..threads {
            let rows = cuts[w]..cuts[w + 1];
            let (y_span, rest) = y_rest.split_at_mut(rows.len());
            y_rest = rest;
            s.spawn(move || shared.replay_rows(rows, x, y_span, vis_flags, ts, bypass));
        }
    });
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_precision::ClassifyOptions;
    use mf_sparse::Coo;

    fn all_keep(n: usize) -> Vec<VisFlag> {
        vec![VisFlag::Keep; n]
    }

    fn sample() -> (Csr, TiledMatrix) {
        let mut a = Coo::new(8, 8);
        // Exact-in-FP8 values on a banded pattern.
        for i in 0..8usize {
            a.push(i, i, 4.0);
            if i > 0 {
                a.push(i, i - 1, -1.0);
            }
            if i + 1 < 8 {
                a.push(i, i + 1, -2.0);
            }
        }
        let csr = a.to_csr();
        let t = TiledMatrix::from_csr_with(&csr, 2, &ClassifyOptions::default());
        (csr, t)
    }

    #[test]
    fn tiled_parallel_matches_serial() {
        let n = 8_000;
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0);
            a.push(i, (i * 13 + 7) % n, 0.5);
            if i > 0 {
                a.push(i, i - 1, -1.0);
            }
        }
        let t = TiledMatrix::from_csr_with(&a.to_csr(), 16, &ClassifyOptions::default());
        let x: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) - 8.0).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        spmv_tiled(&t, &x, &mut y1);
        spmv_tiled_par(&t, &x, &mut y2);
        for i in 0..n {
            assert!((y1[i] - y2[i]).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn csr_serial_and_parallel_agree() {
        let (csr, _) = sample();
        let x: Vec<f64> = (0..8).map(|i| i as f64 - 4.0).collect();
        let mut y1 = vec![0.0; 8];
        let mut y2 = vec![0.0; 8];
        spmv_csr(&csr, &x, &mut y1);
        spmv_csr_par(&csr, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn parallel_large_matches() {
        let n = 10_000;
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0);
            a.push(i, (i * 7 + 1) % n, 0.5);
        }
        let csr = a.to_csr();
        let x: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        spmv_csr(&csr, &x, &mut y1);
        spmv_csr_par(&csr, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn mixed_with_all_keep_matches_tiled() {
        let (_, t) = sample();
        let mut shared = SharedTiles::load(&t);
        let x: Vec<f64> = (0..8).map(|i| (i + 1) as f64).collect();
        let mut y1 = vec![0.0; 8];
        let mut y2 = vec![0.0; 8];
        spmv_tiled(&t, &x, &mut y1);
        let stats = spmv_mixed(&t, &mut shared, &all_keep(t.tile_cols), &x, &mut y2);
        assert_eq!(y1, y2);
        assert_eq!(stats.tiles_bypassed, 0);
        assert_eq!(stats.conversions, 0);
        assert_eq!(stats.nnz_total(), t.nnz());
    }

    #[test]
    fn bypass_skips_columns() {
        let (_, t) = sample();
        let mut shared = SharedTiles::load(&t);
        let mut flags = all_keep(t.tile_cols);
        flags[0] = VisFlag::Bypass; // kill tile column 0 (matrix cols 0..2)
        let x = vec![1.0; 8];
        let mut y = vec![0.0; 8];
        let stats = spmv_mixed(&t, &mut shared, &flags, &x, &mut y);
        assert!(stats.tiles_bypassed > 0);
        // Equivalent to multiplying with x zeroed on the bypassed columns.
        let mut x2 = x.clone();
        x2[0] = 0.0;
        x2[1] = 0.0;
        let mut y2 = vec![0.0; 8];
        spmv_tiled(&t, &x2, &mut y2);
        assert_eq!(y, y2);
    }

    #[test]
    fn lowering_happens_once() {
        let (_, t) = sample();
        let mut shared = SharedTiles::load(&t);
        let mut flags = all_keep(t.tile_cols);
        for f in flags.iter_mut() {
            *f = VisFlag::Fp16;
        }
        let x = vec![1.0; 8];
        let mut y = vec![0.0; 8];
        // Values are FP8-exact -> tiles start at FP8, FP16 demand is *wider*,
        // so no conversion may happen (one-way rule).
        let s1 = spmv_mixed(&t, &mut shared, &flags, &x, &mut y);
        assert_eq!(s1.conversions, 0);
        assert!(shared.current_prec.iter().all(|&p| p == Precision::Fp8));
    }

    #[test]
    fn lowering_quantizes_values() {
        // A tile with a value only exact in FP64; demand FP16.
        let mut a = Coo::new(2, 2);
        a.push(0, 0, 0.1);
        let t = TiledMatrix::from_csr_with(&a.to_csr(), 2, &ClassifyOptions::default());
        assert_eq!(t.tile_prec[0], Precision::Fp64);
        let mut shared = SharedTiles::load(&t);
        let flags = vec![VisFlag::Fp16];
        let x = vec![1.0, 1.0];
        let mut y = vec![0.0; 2];
        let s = spmv_mixed(&t, &mut shared, &flags, &x, &mut y);
        assert_eq!(s.conversions, 1);
        assert_eq!(shared.current_prec[0], Precision::Fp16);
        assert_eq!(y[0], Precision::Fp16.quantize(0.1));
        // Second call: no further conversion.
        let s2 = spmv_mixed(&t, &mut shared, &flags, &x, &mut y);
        assert_eq!(s2.conversions, 0);
        // Demanding FP8 later lowers further.
        let s3 = spmv_mixed(&t, &mut shared, &[VisFlag::Fp8], &x, &mut y);
        assert_eq!(s3.conversions, 1);
        assert_eq!(y[0], Precision::Fp8.quantize(Precision::Fp16.quantize(0.1)));
    }

    #[test]
    fn stats_weighted_flops() {
        let s = MixedSpmvStats {
            nnz_by_prec: [10, 0, 0, 80], // 10 FP64 + 80 FP8 nonzeros
            ..Default::default()
        };
        let f = s.weighted_flops();
        assert!((f - (2.0 * 10.0 + 2.0 * 80.0 * 0.125)).abs() < 1e-12);
        assert_eq!(s.value_bytes(), 10 * 8 + 80);
        assert_eq!(s.bytes_by_precision(), [80, 0, 0, 80]);
        assert_eq!(
            s.bytes_by_precision().iter().sum::<u64>() as usize,
            s.value_bytes(),
            "per-precision bytes sum to the total"
        );
    }

    #[test]
    fn stats_merge() {
        let mut a = MixedSpmvStats {
            tiles_computed: 1,
            nnz_by_prec: [1, 0, 0, 0],
            ..Default::default()
        };
        let b = MixedSpmvStats {
            tiles_bypassed: 2,
            nnz_bypassed: 5,
            conversions: 1,
            nnz_by_prec: [0, 0, 0, 3],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.tiles_bypassed, 2);
        assert_eq!(a.nnz_total(), 9);
    }

    #[test]
    fn shared_reset_restores_precision() {
        let mut a = Coo::new(2, 2);
        a.push(0, 0, 0.1);
        let t = TiledMatrix::from_csr_with(&a.to_csr(), 2, &ClassifyOptions::default());
        let mut shared = SharedTiles::load(&t);
        shared.lower_tile(&t, 0, Precision::Fp8);
        assert_eq!(shared.current_prec[0], Precision::Fp8);
        shared.reset(&t);
        assert_eq!(shared.current_prec[0], Precision::Fp64);
        assert_eq!(shared.tile_values(&t, 0)[0], 0.1);
    }

    #[test]
    fn shared_reset_does_not_allocate() {
        let (_, t) = sample();
        let mut shared = SharedTiles::load(&t);
        let arena_ptr = shared.arena.as_ptr();
        let arena_cap = shared.arena.capacity();
        for i in 0..t.tile_count() {
            shared.lower_tile(&t, i, Precision::Fp8);
        }
        shared.reset(&t);
        assert_eq!(shared.arena.as_ptr(), arena_ptr, "arena reallocated");
        assert_eq!(shared.arena.capacity(), arena_cap);
        for i in 0..t.tile_count() {
            assert_eq!(
                shared.tile_values(&t, i),
                t.decode_tile_values(i).as_slice()
            );
            assert_eq!(shared.current_prec[i], shared.initial_prec[i]);
        }
    }

    #[test]
    fn retier_decodes_fresh_not_compounded() {
        use mf_precision::{pick_scale_exp, TileTier};
        // A tile with a value only exact in FP64.
        let mut a = Coo::new(2, 2);
        a.push(0, 0, 0.1);
        let t = TiledMatrix::from_csr_with(&a.to_csr(), 2, &ClassifyOptions::default());
        let mut shared = SharedTiles::load(&t);
        // Degrade the on-chip copy first (the §III-D one-way path)...
        shared.lower_tile(&t, 0, Precision::Fp8);
        assert_eq!(shared.tile_values(&t, 0)[0], Precision::Fp8.quantize(0.1));
        // ...then re-tier to FP16: the result must be FP16(0.1), NOT
        // FP16(FP8(0.1)) — a fresh decode, not a compounded requantize.
        shared.retier_tile(&t, 0, TileTier::Full(Precision::Fp16));
        assert_eq!(shared.tile_values(&t, 0)[0], Precision::Fp16.quantize(0.1));
        assert_eq!(shared.current_prec[0], Precision::Fp16);
        // Promotion back to the classification tier restores the value.
        shared.retier_tile(&t, 0, TileTier::Full(Precision::Fp64));
        assert_eq!(shared.tile_values(&t, 0)[0], 0.1);
        // Scaled FP8 applies the scaled codec and accounts as FP8.
        let e = pick_scale_exp(0.1);
        shared.retier_tile(&t, 0, TileTier::ScaledFp8 { scale_exp: e });
        assert_eq!(
            shared.tile_values(&t, 0)[0],
            mf_precision::quantize_scaled_e4m3(0.1, e)
        );
        assert_eq!(shared.current_prec[0], Precision::Fp8);
        // Within the documented scaled-FP8 round-trip envelope.
        assert!((shared.tile_values(&t, 0)[0] - 0.1).abs() <= 0.1 * 2f64.powi(-4));
    }

    #[test]
    fn mixed_par_bitwise_matches_serial() {
        let n = 4_000;
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 3.0 + (i % 5) as f64 * 0.1);
            a.push(i, (i * 31 + 3) % n, 0.25);
            if i > 0 {
                a.push(i, i - 1, -0.125);
            }
        }
        let t = TiledMatrix::from_csr_with(&a.to_csr(), 8, &ClassifyOptions::default());
        let x: Vec<f64> = (0..n).map(|i| ((i % 23) as f64) * 0.37 - 4.0).collect();
        // Mixed flag pattern: bypass some columns, demand lowering on others.
        let flags: Vec<VisFlag> = (0..t.tile_cols)
            .map(|c| match c % 5 {
                0 => VisFlag::Bypass,
                1 => VisFlag::Fp16,
                2 => VisFlag::Fp8,
                3 => VisFlag::Fp32,
                _ => VisFlag::Keep,
            })
            .collect();
        for threads in [2, 3, 4, 7] {
            let mut sh1 = SharedTiles::load(&t);
            let mut sh2 = SharedTiles::load(&t);
            let mut y1 = vec![0.0; n];
            let mut y2 = vec![0.0; n];
            let s1 = spmv_mixed(&t, &mut sh1, &flags, &x, &mut y1);
            let s2 = spmv_mixed_par(&t, &mut sh2, &flags, &x, &mut y2, threads);
            assert_eq!(s1, s2, "stats differ at {threads} threads");
            assert!(
                y1.iter().zip(&y2).all(|(a, b)| a.to_bits() == b.to_bits()),
                "outputs not bitwise-identical at {threads} threads"
            );
            assert_eq!(sh1.current_prec, sh2.current_prec);
            assert_eq!(sh1.arena, sh2.arena);
        }
    }
}
