//! The two-level tiled mixed-precision sparse format (paper §III-B, Fig. 5).
//!
//! The matrix is partitioned into square tiles of `tile_size × tile_size`
//! (16 in the paper). Two levels of metadata are kept:
//!
//! * **High level (inter-tile), COO style** — one record per non-empty tile,
//!   sorted by (tile row, tile column): `tile_rowidx`, `tile_colidx`,
//!   `tile_prec`, plus the offset arrays `tile_nnz` (nonzeros per tile,
//!   prefix-summed) and `nonrow` (non-empty rows per tile, prefix-summed).
//!   COO is chosen so that a warp can own an arbitrary tile — the
//!   load-balanced schedule of §III-C needs that freedom.
//! * **Low level (intra-tile), CSR style** — `csr_rowptr` (one entry per
//!   non-empty row + 1; offsets are *absolute* into `csr_colidx`/values,
//!   which carries the same information as the paper's per-tile-relative
//!   pointers without needing `tile_nnz` at every access), `row_index`
//!   (within-tile row id of each non-empty row, so SpMV never touches empty
//!   rows), `csr_colidx` (within-tile column, one byte), and the packed
//!   value buffer.
//!
//! Every tile's values are physically stored in the tile's precision
//! ([`mf_precision::PackedValues`]), selected by the "enough good"
//! criterion of §II-A. This is what Fig. 13's memory comparison measures and
//! what gives mixed precision its bandwidth advantage.

use crate::coo::Coo;
use crate::csr::Csr;
use mf_precision::{classify_group, ClassifyOptions, PackedValues, PackedValuesBuilder, Precision};

/// The tile edge length used throughout the paper.
pub const DEFAULT_TILE_SIZE: usize = 16;

/// A sparse matrix stored in the Mille-feuille two-level tiled format.
#[derive(Clone, Debug)]
pub struct TiledMatrix {
    /// Number of rows of the full matrix.
    pub nrows: usize,
    /// Number of columns of the full matrix.
    pub ncols: usize,
    /// Tile edge length.
    pub tile_size: usize,
    /// Number of tile rows (`ceil(nrows / tile_size)`).
    pub tile_rows: usize,
    /// Number of tile columns (`ceil(ncols / tile_size)`).
    pub tile_cols: usize,
    /// Tile row index of each non-empty tile (paper `TileRowidx`).
    pub tile_rowidx: Vec<u32>,
    /// Tile column index of each non-empty tile (paper `TileColidx`).
    pub tile_colidx: Vec<u32>,
    /// Initial storage precision of each tile (paper `TilePrec`).
    pub tile_prec: Vec<Precision>,
    /// Nonzero offsets per tile, length `tilenum + 1` (paper `TileNnz`).
    pub tile_nnz: Vec<u32>,
    /// Non-empty-row offsets per tile, length `tilenum + 1` (paper `Nonrow`).
    pub nonrow: Vec<u32>,
    /// Absolute offsets into `csr_colidx`/values per non-empty row,
    /// length `nonrow_total + 1` (paper `CsrRowptr`).
    pub csr_rowptr: Vec<u32>,
    /// Within-tile row id of each non-empty row (paper `RowIndex`).
    pub row_index: Vec<u8>,
    /// Within-tile column of each nonzero (paper `CsrColidx`).
    pub csr_colidx: Vec<u8>,
    /// Packed nonzero values, one run per tile in the tile's precision
    /// (paper `Val`).
    pub vals: PackedValues,
    /// Byte offset of each tile's value run in `vals` (derived; cached so
    /// value access is O(1)).
    pub val_offsets: Vec<usize>,
}

/// Byte-level memory breakdown of the tiled format (Fig. 13).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TiledMemory {
    /// High-level (inter-tile) metadata bytes.
    pub high_level: usize,
    /// Low-level (intra-tile) index bytes.
    pub low_level: usize,
    /// Packed value bytes.
    pub values: usize,
}

impl TiledMemory {
    /// Total footprint in bytes.
    pub fn total(&self) -> usize {
        self.high_level + self.low_level + self.values
    }
}

impl TiledMatrix {
    /// Builds the tiled format from CSR using the paper's tile size (16) and
    /// the default "enough good" classification.
    ///
    /// ```
    /// use mf_sparse::{Coo, TiledMatrix};
    ///
    /// let mut a = Coo::new(32, 32);
    /// for i in 0..32 {
    ///     a.push(i, i, 4.0); // exactly representable -> FP8 tiles
    /// }
    /// let t = TiledMatrix::from_csr(&a.to_csr());
    /// assert_eq!(t.tile_size, 16);
    /// assert_eq!(t.nnz(), 32);
    /// assert_eq!(t.tile_precision_histogram(), [0, 0, 0, 2]); // two FP8 tiles
    /// ```
    pub fn from_csr(a: &Csr) -> TiledMatrix {
        Self::build(a, DEFAULT_TILE_SIZE, &ClassifyOptions::default(), None)
    }

    /// Builds with an explicit tile size and classification options.
    pub fn from_csr_with(a: &Csr, tile_size: usize, opts: &ClassifyOptions) -> TiledMatrix {
        Self::build(a, tile_size, opts, None)
    }

    /// Like [`Self::from_csr_with`], but classifies tile precisions in
    /// parallel with rayon. Classification dominates preprocessing time (it
    /// reads every value up to four times for the round-trip tests), and
    /// tiles are independent, so this is an embarrassingly parallel map.
    /// The result is identical to the serial build: the parallel stage only
    /// computes per-tile precisions, joined back in tile order.
    pub fn from_csr_par(a: &Csr, tile_size: usize, opts: &ClassifyOptions) -> TiledMatrix {
        Self::build_impl(a, tile_size, opts, None, true)
    }

    /// Builds with a *uniform* precision for every tile (used by the FP64
    /// baseline configuration of Fig. 11 and the granularity ablation).
    pub fn from_csr_uniform(a: &Csr, tile_size: usize, prec: Precision) -> TiledMatrix {
        Self::build(a, tile_size, &ClassifyOptions::default(), Some(prec))
    }

    fn build(
        a: &Csr,
        tile_size: usize,
        opts: &ClassifyOptions,
        force_prec: Option<Precision>,
    ) -> TiledMatrix {
        Self::build_impl(a, tile_size, opts, force_prec, false)
    }

    #[allow(clippy::needless_range_loop)] // k walks parallel arrays (keys, row_of, colidx)
    fn build_impl(
        a: &Csr,
        tile_size: usize,
        opts: &ClassifyOptions,
        force_prec: Option<Precision>,
        parallel: bool,
    ) -> TiledMatrix {
        assert!(
            (2..=256).contains(&tile_size),
            "tile size must be in 2..=256 (within-tile indices are u8)"
        );
        let tile_rows = a.nrows.div_ceil(tile_size);
        let tile_cols = a.ncols.div_ceil(tile_size);

        // Gather entries keyed by (tile_row, tile_col, row_in, col_in). CSR
        // iteration already yields (row, col-sorted) order, so sorting by the
        // composite key is a cheap near-sorted pass.
        let nnz = a.nnz();
        let mut order: Vec<u32> = (0..nnz as u32).collect();
        let mut keys: Vec<u64> = Vec::with_capacity(nnz);
        {
            // Precompute the key of every entry: tile id major, in-tile minor.
            let mut row_of = vec![0u32; nnz];
            for r in 0..a.nrows {
                for k in a.rowptr[r]..a.rowptr[r + 1] {
                    row_of[k] = r as u32;
                }
            }
            for k in 0..nnz {
                let r = row_of[k] as usize;
                let c = a.colidx[k];
                let key = (((r / tile_size) * tile_cols + c / tile_size) as u64) << 16
                    | ((r % tile_size) as u64) << 8
                    | (c % tile_size) as u64;
                keys.push(key);
            }
        }
        order.sort_unstable_by_key(|&i| keys[i as usize]);

        // Tile spans in the sorted order (start, end). Tiles are the unit of
        // both classification and packing.
        let mut spans: Vec<(u32, u32)> = Vec::new();
        {
            let mut i = 0usize;
            while i < nnz {
                let tile_key = keys[order[i] as usize] >> 16;
                let start = i;
                while i < nnz && keys[order[i] as usize] >> 16 == tile_key {
                    i += 1;
                }
                spans.push((start as u32, i as u32));
            }
        }

        // Per-tile precision. Classification reads every value several times
        // (round-trip tests per candidate precision) and tiles are
        // independent, so the parallel build farms it out; results are
        // joined in tile order, making the output identical to the serial
        // pass.
        let classify_span = |&(s, e): &(u32, u32)| -> Precision {
            match force_prec {
                Some(p) => p,
                None => {
                    let vals: Vec<f64> = order[s as usize..e as usize]
                        .iter()
                        .map(|&oi| a.vals[oi as usize])
                        .collect();
                    classify_group(&vals, opts)
                }
            }
        };
        let precs: Vec<Precision> = if parallel && force_prec.is_none() {
            use rayon::prelude::*;
            spans.par_iter().map(classify_span).collect()
        } else {
            spans.iter().map(classify_span).collect()
        };

        let mut tile_rowidx = Vec::new();
        let mut tile_colidx = Vec::new();
        let mut tile_prec = Vec::new();
        let mut tile_nnz = vec![0u32];
        let mut nonrow = vec![0u32];
        let mut csr_rowptr: Vec<u32> = Vec::new(); // row starts; nnz appended at the end
        let mut row_index: Vec<u8> = Vec::new();
        let mut csr_colidx: Vec<u8> = Vec::with_capacity(nnz);
        let mut packed = PackedValuesBuilder::new();
        let mut val_offsets = Vec::new();

        let mut tile_vals: Vec<f64> = Vec::new();
        for (t, &(s, e)) in spans.iter().enumerate() {
            let (start, i) = (s as usize, e as usize);
            let tile_key = keys[order[start] as usize] >> 16;
            let trow = (tile_key as usize) / tile_cols;
            let tcol = (tile_key as usize) % tile_cols;

            // Gather this tile's values for packing.
            tile_vals.clear();
            tile_vals.extend(order[start..i].iter().map(|&oi| a.vals[oi as usize]));
            let prec = precs[t];

            tile_rowidx.push(trow as u32);
            tile_colidx.push(tcol as u32);
            tile_prec.push(prec);
            tile_nnz.push(tile_nnz.last().unwrap() + tile_vals.len() as u32);
            val_offsets.push(packed.push_run(&tile_vals, prec));

            // Intra-tile CSR over non-empty rows.
            let mut prev_row: Option<u8> = None;
            for (j, &oi) in order[start..i].iter().enumerate() {
                let key = keys[oi as usize];
                let rin = ((key >> 8) & 0xff) as u8;
                let cin = (key & 0xff) as u8;
                if prev_row != Some(rin) {
                    row_index.push(rin);
                    csr_rowptr.push((tile_nnz[tile_nnz.len() - 2] as usize + j) as u32);
                    prev_row = Some(rin);
                }
                csr_colidx.push(cin);
            }
            nonrow.push(row_index.len() as u32);
        }
        // csr_rowptr holds the absolute start of every non-empty row; rows
        // are packed contiguously in the global (tile, row, col) order, so
        // each row's end is the next row's start, and the total nnz closes
        // the array.
        csr_rowptr.push(nnz as u32);

        TiledMatrix {
            nrows: a.nrows,
            ncols: a.ncols,
            tile_size,
            tile_rows,
            tile_cols,
            tile_rowidx,
            tile_colidx,
            tile_prec,
            tile_nnz,
            nonrow,
            csr_rowptr,
            row_index,
            csr_colidx,
            vals: packed.finish(),
            val_offsets,
        }
    }

    /// Raw packed value bytes (serialization support).
    #[inline]
    pub fn vals_raw(&self) -> &[u8] {
        self.vals.as_bytes()
    }

    /// Reassembles a tiled matrix from its constituent arrays (used by the
    /// binary reader in [`crate::tiled_io`]; the caller must have validated
    /// consistency).
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        tile_size: usize,
        tile_rowidx: Vec<u32>,
        tile_colidx: Vec<u32>,
        tile_prec: Vec<Precision>,
        tile_nnz: Vec<u32>,
        nonrow: Vec<u32>,
        csr_rowptr: Vec<u32>,
        row_index: Vec<u8>,
        csr_colidx: Vec<u8>,
        raw_vals: Vec<u8>,
        val_offsets: Vec<usize>,
    ) -> TiledMatrix {
        TiledMatrix {
            nrows,
            ncols,
            tile_size,
            tile_rows: nrows.div_ceil(tile_size),
            tile_cols: ncols.div_ceil(tile_size),
            tile_rowidx,
            tile_colidx,
            tile_prec,
            tile_nnz,
            nonrow,
            csr_rowptr,
            row_index,
            csr_colidx,
            vals: PackedValues::from_bytes(raw_vals),
            val_offsets,
        }
    }

    /// Number of non-empty tiles (`tilenumA` in the paper).
    #[inline]
    pub fn tile_count(&self) -> usize {
        self.tile_rowidx.len()
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        *self.tile_nnz.last().unwrap_or(&0) as usize
    }

    /// Total number of non-empty rows over all tiles (`rownumA`).
    #[inline]
    pub fn nonempty_row_count(&self) -> usize {
        self.row_index.len()
    }

    /// A lightweight accessor for tile `i`.
    #[inline]
    pub fn tile(&self, i: usize) -> TileView<'_> {
        TileView { m: self, i }
    }

    /// Decodes the value of the `k`-th nonzero of tile `i` (0-based within
    /// the tile) at the tile's stored precision.
    #[inline]
    pub fn tile_value(&self, i: usize, k: usize) -> f64 {
        self.vals.get(self.val_offsets[i], self.tile_prec[i], k)
    }

    /// Decodes all values of tile `i` into a fresh vector — this is the
    /// "load the tile into shared memory" operation of the single-kernel
    /// scheme (§III-C); the solver mutates its copy when the dynamic
    /// strategy lowers the tile's precision.
    pub fn decode_tile_values(&self, i: usize) -> Vec<f64> {
        let n = (self.tile_nnz[i + 1] - self.tile_nnz[i]) as usize;
        self.vals
            .decode_run_vec(self.val_offsets[i], self.tile_prec[i], n)
    }

    /// Decodes all values of tile `i` into `out` without allocating —
    /// `out.len()` must equal the tile's nonzero count. This is the
    /// in-place variant [`decode_tile_values`](Self::decode_tile_values)
    /// that `SharedTiles` uses to (re)fill its flat value arena.
    pub fn decode_tile_into(&self, i: usize, out: &mut [f64]) {
        debug_assert_eq!(
            out.len(),
            (self.tile_nnz[i + 1] - self.tile_nnz[i]) as usize
        );
        self.vals
            .decode_run(self.val_offsets[i], self.tile_prec[i], out);
    }

    /// Multiplies the contiguous tile span `tiles` into `y`, where `y[0]`
    /// corresponds to matrix row `row_base` (accumulating; the caller zeroes
    /// `y`). Tiles are stored sorted by `(tile_row, tile_col)`, so a span of
    /// whole tile rows touches a contiguous, exclusive row range — the
    /// property both the sequential [`matvec`](Self::matvec) (one span: all
    /// tiles) and the stripe-parallel kernels in `mf-kernels` rely on to
    /// share this single tile-iteration loop.
    pub fn tile_matvec_span(
        &self,
        tiles: std::ops::Range<usize>,
        x: &[f64],
        y: &mut [f64],
        row_base: usize,
    ) {
        for i in tiles {
            let base_row = self.tile_rowidx[i] as usize * self.tile_size;
            let base_col = self.tile_colidx[i] as usize * self.tile_size;
            let nnz_base = self.tile_nnz[i] as usize;
            for ri in self.nonrow[i] as usize..self.nonrow[i + 1] as usize {
                let r = base_row + self.row_index[ri] as usize;
                let mut sum = 0.0;
                for k in self.csr_rowptr[ri] as usize..self.csr_rowptr[ri + 1] as usize {
                    sum += self.tile_value(i, k - nnz_base)
                        * x[base_col + self.csr_colidx[k] as usize];
                }
                y[r - row_base] += sum;
            }
        }
    }

    /// Converts back to CSR. Values carry the quantization of their tile's
    /// precision (exactly what the GPU kernels would compute with).
    pub fn to_csr(&self) -> Csr {
        let mut coo = Coo::with_capacity(self.nrows, self.ncols, self.nnz());
        for i in 0..self.tile_count() {
            let base_row = self.tile_rowidx[i] as usize * self.tile_size;
            let base_col = self.tile_colidx[i] as usize * self.tile_size;
            let nnz_base = self.tile_nnz[i] as usize;
            for ri in self.nonrow[i] as usize..self.nonrow[i + 1] as usize {
                let r = base_row + self.row_index[ri] as usize;
                for k in self.csr_rowptr[ri] as usize..self.csr_rowptr[ri + 1] as usize {
                    let c = base_col + self.csr_colidx[k] as usize;
                    coo.push(r, c, self.tile_value(i, k - nnz_base));
                }
            }
        }
        coo.to_csr()
    }

    /// Reference `y = A x` decoding each value at its tile precision
    /// (sequential; the instrumented kernels live in `mf-kernels`).
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        y.fill(0.0);
        self.tile_matvec_span(0..self.tile_count(), x, y, 0);
    }

    /// Per-tile precision histogram indexed `[FP64, FP32, FP16, FP8]`
    /// (Fig. 11's stacked bars).
    pub fn tile_precision_histogram(&self) -> [usize; 4] {
        let mut h = [0usize; 4];
        for &p in &self.tile_prec {
            h[p.tile_code() as usize] += 1;
        }
        h
    }

    /// Per-nonzero precision histogram (weights each tile by its nnz).
    pub fn nnz_precision_histogram(&self) -> [usize; 4] {
        let mut h = [0usize; 4];
        for i in 0..self.tile_count() {
            h[self.tile_prec[i].tile_code() as usize] +=
                (self.tile_nnz[i + 1] - self.tile_nnz[i]) as usize;
        }
        h
    }

    /// Memory footprint per the paper's accounting (Fig. 13): 32-bit tile
    /// indices and offsets, 1-byte precisions / within-tile indices, packed
    /// values.
    pub fn memory_bytes(&self) -> TiledMemory {
        let t = self.tile_count();
        let nr = self.nonempty_row_count();
        TiledMemory {
            high_level: 4 * t      // tile_rowidx
                + 4 * t            // tile_colidx
                + t                // tile_prec
                + 4 * (t + 1)      // tile_nnz
                + 4 * (t + 1), // nonrow
            low_level: 4 * (nr + 1) // csr_rowptr
                + nr               // row_index
                + self.nnz(), // csr_colidx (u8)
            values: self.vals.len_bytes(),
        }
    }
}

/// Read-only view of one tile.
#[derive(Clone, Copy)]
pub struct TileView<'a> {
    m: &'a TiledMatrix,
    i: usize,
}

impl<'a> TileView<'a> {
    /// Tile row index.
    #[inline]
    pub fn tile_row(&self) -> usize {
        self.m.tile_rowidx[self.i] as usize
    }

    /// Tile column index.
    #[inline]
    pub fn tile_col(&self) -> usize {
        self.m.tile_colidx[self.i] as usize
    }

    /// Initial storage precision.
    #[inline]
    pub fn precision(&self) -> Precision {
        self.m.tile_prec[self.i]
    }

    /// Nonzeros in this tile.
    #[inline]
    pub fn nnz(&self) -> usize {
        (self.m.tile_nnz[self.i + 1] - self.m.tile_nnz[self.i]) as usize
    }

    /// Non-empty rows in this tile.
    #[inline]
    pub fn nonempty_rows(&self) -> usize {
        (self.m.nonrow[self.i + 1] - self.m.nonrow[self.i]) as usize
    }

    /// Iterates `(global_row, global_col, value)` of the tile.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + 'a {
        let m = self.m;
        let i = self.i;
        let base_row = m.tile_rowidx[i] as usize * m.tile_size;
        let base_col = m.tile_colidx[i] as usize * m.tile_size;
        let nnz_base = m.tile_nnz[i] as usize;
        (m.nonrow[i] as usize..m.nonrow[i + 1] as usize).flat_map(move |ri| {
            let r = base_row + m.row_index[ri] as usize;
            (m.csr_rowptr[ri] as usize..m.csr_rowptr[ri + 1] as usize).map(move |k| {
                (
                    r,
                    base_col + m.csr_colidx[k] as usize,
                    m.tile_value(i, k - nnz_base),
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_build_matches_serial() {
        // Mixed-magnitude entries so classification picks varied precisions.
        let n = 200;
        let mut a = Coo::new(n, n);
        let mut mag = 1.0;
        for i in 0..n {
            a.push(i, i, 4.0 + mag);
            if i > 0 {
                a.push(i, i - 1, -mag);
            }
            if i + 2 < n {
                a.push(i, i + 2, 0.125 * mag);
            }
            mag *= 1.07;
            if mag > 1e5 {
                mag = 1e-5;
            }
        }
        let a = a.to_csr();
        for ts in [4usize, 16, 32] {
            let s = TiledMatrix::from_csr_with(&a, ts, &ClassifyOptions::default());
            let p = TiledMatrix::from_csr_par(&a, ts, &ClassifyOptions::default());
            assert_eq!(s.tile_rowidx, p.tile_rowidx, "ts={ts}");
            assert_eq!(s.tile_colidx, p.tile_colidx);
            assert_eq!(s.tile_prec, p.tile_prec);
            assert_eq!(s.tile_nnz, p.tile_nnz);
            assert_eq!(s.nonrow, p.nonrow);
            assert_eq!(s.csr_rowptr, p.csr_rowptr);
            assert_eq!(s.row_index, p.row_index);
            assert_eq!(s.csr_colidx, p.csr_colidx);
            assert_eq!(s.val_offsets, p.val_offsets);
            assert_eq!(s.vals_raw(), p.vals_raw());
        }
    }

    /// The 8×8 example of paper Fig. 5 (2×2 tiles, 9 non-empty tiles).
    fn figure5_like() -> Csr {
        let mut a = Coo::new(8, 8);
        // Diagonal blocks plus some off-diagonal connections, all with
        // exactly-representable values so tiles classify to FP8.
        let entries = [
            (0, 0, 1.0),
            (0, 1, 2.0),
            (1, 0, 3.0),
            (1, 1, 4.0),
            (2, 2, 1.0),
            (3, 3, 2.0),
            (2, 5, 0.5),
            (4, 4, 1.0),
            (5, 5, 1.0),
            (4, 0, -1.0),
            (6, 6, 2.0),
            (7, 7, 2.0),
            (7, 6, 1.0),
            (6, 2, 4.0),
            (1, 7, -2.0),
        ];
        for &(r, c, v) in &entries {
            a.push(r, c, v);
        }
        a.to_csr()
    }

    #[test]
    fn build_basic_counts() {
        let csr = figure5_like();
        let t = TiledMatrix::from_csr_with(&csr, 2, &ClassifyOptions::default());
        assert_eq!(t.nnz(), csr.nnz());
        assert_eq!(t.tile_rows, 4);
        assert_eq!(t.tile_cols, 4);
        assert!(t.tile_count() > 0);
        // Offset arrays have the tilenum+1 shape the paper specifies.
        assert_eq!(t.tile_nnz.len(), t.tile_count() + 1);
        assert_eq!(t.nonrow.len(), t.tile_count() + 1);
        assert_eq!(t.csr_rowptr.len(), t.nonempty_row_count() + 1);
        assert_eq!(t.row_index.len(), t.nonempty_row_count());
    }

    #[test]
    fn tiles_sorted_row_major() {
        let t = TiledMatrix::from_csr_with(&figure5_like(), 2, &ClassifyOptions::default());
        for i in 1..t.tile_count() {
            let prev = (t.tile_rowidx[i - 1], t.tile_colidx[i - 1]);
            let cur = (t.tile_rowidx[i], t.tile_colidx[i]);
            assert!(prev < cur, "tiles not sorted at {i}");
        }
    }

    #[test]
    fn roundtrip_exact_values() {
        let csr = figure5_like();
        let t = TiledMatrix::from_csr_with(&csr, 2, &ClassifyOptions::default());
        // All values are exactly representable in FP8, so the roundtrip is exact.
        assert_eq!(t.to_csr(), csr);
    }

    #[test]
    fn roundtrip_quantizes_per_tile_precision() {
        let mut a = Coo::new(4, 4);
        a.push(0, 0, 0.1); // forces its tile to FP64
        a.push(2, 2, 1.0); // separate tile, FP8
        let csr = a.to_csr();
        let t = TiledMatrix::from_csr_with(&csr, 2, &ClassifyOptions::default());
        let back = t.to_csr();
        assert_eq!(back.get(0, 0), 0.1); // FP64 tile: exact
        assert_eq!(back.get(2, 2), 1.0);
        assert_eq!(t.tile_precision_histogram(), [1, 0, 0, 1]);
    }

    #[test]
    fn matvec_matches_csr_for_exact_values() {
        let csr = figure5_like();
        let t = TiledMatrix::from_csr_with(&csr, 2, &ClassifyOptions::default());
        let x: Vec<f64> = (0..8).map(|i| (i as f64) - 3.5).collect();
        let mut y1 = vec![0.0; 8];
        let mut y2 = vec![0.0; 8];
        csr.matvec(&x, &mut y1);
        t.matvec(&x, &mut y2);
        for i in 0..8 {
            assert!(
                (y1[i] - y2[i]).abs() < 1e-12,
                "row {i}: {} vs {}",
                y1[i],
                y2[i]
            );
        }
    }

    #[test]
    fn default_tile_size_is_16() {
        let csr = figure5_like();
        let t = TiledMatrix::from_csr(&csr);
        assert_eq!(t.tile_size, 16);
        assert_eq!(t.tile_count(), 1); // 8x8 fits in one 16x16 tile
        assert_eq!(t.nnz(), csr.nnz());
    }

    #[test]
    fn uniform_precision_forced() {
        let csr = figure5_like();
        let t = TiledMatrix::from_csr_uniform(&csr, 2, Precision::Fp64);
        assert!(t.tile_prec.iter().all(|&p| p == Precision::Fp64));
        assert_eq!(t.to_csr(), csr);
    }

    #[test]
    fn nonmultiple_dimensions() {
        let mut a = Coo::new(5, 7);
        a.push(4, 6, 3.0);
        a.push(0, 0, 1.0);
        a.push(4, 0, 2.0);
        let csr = a.to_csr();
        let t = TiledMatrix::from_csr_with(&csr, 4, &ClassifyOptions::default());
        assert_eq!(t.tile_rows, 2);
        assert_eq!(t.tile_cols, 2);
        assert_eq!(t.to_csr(), csr);
    }

    #[test]
    fn empty_matrix() {
        let csr = Coo::new(10, 10).to_csr();
        let t = TiledMatrix::from_csr(&csr);
        assert_eq!(t.tile_count(), 0);
        assert_eq!(t.nnz(), 0);
        let mut y = vec![1.0; 10];
        t.matvec(&[1.0; 10], &mut y);
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_rows_skipped() {
        // One tile where only row 0 and row 3 are non-empty.
        let mut a = Coo::new(4, 4);
        a.push(0, 1, 1.0);
        a.push(3, 2, 2.0);
        let t = TiledMatrix::from_csr_with(&a.to_csr(), 4, &ClassifyOptions::default());
        assert_eq!(t.tile_count(), 1);
        assert_eq!(t.nonempty_row_count(), 2);
        assert_eq!(t.row_index, vec![0, 3]);
        assert_eq!(t.csr_rowptr, vec![0, 1, 2]);
    }

    #[test]
    fn tile_view_entries() {
        let csr = figure5_like();
        let t = TiledMatrix::from_csr_with(&csr, 2, &ClassifyOptions::default());
        let mut all: Vec<(usize, usize, f64)> = (0..t.tile_count())
            .flat_map(|i| t.tile(i).entries().collect::<Vec<_>>())
            .collect();
        all.sort_by_key(|&(r, c, _)| (r, c));
        let mut expect: Vec<(usize, usize, f64)> = Vec::new();
        for r in 0..csr.nrows {
            for (c, v) in csr.row(r) {
                expect.push((r, c, v));
            }
        }
        assert_eq!(all, expect);
    }

    #[test]
    fn decode_tile_values_matches_tile_value() {
        let csr = figure5_like();
        let t = TiledMatrix::from_csr_with(&csr, 2, &ClassifyOptions::default());
        for i in 0..t.tile_count() {
            let dec = t.decode_tile_values(i);
            for (k, &v) in dec.iter().enumerate() {
                assert_eq!(v, t.tile_value(i, k));
            }
        }
    }

    #[test]
    fn memory_accounting() {
        let csr = figure5_like();
        let t = TiledMatrix::from_csr_with(&csr, 2, &ClassifyOptions::default());
        let m = t.memory_bytes();
        let tcount = t.tile_count();
        assert_eq!(
            m.high_level,
            4 * tcount + 4 * tcount + tcount + 4 * (tcount + 1) * 2
        );
        // All-FP8 values: 1 byte per nnz.
        assert_eq!(m.values, csr.nnz());
        assert!(m.total() > 0);
    }

    #[test]
    fn mixed_precision_saves_value_bytes() {
        // 256 nonzeros with FP8-exact values in a 16x16 tile: 1 byte each vs
        // 8 bytes in CSR.
        let mut a = Coo::new(16, 16);
        for r in 0..16 {
            for c in 0..16 {
                a.push(r, c, ((r + c) % 5) as f64);
            }
        }
        let csr = a.to_csr();
        let t = TiledMatrix::from_csr(&csr);
        assert_eq!(t.tile_count(), 1);
        assert_eq!(t.memory_bytes().values, 256);
        assert!(t.memory_bytes().total() < csr.memory_bytes());
    }

    #[test]
    fn large_random_pattern_roundtrip() {
        // Deterministic pseudo-random pattern, values exact in FP16.
        let n = 100;
        let mut a = Coo::new(n, n);
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..600 {
            let r = (next() as usize) % n;
            let c = (next() as usize) % n;
            let v = ((next() % 128) as f64) / 4.0;
            a.push(r, c, v);
        }
        a.push(0, 0, 1.0);
        let csr = a.to_csr();
        let t = TiledMatrix::from_csr(&csr);
        assert_eq!(t.to_csr(), csr);
        // Histograms are consistent.
        assert_eq!(t.nnz_precision_histogram().iter().sum::<usize>(), csr.nnz());
        assert_eq!(
            t.tile_precision_histogram().iter().sum::<usize>(),
            t.tile_count()
        );
    }
}
