//! # mf-sparse
//!
//! Sparse-matrix substrate for the Mille-feuille solver (SC'24).
//!
//! Provides the classic formats the baselines use (COO for assembly, CSR for
//! cuSPARSE-style kernels), the paper's **two-level tiled mixed-precision
//! format** (§III-B, Fig. 5), Matrix Market I/O so real SuiteSparse `.mtx`
//! files can be used when available, a dense fallback used as a test oracle,
//! and structural analysis helpers.
//!
//! Format summary (paper Fig. 5):
//!
//! * **High level (inter-tile, COO style)** — `TileRowidx`, `TileColidx`,
//!   `TilePrec` (one of FP64/FP32/FP16/FP8 per tile, chosen by the
//!   "enough good" criterion), `TileNnz` (nonzero offsets, len `tilenum+1`)
//!   and `Nonrow` (non-empty-row offsets, len `tilenum+1`). COO is used so
//!   each CUDA warp can own a tile for load balance.
//! * **Low level (intra-tile, CSR style)** — `CsrRowptr`, `CsrColidx`, `Val`
//!   plus `RowIndex` recording the within-tile row of every non-empty row so
//!   SpMV never traverses empty rows.

pub mod analysis;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod fingerprint;
pub mod mm;
pub mod tiled;
pub mod tiled_io;

pub use analysis::MatrixStats;
pub use coo::Coo;
pub use csr::Csr;
pub use dense::Dense;
pub use fingerprint::Fingerprint;
pub use tiled::{TileView, TiledMatrix, TiledMemory, DEFAULT_TILE_SIZE};
pub use tiled_io::{read_tiled, read_tiled_file, write_tiled, write_tiled_file};

/// Errors produced by this crate.
#[derive(Debug)]
pub enum SparseError {
    /// Inconsistent dimensions or indices out of range.
    Shape(String),
    /// Matrix Market parse failure.
    Parse(String),
    /// I/O failure while reading or writing a file.
    Io(std::io::Error),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::Shape(s) => write!(f, "shape error: {s}"),
            SparseError::Parse(s) => write!(f, "matrix market parse error: {s}"),
            SparseError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e)
    }
}
