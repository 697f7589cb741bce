//! Convergent-elements retrieval (paper §III-D, Algorithm 4).
//!
//! Each iteration, the vector `p_j` is scanned segment by segment (segment
//! length = tile size, aligned to the tile columns). A segment whose
//! elements have *all* dropped below a threshold demands lower precision
//! from every tile in the corresponding tile column — or bypasses those
//! tiles entirely:
//!
//! | all `|p_i|` in segment below | demand |
//! |---|---|
//! | `ε·10⁻³` | bypass the tiles |
//! | `ε·10⁻²` | FP8 |
//! | `ε·10⁻¹` | FP16 |
//! | `ε`      | FP32 |
//! | otherwise | keep the tile's initial precision |

use mf_precision::Precision;

/// Per-column-segment precision demand (the paper's `vis_flag`, which
/// encodes 0–4 = FP64/keep, bypass, FP32, FP16, FP8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VisFlag {
    /// No reduction demanded — use the tile's initial precision.
    Keep,
    /// Skip the tiles of this column entirely.
    Bypass,
    /// Compute the column's tiles in at most FP32.
    Fp32,
    /// Compute the column's tiles in at most FP16.
    Fp16,
    /// Compute the column's tiles in at most FP8.
    Fp8,
}

impl VisFlag {
    /// The paper's integer encoding (0–4).
    pub fn code(self) -> u8 {
        match self {
            VisFlag::Keep => 0,
            VisFlag::Bypass => 1,
            VisFlag::Fp32 => 2,
            VisFlag::Fp16 => 3,
            VisFlag::Fp8 => 4,
        }
    }

    /// The precision ceiling this flag demands (`None` for `Keep`/`Bypass`).
    pub fn demanded(self) -> Option<Precision> {
        match self {
            VisFlag::Keep | VisFlag::Bypass => None,
            VisFlag::Fp32 => Some(Precision::Fp32),
            VisFlag::Fp16 => Some(Precision::Fp16),
            VisFlag::Fp8 => Some(Precision::Fp8),
        }
    }
}

/// Algorithm 4: scans `p` in segments of `segment_len` and returns one
/// [`VisFlag`] per segment. `eps` is the convergence threshold ε; the four
/// interval bounds are `ε·10⁻³`, `ε·10⁻²`, `ε·10⁻¹`, `ε`.
///
/// Writes into `flags` (resized to the segment count) to avoid per-iteration
/// allocation, mirroring the in-kernel `vis_flag` array.
///
/// ```
/// use mf_kernels::{retrieve_vis_flags, VisFlag};
///
/// let eps = 1e-10;
/// let p = [1.0, 1.0, 1e-21, 1e-22]; // second segment fully below eps*1e-3
/// let mut flags = Vec::new();
/// retrieve_vis_flags(&p, 2, eps, &mut flags);
/// assert_eq!(flags, vec![VisFlag::Keep, VisFlag::Bypass]);
/// ```
pub fn retrieve_vis_flags(p: &[f64], segment_len: usize, eps: f64, flags: &mut Vec<VisFlag>) {
    assert!(segment_len > 0);
    assert!(eps > 0.0);
    let nseg = p.len().div_ceil(segment_len);
    flags.clear();
    flags.reserve(nseg);
    let thresholds = [eps * 1e-3, eps * 1e-2, eps * 1e-1, eps];

    for seg in p.chunks(segment_len) {
        // Every |p_i| of the segment lies below a threshold exactly when
        // the segment's largest |p_i| does (paper lines 4-11 count the
        // elements below each threshold instead). A NaN compares below no
        // threshold, so it pins the segment to `Keep`.
        let mut max = 0.0f64;
        let mut nan = false;
        for &v in seg {
            let a = v.abs();
            nan |= a.is_nan();
            max = if a > max { a } else { max };
        }
        // First threshold interval that covers the whole segment wins
        // (paper lines 12-17).
        let vf = if nan {
            VisFlag::Keep
        } else if max < thresholds[0] {
            VisFlag::Bypass
        } else if max < thresholds[1] {
            VisFlag::Fp8
        } else if max < thresholds[2] {
            VisFlag::Fp16
        } else if max < thresholds[3] {
            VisFlag::Fp32
        } else {
            VisFlag::Keep
        };
        flags.push(vf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    fn flags_of(p: &[f64], seg: usize) -> Vec<VisFlag> {
        let mut f = Vec::new();
        retrieve_vis_flags(p, seg, EPS, &mut f);
        f
    }

    #[test]
    fn large_elements_keep() {
        assert_eq!(flags_of(&[1.0, 2.0], 2), vec![VisFlag::Keep]);
        assert_eq!(flags_of(&[EPS * 2.0, 1e-3], 2), vec![VisFlag::Keep]);
    }

    #[test]
    fn tiny_elements_bypass() {
        let v = EPS * 1e-4;
        assert_eq!(flags_of(&[v, -v, 0.0], 3), vec![VisFlag::Bypass]);
    }

    #[test]
    fn interval_boundaries() {
        // Just inside each interval.
        assert_eq!(flags_of(&[EPS * 0.5e-3], 1), vec![VisFlag::Bypass]);
        assert_eq!(flags_of(&[EPS * 0.5e-2], 1), vec![VisFlag::Fp8]);
        assert_eq!(flags_of(&[EPS * 0.5e-1], 1), vec![VisFlag::Fp16]);
        assert_eq!(flags_of(&[EPS * 0.5], 1), vec![VisFlag::Fp32]);
        assert_eq!(flags_of(&[EPS * 2.0], 1), vec![VisFlag::Keep]);
        // Exact boundary: strictly-less comparison keeps the wider class.
        assert_eq!(flags_of(&[EPS], 1), vec![VisFlag::Keep]);
        assert_eq!(flags_of(&[EPS * 1e-3], 1), vec![VisFlag::Fp8]);
    }

    #[test]
    fn one_large_element_blocks_the_segment() {
        // All 16 must be below the threshold; one big value spoils it.
        let mut p = vec![EPS * 1e-5; 16];
        p[7] = 1.0;
        assert_eq!(flags_of(&p, 16), vec![VisFlag::Keep]);
    }

    #[test]
    fn mixed_interval_takes_widest_needed() {
        // Some elements bypass-small, some only FP16-small -> FP16.
        let p = vec![EPS * 1e-5, EPS * 0.05];
        assert_eq!(flags_of(&p, 2), vec![VisFlag::Fp16]);
    }

    #[test]
    fn multiple_segments_independent() {
        let mut p = vec![1.0; 4];
        p[2] = EPS * 1e-5;
        p[3] = EPS * 1e-5;
        assert_eq!(flags_of(&p, 2), vec![VisFlag::Keep, VisFlag::Bypass]);
    }

    #[test]
    fn ragged_tail_segment() {
        let p = vec![EPS * 1e-5; 5]; // segments of 4: [4 elems][1 elem]
        assert_eq!(flags_of(&p, 4), vec![VisFlag::Bypass, VisFlag::Bypass]);
    }

    #[test]
    fn negative_values_use_magnitude() {
        assert_eq!(flags_of(&[-EPS * 1e-5], 1), vec![VisFlag::Bypass]);
    }

    #[test]
    fn reuses_buffer() {
        let mut f = vec![VisFlag::Keep; 100];
        retrieve_vis_flags(&[1.0, 1.0], 1, EPS, &mut f);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn codes_match_paper_encoding() {
        assert_eq!(VisFlag::Keep.code(), 0);
        assert_eq!(VisFlag::Bypass.code(), 1);
        assert_eq!(VisFlag::Fp32.code(), 2);
        assert_eq!(VisFlag::Fp16.code(), 3);
        assert_eq!(VisFlag::Fp8.code(), 4);
    }

    #[test]
    fn demanded_precisions() {
        assert_eq!(VisFlag::Keep.demanded(), None);
        assert_eq!(VisFlag::Bypass.demanded(), None);
        assert_eq!(VisFlag::Fp8.demanded(), Some(Precision::Fp8));
        assert_eq!(VisFlag::Fp32.demanded(), Some(Precision::Fp32));
    }
}
