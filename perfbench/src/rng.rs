//! Seeded input generation. Every input is a pure function of the
//! workload seed and the request index, so one seed replays one stream.

pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent stream `(seed, tag, i)`.
pub fn stream(seed: u64, tag: u64, i: u64) -> u64 {
    let mut s = seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    s = splitmix(&mut s) ^ i;
    splitmix(&mut s)
}

/// A right-hand side with entries uniform in [-0.5, 0.5).
pub fn rhs(seed: u64, tag: u64, i: u64, n: usize) -> Vec<f64> {
    let mut s = stream(seed, tag, i);
    (0..n)
        .map(|_| (splitmix(&mut s) >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        .collect()
}

/// Seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(seed: u64, tag: u64, i: u64, n: usize) -> Vec<usize> {
    let mut s = stream(seed, tag, i);
    let mut p: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        p.swap(k, (splitmix(&mut s) % (k as u64 + 1)) as usize);
    }
    p
}

/// FNV-1a over the bit patterns of `x`: the fingerprint two solutions are
/// compared by.
pub fn bits_hash(x: &[f64]) -> u64 {
    x.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_replay_and_differ() {
        assert_eq!(rhs(1, 2, 3, 8), rhs(1, 2, 3, 8));
        assert_ne!(rhs(1, 2, 3, 8), rhs(2, 2, 3, 8));
        assert_ne!(rhs(1, 2, 3, 8), rhs(1, 2, 4, 8));
        let mut p = permutation(9, 0, 0, 50);
        assert_ne!(p, permutation(10, 0, 0, 50));
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }
}
