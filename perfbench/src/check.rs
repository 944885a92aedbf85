//! Output checks run outside the timer: an O(N) order check plus a
//! multiset fingerprint that compares the output with the input, and exact
//! ranks over a sealed keyspace for the query checks.

use hss_keygen::{Keyed, TeraRecord};
use rayon::prelude::*;

/// An item the benchmark can fingerprint: a 64-bit hash of its full
/// contents (key and payload).
pub trait Fingerprint {
    /// A well-mixed 64-bit hash of the whole item.
    fn fp(&self) -> u64;
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Fingerprint for u64 {
    fn fp(&self) -> u64 {
        mix(*self)
    }
}

impl Fingerprint for TeraRecord {
    fn fp(&self) -> u64 {
        let mut h = 0u64;
        for chunk in self.key.0.chunks(8).chain(self.payload.chunks(8)) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = mix(h ^ u64::from_le_bytes(word));
        }
        h
    }
}

/// Order-independent summary of a multiset of items: two equal multisets
/// always match; different ones collide with probability about 2^-64.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Multiset {
    count: u64,
    sum: u64,
    sum_sq: u64,
}

impl Multiset {
    fn add_hash(&mut self, h: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
        self.sum_sq = self.sum_sq.wrapping_add(mix(h ^ 0x5851_F42D_4C95_7F2D));
    }

    fn combine(mut self, other: Multiset) -> Multiset {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.sum_sq = self.sum_sq.wrapping_add(other.sum_sq);
        self
    }

    /// Fingerprint every item of every rank.
    pub fn of<T: Fingerprint + Sync>(per_rank: &[Vec<T>]) -> Multiset {
        per_rank
            .par_iter()
            .map(|local| {
                let mut m = Multiset::default();
                for x in local {
                    m.add_hash(x.fp());
                }
                m
            })
            .reduce(Multiset::default, Multiset::combine)
    }

    /// The union of two multisets.
    pub fn union(self, other: Multiset) -> Multiset {
        self.combine(other)
    }
}

/// Check that `output` is a global sort of the multiset `input`: sorted
/// within every rank, no rank starting below the previous rank's end, and
/// the same items (full contents) as the input.
pub fn check_sorted_permutation<T>(input: &Multiset, output: &[Vec<T>]) -> Result<(), String>
where
    T: Keyed + Fingerprint + Sync,
{
    for (r, local) in output.iter().enumerate() {
        if let Some(i) = local.windows(2).position(|w| w[0].key() > w[1].key()) {
            return Err(format!("rank {r} is not sorted at index {i}"));
        }
    }
    let firsts_lasts: Vec<_> =
        output.iter().filter_map(|l| Some((l.first()?.key(), l.last()?.key()))).collect();
    if firsts_lasts.windows(2).any(|w| w[0].1 > w[1].0) {
        return Err("a rank starts below the end of the rank before it".to_string());
    }
    let got = Multiset::of(output);
    if got.count != input.count {
        return Err(format!("item count changed: {} in, {} out", input.count, got.count));
    }
    if got != *input {
        return Err("output items are not a permutation of the input".to_string());
    }
    Ok(())
}

/// Exact number of keys `<= key` in a globally sorted per-rank keyspace.
pub fn exact_rank_le(keyspace: &[Vec<u64>], key: u64) -> u64 {
    keyspace.iter().map(|l| l.partition_point(|&x| x <= key) as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_sort_and_rejects_corruptions() {
        let input = vec![vec![5u64, 1, 9], vec![3, 7, 2]];
        let fp = Multiset::of(&input);
        let good = vec![vec![1u64, 2, 3], vec![5, 7, 9]];
        assert!(check_sorted_permutation(&fp, &good).is_ok());
        let unsorted = vec![vec![2u64, 1, 3], vec![5, 7, 9]];
        assert!(check_sorted_permutation(&fp, &unsorted).is_err());
        let crossed = vec![vec![1u64, 2, 5], vec![3, 7, 9]];
        assert!(check_sorted_permutation(&fp, &crossed).is_err());
        let changed = vec![vec![1u64, 2, 3], vec![5, 7, 8]];
        assert!(check_sorted_permutation(&fp, &changed).is_err());
        let lost = vec![vec![1u64, 2, 3], vec![5, 7]];
        assert!(check_sorted_permutation(&fp, &lost).is_err());
    }

    #[test]
    fn exact_rank_counts_across_ranks() {
        let ks = vec![vec![1u64, 2, 2], vec![], vec![4, 6], vec![6, 9]];
        assert_eq!(exact_rank_le(&ks, 0), 0);
        assert_eq!(exact_rank_le(&ks, 2), 3);
        assert_eq!(exact_rank_le(&ks, 5), 4);
        assert_eq!(exact_rank_le(&ks, 6), 6);
        assert_eq!(exact_rank_le(&ks, 100), 7);
    }
}
