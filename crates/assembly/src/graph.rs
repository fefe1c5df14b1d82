//! The distributed k-mer (de Bruijn) graph: local shard + k-mer algebra.

use std::collections::BTreeMap;

/// Per-k-mer record: multiplicity and the observed successor /
/// predecessor base sets (one bit per base A/C/G/T).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KmerInfo {
    /// Occurrences across all reads.
    pub count: u32,
    /// Bit `b` set ⇔ some read continues this k-mer with base `b`.
    pub succ_mask: u8,
    /// Bit `b` set ⇔ some read precedes this k-mer with base `b`.
    pub pred_mask: u8,
}

impl KmerInfo {
    /// Out-degree in the de Bruijn graph.
    pub fn out_degree(&self) -> u32 {
        self.succ_mask.count_ones()
    }

    /// In-degree.
    pub fn in_degree(&self) -> u32 {
        self.pred_mask.count_ones()
    }

    /// The single successor base, if out-degree is exactly one.
    pub fn sole_successor(&self) -> Option<u8> {
        (self.out_degree() == 1).then(|| self.succ_mask.trailing_zeros() as u8)
    }
}

/// One rank's shard of the k-mer graph.
#[derive(Debug, Default)]
pub struct KmerGraph {
    map: BTreeMap<u64, KmerInfo>,
}

impl KmerGraph {
    /// Empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge one record (from a read of the owning rank or a network
    /// batch).
    pub fn absorb(&mut self, kmer: u64, count: u32, succ_mask: u8, pred_mask: u8) {
        let e = self.map.entry(kmer).or_default();
        e.count += count;
        e.succ_mask |= succ_mask;
        e.pred_mask |= pred_mask;
    }

    /// Look up a k-mer.
    pub fn get(&self, kmer: u64) -> Option<KmerInfo> {
        self.map.get(&kmer).copied()
    }

    /// Number of distinct k-mers in this shard.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the shard is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over (kmer, info) in ascending k-mer order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, KmerInfo)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }
}

/// Pack the first `k` bases at `window` into a 2-bit-per-base integer
/// (base 0 is the most significant pair).
pub fn pack_kmer(window: &[u8], k: usize) -> u64 {
    debug_assert!(k <= 31 && window.len() >= k);
    let mut v = 0u64;
    for &b in &window[..k] {
        debug_assert!(b < 4);
        v = (v << 2) | u64::from(b);
    }
    v
}

/// Shift a packed k-mer one base forward (append `base`, drop the
/// oldest).
pub fn shift_kmer(kmer: u64, base: u8, k: usize) -> u64 {
    let mask = (1u64 << (2 * k)) - 1;
    ((kmer << 2) | u64::from(base)) & mask
}

/// First (oldest) base of a packed k-mer.
pub fn first_base(kmer: u64, k: usize) -> u8 {
    ((kmer >> (2 * (k - 1))) & 0b11) as u8
}

/// Last (newest) base.
pub fn last_base(kmer: u64) -> u8 {
    (kmer & 0b11) as u8
}

/// Unpack a k-mer into bases.
pub fn unpack_kmer(kmer: u64, k: usize) -> Vec<u8> {
    (0..k)
        .rev()
        .map(|i| ((kmer >> (2 * i)) & 0b11) as u8)
        .collect()
}

/// Which rank owns a k-mer (multiplicative hash, well mixed).
pub fn owner_of(kmer: u64, nranks: u32) -> u32 {
    let h = kmer.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
    (h % u64::from(nranks)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_shift_roundtrip() {
        let bases = [0u8, 1, 2, 3, 1, 0, 2];
        let k = 5;
        let mut km = pack_kmer(&bases, k);
        assert_eq!(unpack_kmer(km, k), &bases[..k]);
        assert_eq!(first_base(km, k), 0);
        assert_eq!(last_base(km), 1);
        km = shift_kmer(km, bases[k], k);
        assert_eq!(unpack_kmer(km, k), &bases[1..=k]);
    }

    #[test]
    fn absorb_merges() {
        let mut g = KmerGraph::new();
        g.absorb(42, 1, 0b0001, 0);
        g.absorb(42, 2, 0b0100, 0b1000);
        let i = g.get(42).expect("present");
        assert_eq!(i.count, 3);
        assert_eq!(i.succ_mask, 0b0101);
        assert_eq!(i.out_degree(), 2);
        assert_eq!(i.in_degree(), 1);
        assert_eq!(i.sole_successor(), None);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn sole_successor() {
        let i = KmerInfo {
            succ_mask: 0b0100,
            ..Default::default()
        };
        assert_eq!(i.sole_successor(), Some(2));
    }

    #[test]
    fn owner_distribution_is_balanced() {
        let mut counts = [0u32; 7];
        for kmer in 0..70_000u64 {
            counts[owner_of(kmer * 2654435761, 7) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "unbalanced: {counts:?}");
        }
    }
}
