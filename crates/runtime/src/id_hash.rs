//! The hash of the coordinator's own `u32` ids: task, job and node.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `u32`-keyed map under [`IdHasher`].
pub(crate) type IdMap<V> = HashMap<u32, V, BuildHasherDefault<IdHasher>>;

/// A `u32` set under [`IdHasher`].
pub(crate) type IdSet = HashSet<u32, BuildHasherDefault<IdHasher>>;

/// The rustc Fx step: one rotate, one xor and one multiply per word,
/// against std's keyed SipHash.
///
/// **Trust assumption.** Every key hashed with it is an id the runtime
/// assigns itself — the task counter, the job cursor (`next_job`), the
/// node span — or, on recovery, one from the roster, which is the caller's
/// own. Nobody outside the process picks a key, so there is no hash
/// flooding for a keyed hash to resist. Do not use it for a key a peer
/// chooses.
///
/// Dense ids spread: the multiplier is odd, so the low bits hashbrown
/// picks a bucket with are a bijection of the id's, and the multiply
/// carries them into the top seven bits it keeps as the control tag.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

const SEED: u64 = 0x517c_c1b7_2722_0a95;

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.add(u64::from(id));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;

    /// Over the ids `0..4096`, the low twelve bits hit every bucket and the
    /// top seven (hashbrown's control tag) take at least 64 values — which
    /// an identity hash, all zero tags for small ids, would not.
    #[test]
    fn dense_ids_spread_over_buckets_and_tags() {
        let hash = |id: u32| BuildHasherDefault::<IdHasher>::default().hash_one(id);
        let buckets: IdSet = (0..4096).map(|id| (hash(id) & 4095) as u32).collect();
        let tags: IdSet = (0..4096).map(|id| (hash(id) >> 57) as u32).collect();
        assert_eq!(buckets.len(), 4096);
        assert!(tags.len() >= 64, "{} distinct tags", tags.len());
    }
}
