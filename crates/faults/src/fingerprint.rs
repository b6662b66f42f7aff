//! Order-independent Zobrist fingerprints of fault sets.
//!
//! The branching oracle's memoization and the serving side's epoch
//! interning both need the same primitive: a cheap, incrementally
//! maintainable identity for "this set of faulted components", built so
//! that inserting and removing a component are O(1) and the result does
//! not depend on insertion order. The scheme is classic Zobrist hashing
//! with two independent combiners:
//!
//! * every component gets a fixed pseudo-random 64-bit hash
//!   ([`component_hash`]: the SplitMix64 finalizer over the component
//!   index, tagged with the [`FaultModel`] so vertex `i` and edge `i`
//!   can never collide);
//! * a set is summarized by the **xor** and the **wrapping sum** of its
//!   members' hashes ([`SetFingerprint`]). Xor alone is weak (any
//!   element twice cancels out); the sum half breaks exactly those
//!   cancellation patterns, giving an effectively 128-bit key.
//!
//! Two distinct sets colliding requires both halves to collide at once;
//! with SplitMix64-quality hashes that is a ~2⁻¹²⁸ event per pair. The
//! branching oracle's memo trusts a key hit: a collision would skip an
//! unexplored fault set, could miss a blocking set and drop an edge the
//! contract needs — a risk accepted for its negligible chance and
//! because exact certification gates every benchmarked artifact (the
//! full argument is in `branching.rs`, beside the
//! [`BranchingOracle`](crate::BranchingOracle) memo). Serving's epoch
//! interning compares the fault lists on every hit, because a collision
//! there would route one tenant's queries around another tenant's
//! failures.

use crate::FaultModel;

/// The per-element hash both fingerprint halves are built from: the
/// SplitMix64 finalizer over the component index, tagged with the fault
/// model so a vertex id and an equal edge id never share a hash.
#[inline]
pub fn component_hash(model: FaultModel, component: usize) -> u64 {
    let tag = match model {
        FaultModel::Vertex => 0x517C_C1B7_2722_0A95u64,
        FaultModel::Edge => 0x2545_F491_4F6C_DD1Du64,
    };
    let mut z = (component as u64 ^ tag).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An incrementally maintained, order-independent fingerprint of a set
/// of component hashes (see the module docs for the xor + sum scheme).
///
/// [`SetFingerprint::add`] and [`SetFingerprint::remove`] are exact
/// inverses, so a caller can walk a search tree (or an epoch timeline)
/// toggling components and always hold the fingerprint of the *current*
/// set in O(1) per toggle.
///
/// # Examples
///
/// ```
/// use spanner_faults::fingerprint::{component_hash, SetFingerprint};
/// use spanner_faults::FaultModel;
///
/// let mut a = SetFingerprint::EMPTY;
/// a.add(component_hash(FaultModel::Vertex, 3));
/// a.add(component_hash(FaultModel::Vertex, 7));
/// let mut b = SetFingerprint::EMPTY;
/// b.add(component_hash(FaultModel::Vertex, 7));
/// b.add(component_hash(FaultModel::Vertex, 3));
/// assert_eq!(a, b, "order must not matter");
/// b.remove(component_hash(FaultModel::Vertex, 3));
/// b.remove(component_hash(FaultModel::Vertex, 7));
/// assert_eq!(b, SetFingerprint::EMPTY);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SetFingerprint {
    xor: u64,
    sum: u64,
    len: u64,
}

impl SetFingerprint {
    /// The fingerprint of the empty set.
    pub const EMPTY: SetFingerprint = SetFingerprint {
        xor: 0,
        sum: 0,
        len: 0,
    };

    /// Folds one component hash into the set.
    #[inline]
    pub fn add(&mut self, hash: u64) {
        self.xor ^= hash;
        self.sum = self.sum.wrapping_add(hash);
        self.len += 1;
    }

    /// Removes one component hash from the set (the exact inverse of
    /// [`SetFingerprint::add`]; the caller is responsible for only
    /// removing hashes that were added).
    #[inline]
    pub fn remove(&mut self, hash: u64) {
        self.xor ^= hash;
        self.sum = self.sum.wrapping_sub(hash);
        self.len -= 1;
    }

    /// The two 64-bit halves, the map-key form used by memo tables that
    /// key on content only (the length is implied by the sum half for
    /// honest inputs, but [`SetFingerprint::key`] carries it explicitly).
    #[inline]
    pub fn pair(&self) -> (u64, u64) {
        (self.xor, self.sum)
    }

    /// The full interning key: both halves plus the set size.
    #[inline]
    pub fn key(&self) -> (u64, u64, u64) {
        (self.xor, self.sum, self.len)
    }

    /// Number of component hashes currently folded in.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the fingerprint is the empty set's.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tags_separate_vertex_and_edge_hashes() {
        for c in [0usize, 1, 17, 100_000] {
            assert_ne!(
                component_hash(FaultModel::Vertex, c),
                component_hash(FaultModel::Edge, c),
                "component {c}"
            );
        }
    }

    #[test]
    fn add_remove_round_trips_through_any_interleaving() {
        let hashes: Vec<u64> = (0..8)
            .map(|c| component_hash(FaultModel::Vertex, c))
            .collect();
        let mut fp = SetFingerprint::EMPTY;
        // Build {0..8}, remove evens, re-add 0: fingerprint must equal
        // the directly built {odds} ∪ {0}.
        for &h in &hashes {
            fp.add(h);
        }
        for c in [0usize, 2, 4, 6] {
            fp.remove(hashes[c]);
        }
        fp.add(hashes[0]);
        let mut direct = SetFingerprint::EMPTY;
        for c in [1usize, 3, 5, 7, 0] {
            direct.add(hashes[c]);
        }
        assert_eq!(fp, direct);
        assert_eq!(fp.len(), 5);
        assert!(!fp.is_empty());
    }

    #[test]
    fn sum_half_breaks_xor_cancellation() {
        // {a, a, b} and {b} collide on the xor half by construction; the
        // sum half (and the length) must keep them apart.
        let a = component_hash(FaultModel::Vertex, 1);
        let b = component_hash(FaultModel::Vertex, 2);
        let mut twice = SetFingerprint::EMPTY;
        twice.add(a);
        twice.add(a);
        twice.add(b);
        let mut once = SetFingerprint::EMPTY;
        once.add(b);
        assert_eq!(twice.pair().0, once.pair().0, "xor half collides");
        assert_ne!(twice.key(), once.key(), "full key must not");
    }
}
