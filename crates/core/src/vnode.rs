//! Version-list nodes.

use vcas_ebr::{Atomic, Shared};

use crate::sync::{AtomicU64, Ordering};

use crate::TBD;

/// A value type storable in a version list.
///
/// Version nodes are **non-generic** so that every [`crate::VersionedCell<T>`] — whatever
/// its `T` — shares one node layout and one per-thread recycling pool (`vcas-core`'s
/// `vpool`). The cell's typed API converts at the boundary: values are packed into the
/// node's 64-bit payload word on the way in and unpacked on the way out.
///
/// The conversion must be a bijection on the values actually used (`from_word(into_word(v))
/// == v`, and word equality must coincide with value equality) — `VersionedCell` compares
/// payload *words* to implement `vCAS`'s expected-value check.
pub trait VersionValue: Copy + PartialEq + Send + Sync + 'static {
    /// Packs the value into a version node's payload word.
    fn into_word(self) -> u64;
    /// Unpacks a payload word produced by [`VersionValue::into_word`].
    fn from_word(word: u64) -> Self;
}

impl VersionValue for u64 {
    #[inline]
    fn into_word(self) -> u64 {
        self
    }
    #[inline]
    fn from_word(word: u64) -> Self {
        word
    }
}

impl VersionValue for usize {
    #[inline]
    fn into_word(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_word(word: u64) -> Self {
        word as usize
    }
}

/// One entry of a version list (paper Algorithm 1, `VNode`).
///
/// * `word` — the payload installed by the successful vCAS that created the node (a
///   [`VersionValue`] packed to 64 bits); immutable for the node's linked lifetime.
/// * `ts` — the timestamp of that vCAS. It starts as [`TBD`] and is stamped exactly once by
///   `initTS` (either by the installing thread or by a helper); once valid it never changes.
/// * `nextv` — the next (older) version. It is written when the node is created and is only
///   modified afterwards by version-list restructuring (truncation cuts, dead
///   same-timestamp unlinks, and the eager elision unlink), all serialized by the owning
///   cell's gate (the head word's tag bit).
pub struct VNode {
    pub(crate) word: u64,
    pub(crate) ts: AtomicU64,
    pub(crate) nextv: Atomic<VNode>,
}

impl VNode {
    /// Creates a version node holding `word` whose next-older version is `next`.
    pub(crate) fn new(word: u64, next: Shared<'_, VNode>) -> Self {
        VNode { word, ts: AtomicU64::new(TBD), nextv: Atomic::from_shared(next) }
    }

    /// Creates the initial version node of an object (no older version).
    pub(crate) fn initial(word: u64) -> Self {
        VNode { word, ts: AtomicU64::new(TBD), nextv: Atomic::null() }
    }

    /// Returns the node's timestamp (possibly [`TBD`]).
    pub fn timestamp(&self) -> u64 {
        self.ts.load(Ordering::SeqCst)
    }

    /// Is the node's timestamp still the TBD placeholder?
    pub fn is_tbd(&self) -> bool {
        self.timestamp() == TBD
    }

    /// The payload word recorded in this version (unpack with [`VersionValue::from_word`]).
    pub fn word(&self) -> u64 {
        self.word
    }
}

impl std::fmt::Debug for VNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ts = self.timestamp();
        f.debug_struct("VNode")
            .field("word", &self.word)
            .field("ts", &if ts == TBD { "TBD".to_string() } else { ts.to_string() })
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcas_ebr::pin;

    #[test]
    fn new_node_has_tbd_timestamp() {
        let n = VNode::initial(9);
        assert!(n.is_tbd());
        assert_eq!(n.word(), 9);
    }

    #[test]
    fn chained_node_points_to_previous() {
        let g = pin();
        let first = vcas_ebr::Owned::new(VNode::initial(1)).into_shared(&g);
        let second = VNode::new(2, first);
        let next = second.nextv.load(Ordering::SeqCst, &g);
        assert_eq!(next, first);
        // SAFETY: `first` stays alive until the explicit drop below.
        assert_eq!(unsafe { next.deref().word() }, 1);
        // SAFETY: the test owns the node and frees it once.
        unsafe { drop(first.into_owned()) };
    }

    #[test]
    fn version_value_roundtrips() {
        assert_eq!(u64::from_word(42u64.into_word()), 42);
        assert_eq!(usize::from_word(7usize.into_word()), 7);
        assert_eq!(u64::from_word(u64::MAX.into_word()), u64::MAX);
    }
}
