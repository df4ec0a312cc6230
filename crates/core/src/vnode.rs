//! Version-list nodes, and where their records live.
//!
//! A [`VNode`] is one retained version: a payload word, a timestamp and the link to the
//! next older version. Its record lives in one of two places: the per-thread pool
//! (`vpool`), or a [`VersionSlot`] embedded in the structure node the version installs.
//! A third kind of version has no record at all: a structure cell's direct initial
//! value, held in the cell's head word (and, once displaced, in the `nextv` of the
//! version above it) — see [`crate::versioned`].

use std::cell::UnsafeCell;

use vcas_ebr::{Atomic, Guard, Shared};

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
///   cell's gate (the head word's tag bit). The oldest link of a structure cell may be its
///   *direct* initial value rather than a node (see `crate::versioned`).
///
/// **Where a version record lives.** A record comes from the per-thread pool (`vpool`), or
/// it is the [`VersionSlot`] embedded in the structure node the version installs: the
/// first publication of a node with a slot claims it instead of taking a pooled record.
pub struct VNode {
    /// Written before the node is published — at construction, or by the one thread whose
    /// claim of a [`VersionSlot`] succeeded — and only read after; see [`VNode::word`].
    word: UnsafeCell<u64>,
    pub(crate) ts: AtomicU64,
    pub(crate) nextv: Atomic<VNode>,
}

// SAFETY: `word` is the only field without its own synchronization. It is written only
// while the node is private to one thread (before its publication CAS, which is `SeqCst`
// and so releases the write to every reader that acquires the head or a `nextv` link) and
// is immutable afterwards, so shared access never races a write.
unsafe impl Sync for VNode {}

impl VNode {
    /// Creates a version node holding `word` whose next-older version is `next`.
    pub(crate) fn new(word: u64, next: Shared<'_, VNode>) -> Self {
        VNode {
            word: UnsafeCell::new(word),
            ts: AtomicU64::new(TBD),
            nextv: Atomic::from_shared(next),
        }
    }

    /// Creates the initial version node of an object (no older version).
    pub(crate) fn initial(word: u64) -> Self {
        VNode { word: UnsafeCell::new(word), ts: AtomicU64::new(TBD), nextv: Atomic::null() }
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
    #[inline]
    pub fn word(&self) -> u64 {
        // SAFETY: see the `Sync` impl: the word is written only before the node is
        // reachable by any other thread, and a reader reached it through a publication.
        unsafe { *self.word.get() }
    }
}

/// Tag of a [`VersionSlot`]'s `nextv` before the slot is claimed: a null link with bit 1
/// set. No linked version ever has this link — a node's older version is a node pointer
/// (untagged), a direct value (bit 2 set) or null — so it cannot be mistaken for one.
pub(crate) const UNCLAIMED: usize = 2;

/// A version record embedded in a structure node, for the publication that installs that
/// node (the vCAS whose new value points at it). The cell's value hook names the slot of
/// a value ([`crate::ValueHook::slot`]); the first publication of the value claims it
/// with one CAS on its `nextv`, from the unclaimed tag to the head the publication
/// displaces, and then publishes the slot instead of a pooled record. Later publications
/// of the same node (relinks) find it claimed and use the pool.
///
/// A slot is claimed at most once and never handed to the pool: its memory is its node's,
/// and while it is linked its version's counted reference keeps that node alive (see
/// `docs/reclamation.md`, "Where a version record lives").
#[repr(transparent)]
pub struct VersionSlot(pub(crate) VNode);

impl VersionSlot {
    /// An unclaimed slot.
    pub fn new() -> VersionSlot {
        // SAFETY: a tagged null is a valid `Shared` word; it is never dereferenced.
        let unclaimed = unsafe { Shared::from_data(UNCLAIMED) };
        VersionSlot(VNode::new(0, unclaimed))
    }

    /// Claims the slot for a publication of `word` that displaces `displaced`: `true` for
    /// exactly one caller, which then owns the record until it publishes it.
    pub(crate) fn claim(&self, word: u64, displaced: Shared<'_, VNode>, guard: &Guard) -> bool {
        // SAFETY: a tagged null is a valid `Shared` word; it is never dereferenced.
        let unclaimed = unsafe { Shared::from_data(UNCLAIMED) };
        if !claim_link(&self.0.nextv, unclaimed, displaced, guard) {
            return false;
        }
        // SAFETY: the claim succeeded, so this thread is the only one that writes the
        // record, and no thread reads it before the publication CAS links it.
        unsafe { *self.0.word.get() = word };
        true
    }
}

impl Default for VersionSlot {
    fn default() -> VersionSlot {
        VersionSlot::new()
    }
}

/// The claim of a [`VersionSlot`]: one CAS from the unclaimed tag, so exactly one
/// publisher owns the record.
#[cfg(not(vcas_weaken_slot))]
#[inline]
fn claim_link(
    link: &Atomic<VNode>,
    unclaimed: Shared<'_, VNode>,
    displaced: Shared<'_, VNode>,
    guard: &Guard,
) -> bool {
    link.compare_exchange(
        unclaimed,
        displaced,
        Ordering::SeqCst,
        // ORDERING: slot-claim — failure means another publisher owns the slot; nothing
        // is read under it and the caller takes a pooled record instead.
        Ordering::Relaxed,
        guard,
    )
    .is_ok()
}
/// Mutated (deliberately wrong) claim: a plain store, so every racing publisher believes
/// it owns the slot and one may rewrite the `nextv` of a slot another already linked.
/// Exists solely for the mutation twin in `crates/analysis/tests/model.rs`, which proves
/// the model checker catches the clobbered link (stock builds never set the cfg).
#[cfg(vcas_weaken_slot)]
#[inline]
fn claim_link(
    link: &Atomic<VNode>,
    _: Shared<'_, VNode>,
    displaced: Shared<'_, VNode>,
    _: &Guard,
) -> bool {
    link.store(displaced, Ordering::SeqCst);
    true
}

impl std::fmt::Debug for VNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ts = self.timestamp();
        f.debug_struct("VNode")
            .field("word", &self.word())
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
