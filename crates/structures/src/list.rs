//! Harris's lock-free sorted linked list (§4 "Sorted Linked List"), generic over the
//! pointer-cell [`Mode`]: `HarrisList<Plain>` ([`HarrisList::new_plain`]) is the original
//! list, `HarrisList<Versioned>` (the default, [`HarrisList::new_versioned`]) the
//! snapshot-capable `VcasList`.
//!
//! The mutable state of the list is its head cell and the `next` pointer of each node, which
//! also carries the deletion mark in its low tag bit; deletes are linearized when the mark
//! is set. Versioning exactly those pointers therefore captures the full abstract state,
//! and a query that takes a snapshot and walks the snapshotted list (skipping marked nodes)
//! is an atomic multi-point query: range queries, multi-searches, i-th element, and full
//! scans (Table 1 rows for the Harris linked list).
//!
//! There is no sentinel node: a list *is* its head cell. The operations below take that
//! cell from the caller, and the predecessor a search returns is a cell too — the head
//! cell or a node's `next` — so every CAS goes through one kind of reference. The same
//! functions serve [`HarrisList`], which holds one head cell, and [`crate::VcasHashMap`],
//! whose buckets are head cells sharing the table's one mode and reclaim cursor.

use std::mem::ManuallyDrop;
use std::sync::Arc;
use vcas_core::sync::{AtomicU64, AtomicUsize, Ordering};

use vcas_core::reclaim::{CollectStats, Collectible, VersionStats};
use vcas_core::{
    release_node_ref, Camera, CameraAttached, Managed, Mode, PinnedSnapshot, Plain, PointerCell,
    RetentionError, SnapshotHandle, VersionReferenced, Versioned,
};
use vcas_ebr::{pin, Guard, Owned, Shared};

use crate::traits::{AtomicRangeMap, ConcurrentMap, Key, SnapshotMap, Value};
use crate::view::{MapSnapshotView, SnapshotSource};

/// Deletion mark stored in the low bit of a node's next pointer.
const MARK: usize = 1;

pub(crate) struct Node<M: Mode> {
    key: Key,
    value: Value,
    next: NextCell<M>,
    /// Version-held reference count (versioned mode): one reference per retained version
    /// pointing at this node, plus the creator reference until publication. Unused (and
    /// left at 1) in plain mode, where unlinked nodes go straight to EBR.
    refs: AtomicU64,
}

/// A head or next cell: one word in either mode — a plain [`vcas_ebr::Atomic`], or a
/// managed (reference-counting) versioned cell whose camera the mode supplies.
pub(crate) type NextCell<M> = <M as Mode>::Cell<Node<M>, Managed<Node<M>>>;

impl<M: Mode> Node<M> {
    fn new(key: Key, value: Value, next: NextCell<M>) -> Node<M> {
        Node { key, value, next, refs: AtomicU64::new(1) }
    }
}

/// SAFETY: `refs` is touched only by the version-reference protocol, and the list only
/// republishes pointers obtained from current (head-version) reads under a guard — snapshot
/// reads are never fed back into a CAS. Such a pointer may be retired (counter at zero) by
/// the time it is republished; the managed cell then refuses it, failing the CAS or the
/// new node's cell construction, and the operation searches again.
unsafe impl<M: Mode> VersionReferenced for Node<M> {
    const HOLDS_CELLS: bool = M::VERSIONED;

    fn version_refs(&self) -> &AtomicU64 {
        &self.refs
    }

    fn destroy(node: Box<Self>, camera: &Arc<Camera>) {
        node.next.destroy(camera);
    }
}

// ----- the Harris operations, over a head cell the caller holds ---------------------------

/// An empty list's head cell.
pub(crate) fn empty<M: Mode>(mode: &M) -> NextCell<M> {
    mode.cell(Shared::null()).expect("null is live")
}

/// Finds the first unmarked node with key `>= key` (null if none) and the cell that points
/// at it — `head` itself or a node's `next` — unlinking any marked nodes on the way
/// (Harris/Michael search). The node is returned as the pointer the caller CASes against
/// and, when non-null, as a reference.
fn search<'g, M: Mode>(
    mode: &M,
    head: &'g NextCell<M>,
    key: Key,
    guard: &'g Guard,
) -> (&'g NextCell<M>, Shared<'g, Node<M>>, Option<&'g Node<M>>) {
    'retry: loop {
        let mut pred = head;
        let mut curr = head.load(mode, guard).with_tag(0);
        loop {
            // SAFETY: `curr` was read (tag stripped) from a cell under `guard`, so a
            // non-null `curr` cannot be freed while we hold the pin.
            let Some(curr_ref) = (unsafe { curr.as_ref() }) else {
                return (pred, curr, None);
            };
            let succ = curr_ref.next.load(mode, guard);
            if succ.tag() == MARK {
                // `curr` is logically deleted: splice it out before continuing.
                if !pred.compare_exchange(mode, curr, succ.with_tag(0), guard) {
                    continue 'retry;
                }
                if !M::VERSIONED {
                    // SAFETY: we won the unlink CAS, so this thread is the unique
                    // retirer of `curr`; readers that still see it are pinned.
                    unsafe { guard.defer_destroy(curr) };
                }
                curr = succ.with_tag(0);
            } else {
                if curr_ref.key >= key {
                    return (pred, curr, Some(curr_ref));
                }
                pred = &curr_ref.next;
                curr = succ.with_tag(0);
            }
        }
    }
}

/// Inserts `key` into the list at `head`; returns `false` if already present.
pub(crate) fn insert<M: Mode>(mode: &M, head: &NextCell<M>, key: Key, value: Value) -> bool {
    let guard = pin();
    let mut attempts = 0u32;
    loop {
        crate::backoff(&mut attempts);
        let (pred, curr, found) = search(mode, head, key, &guard);
        if found.is_some_and(|node| node.key == key) {
            return false;
        }
        // `curr` may have been unlinked and retired since `search` read it.
        let Some(next) = mode.cell(curr) else { continue };
        let new = Owned::new(Node::new(key, value, next)).into_shared(&guard);
        if let Some(camera) = mode.camera() {
            camera.note_nodes_created(1);
        }
        if pred.compare_exchange(mode, curr, new, &guard) {
            if let Some(camera) = mode.camera() {
                // Published: `pred`'s new head version holds a counted reference, so
                // the creator reference is handed off (see [`VersionReferenced`]).
                release_node_ref(new, camera, &guard);
                camera.reclaim_tick(&guard);
            }
            return true;
        }
        // Not published: free and retry. (In versioned mode the node's cell still
        // holds a counted reference to `curr`; destroying the node releases it.)
        // SAFETY: the publish CAS failed, so `new` was never shared — this thread
        // still exclusively owns the allocation.
        let node = unsafe { Box::from_raw(new.as_raw()) };
        match mode.camera() {
            Some(camera) => {
                camera.note_nodes_dropped(1);
                VersionReferenced::destroy(node, camera);
            }
            None => drop(node),
        }
    }
}

/// Removes `key` from the list at `head`; returns `false` if not present.
pub(crate) fn remove<M: Mode>(mode: &M, head: &NextCell<M>, key: Key) -> bool {
    let guard = pin();
    let mut attempts = 0u32;
    loop {
        crate::backoff(&mut attempts);
        let (pred, curr, found) = search(mode, head, key, &guard);
        let Some(node) = found.filter(|node| node.key == key) else { return false };
        let succ = node.next.load(mode, &guard);
        if succ.tag() == MARK {
            continue;
        }
        // Logical delete: set the mark bit (the operation's linearization point).
        #[cfg(not(vcas_weaken_mark))]
        let mark_won = node.next.compare_exchange(mode, succ, succ.with_tag(MARK), &guard);
        // Deliberate mutation for the model-checker regression in
        // crates/analysis/tests/model_structures.rs: treat a lost mark CAS as won, so
        // a concurrent insert into `node.next` can be silently dropped (stock builds
        // never set the cfg).
        #[cfg(vcas_weaken_mark)]
        let mark_won = {
            let _ = node.next.compare_exchange(mode, succ, succ.with_tag(MARK), &guard);
            true
        };
        if !mark_won {
            continue;
        }
        // Physical unlink (best effort; search() will finish it otherwise).
        if pred.compare_exchange(mode, curr, succ.with_tag(0), &guard) && !M::VERSIONED {
            // SAFETY: we marked `curr` and won the unlink CAS, so this thread is its
            // unique retirer; readers that still see it are pinned.
            unsafe { guard.defer_destroy(curr) };
        }
        if let Some(camera) = mode.camera() {
            camera.reclaim_tick(&guard);
        }
        return true;
    }
}

/// The value stored with `key` in the list at `head`, if present.
pub(crate) fn get<M: Mode>(mode: &M, head: &NextCell<M>, key: Key) -> Option<Value> {
    cursor(mode, head, None, &pin(), key, key).next().map(|(_, v)| v)
}

/// The list's one ordered cursor: the live pairs with `lo <= key <= hi` in the list at
/// `head` as of `handle` (the current state when `None`), read under `guard`. Views use
/// it, and so does the hash map, whose buckets all share one camera: a cross-bucket query
/// reads every bucket at one handle under one guard. A list has no index, so positioning
/// at `lo` is `O(position)`, but early-stopping consumers (`get`, `find_if`,
/// `successors`) never touch the tail.
pub(crate) fn cursor<'g, M: Mode>(
    mode: &'g M,
    head: &NextCell<M>,
    handle: Option<SnapshotHandle>,
    guard: &'g Guard,
    lo: Key,
    hi: Key,
) -> impl Iterator<Item = (Key, Value)> + 'g {
    walk(mode, head, handle, guard, hi)
        .filter(move |&(node, marked)| !marked && node.key >= lo)
        .map(|(node, _)| (node.key, node.value))
}

/// The nodes of the list at `head` as of `handle`, in key order up to the first key above
/// `hi`, each with whether it was marked (deleted) at `handle`. Marked nodes are included:
/// their cells hold versions too.
fn walk<'g, M: Mode>(
    mode: &'g M,
    head: &NextCell<M>,
    handle: Option<SnapshotHandle>,
    guard: &'g Guard,
    hi: Key,
) -> Walk<'g, M> {
    Walk { curr: head.load_at(mode, handle, guard).with_tag(0), mode, handle, guard, hi }
}

/// See [`walk`]: one pointer chase per node, and no node is read before the one ahead of
/// it is taken.
struct Walk<'g, M: Mode> {
    /// The next node to examine, or null.
    curr: Shared<'g, Node<M>>,
    mode: &'g M,
    handle: Option<SnapshotHandle>,
    guard: &'g Guard,
    hi: Key,
}

impl<'g, M: Mode> Iterator for Walk<'g, M> {
    type Item = (&'g Node<M>, bool);

    fn next(&mut self) -> Option<(&'g Node<M>, bool)> {
        // SAFETY: `curr` was read from a cell (or version) under `guard`, whose pin — and
        // the snapshot pin, when historical — outlives the walk.
        let node = unsafe { self.curr.as_ref() }?;
        if node.key > self.hi {
            // Key order: every later node (dead ones included) is larger.
            self.curr = Shared::null();
            return None;
        }
        let next = node.next.load_at(self.mode, self.handle, self.guard);
        self.curr = next.with_tag(0);
        Some((node, next.tag() == MARK))
    }
}

/// Where a bounded collection pass resumes: the index of a head cell and, inside that
/// cell's list, a key stored as *key + 1*, so that 0 unambiguously means "start at the
/// head cell" even though 0 is a legal user key.
#[derive(Default)]
pub(crate) struct ReclaimCursor {
    head: AtomicUsize,
    key: AtomicU64,
}

impl ReclaimCursor {
    fn save(&self, head: usize, key: u64) {
        // ORDERING: progress-heuristic — the cursor only decides where the next bounded
        // pass resumes; truncation synchronizes inside the cells.
        self.head.store(head, Ordering::Relaxed);
        // ORDERING: progress-heuristic — as above.
        self.key.store(key, Ordering::Relaxed);
    }
}

/// Bounded, resumable truncation of the lists at `heads` ([`Collectible::collect_bounded`]
/// for the list and the hash map): walks each *physical* list (marked nodes included) from
/// `cursor`, truncating up to `budget` cells under `min_active`. Finishing the last head
/// completes the cycle and rewinds the cursor. (A circular pass could never report
/// completion with a budget smaller than the table.)
pub(crate) fn collect_bounded<M: Mode>(
    mode: &M,
    heads: &[NextCell<M>],
    cursor: &ReclaimCursor,
    min_active: u64,
    budget: usize,
    guard: &Guard,
) -> CollectStats {
    let mut stats = CollectStats::default();
    if !M::VERSIONED {
        stats.completed_cycle = true;
        return stats;
    }
    let budget = budget.max(1);
    // ORDERING: progress-heuristic — see `ReclaimCursor::save`.
    let start = cursor.head.load(Ordering::Relaxed).min(heads.len() - 1);
    // Resume at the first node with key >= `resume - 1` (inclusive, so the node the
    // previous pass stalled on — and never collected — is picked up now, guaranteeing
    // forward progress).
    // ORDERING: progress-heuristic — as above.
    let mut resume = cursor.key.load(Ordering::Relaxed);
    for (idx, head) in heads.iter().enumerate().skip(start) {
        if resume == 0 {
            if stats.cells_visited >= budget {
                cursor.save(idx, 0);
                return stats;
            }
            stats.versions_retired += head.collect_before(mode, min_active, guard);
            stats.cells_visited += 1;
        }
        for (node, _) in walk(mode, head, None, guard, Key::MAX) {
            if node.key < resume.saturating_sub(1) {
                continue;
            }
            // Stall only on keys that can be re-encoded unambiguously (key + 1 must not
            // wrap): a u64::MAX node is simply collected past the budget instead,
            // overshooting by at most the few such nodes.
            if stats.cells_visited >= budget && node.key < Key::MAX {
                cursor.save(idx, node.key + 1);
                return stats;
            }
            stats.versions_retired += node.next.collect_before(mode, min_active, guard);
            stats.cells_visited += 1;
        }
        resume = 0;
    }
    cursor.save(0, 0);
    stats.completed_cycle = true;
    stats
}

/// Version-list statistics over every cell of the physical lists at `heads`.
pub(crate) fn version_stats<M: Mode>(
    mode: &M,
    heads: &[NextCell<M>],
    guard: &Guard,
) -> VersionStats {
    let mut stats = VersionStats::default();
    for head in heads {
        stats.record_cell(head.version_count(guard));
        for (node, _) in walk(mode, head, None, guard, Key::MAX) {
            stats.record_cell(node.next.version_count(guard));
        }
    }
    stats
}

/// Tears down a dropped structure's head cells. A plain structure frees the nodes they
/// still reach; its unlinked nodes were retired to EBR at their unlink CAS. A versioned
/// one destroys the head cells, which releases the references their versions hold, and
/// reclamation cascades through exactly the nodes that thereby become unreferenced
/// (deferred through EBR; `vcas_ebr::drain` at a quiescent point settles the counters).
pub(crate) fn destroy<M: Mode>(mode: &M, heads: impl IntoIterator<Item = NextCell<M>>) {
    if let Some(camera) = mode.camera() {
        for head in heads {
            head.destroy(camera);
        }
        return;
    }
    let guard = pin();
    for head in heads {
        let mut curr = head.load(mode, &guard).with_tag(0);
        while !curr.is_null() {
            // SAFETY: the head cells were taken from the structure being dropped, so every
            // node on the chain is still allocated (unlinked ones were retired to EBR, not
            // freed), was allocated via `Owned`, and appears on the chain exactly once.
            let node = unsafe { Box::from_raw(curr.as_raw()) };
            curr = node.next.load(mode, &guard).with_tag(0);
        }
    }
}

// ----- the one-bucket case -----------------------------------------------------------------

/// Harris's sorted linked list (see module docs), `VcasList` unless `M` is [`Plain`].
pub struct HarrisList<M: Mode = Versioned> {
    /// Taken by `Drop`, which destroys it with the mode's camera.
    head: ManuallyDrop<NextCell<M>>,
    mode: M,
    /// Resume point for incremental version-list collection ([`Collectible`]).
    reclaim_cursor: ReclaimCursor,
}

impl HarrisList<Plain> {
    /// The original, unversioned list.
    pub fn new_plain() -> HarrisList<Plain> {
        Self::with_mode(Plain)
    }
}

impl HarrisList {
    /// The snapshot-capable list (`VcasList`): next pointers are versioned CAS objects.
    pub fn new_versioned(camera: &Arc<Camera>) -> HarrisList {
        Self::with_mode(Versioned::new(camera))
    }

    /// A snapshot-capable list with a private camera.
    pub fn new_versioned_default() -> HarrisList {
        Self::new_versioned(&Camera::new())
    }
}

impl<M: Mode> HarrisList<M> {
    fn with_mode(mode: M) -> HarrisList<M> {
        let head = ManuallyDrop::new(empty(&mode));
        HarrisList { head, mode, reclaim_cursor: ReclaimCursor::default() }
    }

    /// The camera associated with a versioned list.
    pub fn camera(&self) -> Option<&Arc<Camera>> {
        self.mode.camera()
    }

    /// Inserts `key`; returns `false` if already present.
    pub fn insert(&self, key: Key, value: Value) -> bool {
        insert(&self.mode, &self.head, key, value)
    }

    /// Removes `key`; returns `false` if not present.
    pub fn remove(&self, key: Key) -> bool {
        remove(&self.mode, &self.head, key)
    }

    /// Does the list contain `key`?
    pub fn contains(&self, key: Key) -> bool {
        self.get(key).is_some()
    }

    /// Returns the value stored with `key`, if present.
    pub fn get(&self, key: Key) -> Option<Value> {
        get(&self.mode, &self.head, key)
    }

    // ----- snapshot queries --------------------------------------------------------------
    //
    // Every multi-point query runs against a [`HarrisListView`] through the
    // [`MapSnapshotView`] trait: one snapshot, one EBR pin, arbitrarily many reads.

    /// Opens a pinned snapshot view of the list's state right now (the primary multi-point
    /// query surface; see [`crate::view`]). In plain mode the view reads current state.
    pub fn view(&self) -> HarrisListView<'_, M> {
        HarrisListView::new(self, self.mode.pin_snapshot())
    }

    /// Opens a view of the list **as of** timestamp `ts` — any retained timestamp. The
    /// view pins `ts` ([`vcas_core::Camera::pin_snapshot_at`]), so it stays exact until
    /// dropped. Fails if `ts` is below the retention watermark, in the future, or if the
    /// list is in plain (history-less) mode.
    pub fn view_at(&self, ts: u64) -> Result<HarrisListView<'_, M>, RetentionError> {
        Ok(HarrisListView::new(self, Some(self.mode.pin_snapshot_at(ts)?)))
    }
}

/// Incremental version-list collection for a standalone list: the one-head case of the
/// walk the hash map runs over its buckets.
impl<M: Mode> Collectible for HarrisList<M> {
    fn collect_bounded(&self, min_active: u64, budget: usize, guard: &Guard) -> CollectStats {
        let heads = std::slice::from_ref(&*self.head);
        collect_bounded(&self.mode, heads, &self.reclaim_cursor, min_active, budget, guard)
    }

    fn version_stats(&self, guard: &Guard) -> VersionStats {
        version_stats(&self.mode, std::slice::from_ref(&*self.head), guard)
    }
}

/// A snapshot view of a [`HarrisList`]: every query on one view observes the same
/// timestamp (see [`HarrisList::view`] / [`HarrisList::view_at`]). Holds the snapshot pin
/// (when pinned) and one EBR guard for its whole lifetime.
pub struct HarrisListView<'a, M: Mode = Versioned> {
    list: &'a HarrisList<M>,
    /// Keeps the snapshot registered with the camera so version-list truncation cannot
    /// reclaim versions this view may read.
    _pin: Option<PinnedSnapshot>,
    /// The snapshot the view reads at (`None`: the current state, in plain mode).
    handle: Option<SnapshotHandle>,
    guard: Guard,
}

impl<'a, M: Mode> HarrisListView<'a, M> {
    fn new(list: &'a HarrisList<M>, pinned: Option<PinnedSnapshot>) -> HarrisListView<'a, M> {
        let handle = pinned.as_ref().map(PinnedSnapshot::handle);
        HarrisListView { list, _pin: pinned, handle, guard: pin() }
    }

    fn cursor(&self, lo: Key, hi: Key) -> impl Iterator<Item = (Key, Value)> + '_ {
        cursor(&self.list.mode, &self.list.head, self.handle, &self.guard, lo, hi)
    }
}

impl<M: Mode> MapSnapshotView for HarrisListView<'_, M> {
    fn get(&self, key: Key) -> Option<Value> {
        self.cursor(key, key).next().map(|(_, v)| v)
    }
    fn range_iter(&self, lo: Key, hi: Key) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
        Box::new(self.cursor(lo, hi))
    }
    fn timestamp(&self) -> Option<SnapshotHandle> {
        self.handle
    }
    /// One pass over the list up to the largest key asked for, instead of one walk from
    /// the head per key.
    fn multi_get(&self, keys: &[Key]) -> Vec<Option<Value>> {
        let Some(&max) = keys.iter().max() else { return Vec::new() };
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let found: Vec<(Key, Value)> =
            self.cursor(sorted[0], max).filter(|(k, _)| sorted.binary_search(k).is_ok()).collect();
        let lookup = |k: &Key| found.binary_search_by_key(k, |&(fk, _)| fk).ok();
        keys.iter().map(|k| lookup(k).map(|i| found[i].1)).collect()
    }
}

impl<M: Mode> CameraAttached for HarrisList<M> {
    fn attached_camera(&self) -> Option<&Arc<Camera>> {
        self.camera()
    }
}

impl<M: Mode> SnapshotSource for HarrisList<M> {
    fn snapshot_view(&self) -> Box<dyn MapSnapshotView + '_> {
        Box::new(self.view())
    }
    fn view_at(&self, ts: u64) -> Result<Box<dyn MapSnapshotView + '_>, RetentionError> {
        Ok(Box::new(HarrisList::view_at(self, ts)?))
    }
}

impl<M: Mode> Drop for HarrisList<M> {
    fn drop(&mut self) {
        // SAFETY: `drop` runs once and `head` is not used afterwards.
        let head = unsafe { ManuallyDrop::take(&mut self.head) };
        destroy(&self.mode, [head]);
    }
}

impl<M: Mode> ConcurrentMap for HarrisList<M> {
    fn insert(&self, key: Key, value: Value) -> bool {
        HarrisList::insert(self, key, value)
    }
    fn remove(&self, key: Key) -> bool {
        HarrisList::remove(self, key)
    }
    fn contains(&self, key: Key) -> bool {
        HarrisList::contains(self, key)
    }
    fn get(&self, key: Key) -> Option<Value> {
        HarrisList::get(self, key)
    }
    fn name(&self) -> &'static str {
        if M::VERSIONED {
            "VcasList"
        } else {
            "HarrisList"
        }
    }
}

/// All multi-point queries come from the trait's view-based defaults.
impl<M: Mode> SnapshotMap for HarrisList<M> {}
impl<M: Mode> AtomicRangeMap for HarrisList<M> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn plain() -> HarrisList<Plain> {
        HarrisList::new_plain()
    }

    fn versioned() -> HarrisList {
        HarrisList::new_versioned_default()
    }

    /// Layout budget: key, value, counter and one next cell — one word in either mode,
    /// the camera being the mode's. A bucket is its head cell alone, so a hash-map bucket
    /// is exactly one such cell.
    #[test]
    fn node_layout_stays_within_budget() {
        let versioned = std::mem::size_of::<Node<Versioned>>();
        assert!(versioned <= 32, "Node<Versioned> is {versioned} B");
        let plain = std::mem::size_of::<Node<Plain>>();
        assert!(plain <= 32, "Node<Plain> is {plain} B");
        let word = std::mem::size_of::<usize>();
        assert_eq!(std::mem::size_of::<NextCell<Versioned>>(), word);
        assert_eq!(std::mem::size_of::<NextCell<Plain>>(), word);
    }

    #[test]
    fn sequential_set_semantics() {
        for_both_modes!(|list| {
            assert!(list.view().is_empty());
            assert!(list.insert(3, 30));
            assert!(list.insert(1, 10));
            assert!(list.insert(2, 20));
            assert!(!list.insert(2, 99));
            assert_eq!(list.view().range(0, Key::MAX), vec![(1, 10), (2, 20), (3, 30)]);
            assert!(list.remove(2));
            assert!(!list.remove(2));
            assert_eq!(list.get(2), None);
            assert_eq!(list.get(3), Some(30));
            assert_eq!(list.view().range(0, Key::MAX), vec![(1, 10), (3, 30)]);
        });
    }

    #[test]
    fn queries_match_contents() {
        for_both_modes!(|list| {
            for k in (0..60u64).step_by(3) {
                list.insert(k, k * 2);
            }
            assert_eq!(list.range(10, 20), vec![(12, 24), (15, 30), (18, 36)]);
            assert_eq!(list.multi_get(&[9, 10, 12]), vec![Some(18), None, Some(24)]);
            assert_eq!(list.view().iter().next(), Some((0, 0)));
            assert_eq!(list.view().iter().nth(2), Some((6, 12)));
            assert_eq!(list.view().iter().nth(1000), None);
            assert_eq!(list.successors(10, 2), vec![(12, 24), (15, 30)]);
        });
    }

    #[test]
    fn matches_model_on_random_ops() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for_both_modes!(|list| {
            let mut model = BTreeSet::new();
            for _ in 0..2000 {
                let k = rng.gen_range(0..100u64);
                match rng.gen_range(0..3) {
                    0 => assert_eq!(list.insert(k, k), model.insert(k)),
                    1 => assert_eq!(list.remove(k), model.remove(&k)),
                    _ => assert_eq!(list.contains(k), model.contains(&k)),
                }
            }
            let scanned: Vec<Key> =
                list.view().range(0, Key::MAX).iter().map(|(k, _)| *k).collect();
            assert_eq!(scanned, model.iter().copied().collect::<Vec<_>>());
        });
    }

    #[test]
    fn concurrent_inserts_and_removes_are_consistent() {
        for_both_modes!(|list| {
            let list = Arc::new(list);
            let mut handles = Vec::new();
            for t in 0..4u64 {
                let list = list.clone();
                handles.push(std::thread::spawn(move || {
                    use rand::{Rng, SeedableRng};
                    let mut rng = rand::rngs::StdRng::seed_from_u64(100 + t);
                    for _ in 0..1500 {
                        let k = rng.gen_range(0..48u64);
                        if rng.gen_bool(0.5) {
                            list.insert(k, k);
                        } else {
                            list.remove(k);
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let scan: Vec<Key> = list.view().range(0, Key::MAX).iter().map(|(k, _)| *k).collect();
            let mut sorted = scan.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(scan, sorted, "scan must be sorted and duplicate-free");
            for k in 0..48u64 {
                assert_eq!(list.contains(k), scan.contains(&k));
            }
        });
    }

    #[test]
    fn bounded_collection_truncates_the_list_in_slices() {
        let camera = Camera::new();
        let list = HarrisList::new_versioned(&camera);
        for k in 1..=50u64 {
            camera.take_snapshot();
            list.insert(k, k);
        }
        // Churn every key once more so interior cells accumulate versions.
        for k in 1..=50u64 {
            camera.take_snapshot();
            list.remove(k);
            camera.take_snapshot();
            list.insert(k, k * 2);
        }
        let guard = pin();
        let before = Collectible::version_stats(&list, &guard);
        assert!(before.max_versions_per_cell > 1);

        let min_active = camera.min_active();
        let mut passes = 0;
        loop {
            let s = list.collect_bounded(min_active, 8, &guard);
            passes += 1;
            assert!(passes < 1000, "bounded collection must terminate");
            assert!(s.cells_visited <= 8, "slice exceeded its budget");
            if s.completed_cycle {
                break;
            }
        }
        assert!(passes > 1, "budget 8 on a 50-key list must need several slices");
        let after = Collectible::version_stats(&list, &guard);
        assert_eq!(after.max_versions_per_cell, 1, "no pins: one version per cell remains");
        assert_eq!(list.view().len(), 50, "collection must not change the abstract state");
        assert_eq!(list.get(25), Some(50));
    }

    /// Regression test: key 0 is a legal list key and must not alias the cursor's
    /// "fresh sweep" encoding — with the smallest possible budget, collection still makes
    /// forward progress and completes.
    #[test]
    fn bounded_collection_progresses_past_key_zero_with_budget_one() {
        let camera = Camera::new();
        let list = HarrisList::new_versioned(&camera);
        for k in 0..8u64 {
            camera.take_snapshot();
            list.insert(k, k);
        }
        for k in 0..8u64 {
            camera.take_snapshot();
            list.remove(k);
            camera.take_snapshot();
            list.insert(k, k + 1);
        }
        let guard = pin();
        let min_active = camera.min_active();
        let mut passes = 0;
        loop {
            let s = list.collect_bounded(min_active, 1, &guard);
            passes += 1;
            assert!(passes < 100, "budget-1 collection stalled (cursor aliasing on key 0?)");
            if s.completed_cycle {
                break;
            }
        }
        assert_eq!(Collectible::version_stats(&list, &guard).max_versions_per_cell, 1);
        assert_eq!(list.get(0), Some(1), "key 0 survives collection");
    }

    #[test]
    fn snapshot_scan_sees_prefix_under_ordered_inserts() {
        let list = Arc::new(HarrisList::new_versioned_default());
        let writer = {
            let list = list.clone();
            std::thread::spawn(move || {
                for k in 0..1500u64 {
                    list.insert(k, k);
                }
            })
        };
        let reader = {
            let list = list.clone();
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let keys: Vec<Key> =
                        list.view().range(0, Key::MAX).iter().map(|(k, _)| *k).collect();
                    let expected: Vec<Key> = (0..keys.len() as u64).collect();
                    assert_eq!(keys, expected, "atomic scan must observe a gap-free prefix");
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(list.view().len(), 1500);
    }
}
