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
//! cell from the caller, and the predecessor a search returns holds a cell too — the head
//! cell or a node's `next` — so every CAS goes through one kind of reference. The same
//! functions serve [`HarrisList`], which holds one head cell, [`crate::VcasHashMap`],
//! whose buckets are head cells sharing the table's one mode and sweep cursor, and
//! [`crate::VcasSkipList`], whose head is a tower of head cells and each of whose levels
//! is a Harris list over the nodes' cells at that level (`ListNode`).

use std::mem::ManuallyDrop;
use std::sync::Arc;
use vcas_core::sync::AtomicU64;

use vcas_core::reclaim::{CellOp, Collectible, Sweep, SweepCursor, Visit};
use vcas_core::{
    release_node_ref, Camera, Managed, Mode, PinnedSnapshot, Plain, PointerCell, RetentionError,
    SnapshotHandle, VersionReferenced, Versioned,
};
use vcas_ebr::{pin, Guard, Owned, Shared};

use crate::traits::{AtomicRangeMap, ConcurrentMap, Key, SnapshotMap, Value};
use crate::view::{MapSnapshotView, SnapshotSource};

/// Deletion mark stored in the low bit of a node's next pointer.
pub(crate) const MARK: usize = 1;

/// A node the Harris operations run on: a key, a value and its cells, one per level it
/// can be linked at — a list node has one, a skip-list node a tower. A cell at a level
/// points at the node's successor at that level, and its mark deletes the node there.
///
/// A node on several levels implements this for [`Versioned`] only: the plain-mode
/// retirement at a won unlink CAS ([`search`]) is sound only for a node on one list.
pub(crate) trait ListNode<M: Mode>:
    VersionReferenced + Send + Sync + Sized + 'static
{
    fn key(&self) -> Key;
    fn value(&self) -> Value;
    /// The node's cells, level 0 first.
    fn tower(&self) -> &[NextCell<M, Self>];
}

/// A head or next cell: one word in either mode — a plain [`vcas_ebr::Atomic`], or a
/// managed (reference-counting) versioned cell whose camera the mode supplies.
pub(crate) type NextCell<M, N = Node<M>> = <M as Mode>::Cell<N, Managed<N>>;

pub(crate) struct Node<M: Mode> {
    key: Key,
    value: Value,
    next: NextCell<M>,
    /// Version-held reference count (versioned mode): one reference per retained version
    /// pointing at this node, plus the creator reference until publication. Unused (and
    /// left at 1) in plain mode, where unlinked nodes go straight to EBR.
    refs: AtomicU64,
}

impl<M: Mode> ListNode<M> for Node<M> {
    fn key(&self) -> Key {
        self.key
    }
    fn value(&self) -> Value {
        self.value
    }
    fn tower(&self) -> &[NextCell<M>] {
        std::slice::from_ref(&self.next)
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

// ----- the Harris operations, over cells the caller holds -----------------------------------

/// An empty list's head cell.
pub(crate) fn empty<M: Mode, N: ListNode<M>>(mode: &M) -> NextCell<M, N> {
    mode.cell(Shared::null()).expect("null is live")
}

/// Where a key belongs on one level: `pred`, whose cell at that level points at the
/// position (the search's start tower or the tower of a node before it); `curr`, the
/// first unmarked node with a key at or above it (null if none); and `curr` as a node.
pub(crate) type Position<'g, M, N> = (&'g [NextCell<M, N>], Shared<'g, N>, Option<&'g N>);

/// Harris's search on `level`, from `start[level]`: finds the [`Position`] of `key`,
/// splicing out the marked nodes on the way. `Err` when a splice CAS lost — its
/// predecessor cell changed, or is marked for good — and the caller decides where to
/// search again: a list from its head cell, which is never marked; a skip list from the
/// top of its head tower, since a marked tower cell would fail every retry.
pub(crate) fn search<'g, M: Mode, N: ListNode<M>>(
    mode: &M,
    start: &'g [NextCell<M, N>],
    level: usize,
    key: Key,
    guard: &'g Guard,
) -> Result<Position<'g, M, N>, ()> {
    let mut pred = start;
    let mut curr = start[level].load(mode, guard).with_tag(0);
    loop {
        // SAFETY: `curr` was read (tag stripped) from a cell under `guard`, so a non-null
        // `curr` cannot be freed while we hold the pin.
        let Some(curr_ref) = (unsafe { curr.as_ref() }) else {
            return Ok((pred, curr, None));
        };
        let succ = curr_ref.tower()[level].load(mode, guard);
        if succ.tag() == MARK {
            // `curr` is logically deleted: splice it out before continuing.
            if !pred[level].compare_exchange(mode, curr, succ.with_tag(0), guard) {
                return Err(());
            }
            if !M::VERSIONED {
                // SAFETY: we won the unlink CAS, so this thread is the unique retirer of
                // `curr` (a plain node is on one list); readers that still see it are
                // pinned.
                unsafe { guard.defer_destroy(curr) };
            }
        } else if curr_ref.key() >= key {
            return Ok((pred, curr, Some(curr_ref)));
        } else {
            pred = curr_ref.tower();
        }
        curr = succ.with_tag(0);
    }
}

/// Publishes `node` at `pred` in place of `curr` — an insert's linearization point — and
/// hands the creator reference to the version that now points at it. When the CAS loses,
/// the node was never shared and is destroyed, releasing what its cells hold; `None`
/// tells the caller to search again.
pub(crate) fn publish<'g, M: Mode, N: ListNode<M>>(
    mode: &M,
    pred: &NextCell<M, N>,
    curr: Shared<'_, N>,
    node: N,
    guard: &'g Guard,
) -> Option<Shared<'g, N>> {
    let new = Owned::new(node).into_shared(guard);
    if let Some(camera) = mode.camera() {
        camera.note_nodes_created(1);
    }
    if pred.compare_exchange(mode, curr, new, guard) {
        if let Some(camera) = mode.camera() {
            // Published: `pred`'s new head version holds a counted reference, so the
            // creator reference is handed off (see [`VersionReferenced`]).
            release_node_ref(new, camera, guard);
        }
        return Some(new);
    }
    // SAFETY: the publish CAS failed, so `new` was never shared — this thread still
    // exclusively owns the allocation.
    let node = unsafe { Box::from_raw(new.as_raw()) };
    match mode.camera() {
        Some(camera) => {
            camera.note_nodes_dropped(1);
            VersionReferenced::destroy(node, camera);
        }
        None => drop(node),
    }
    None
}

/// Marks `node` deleted at `level`, retrying on the same node while its cell changes
/// under the CAS. `Some` with the successor it marked when this call set the mark (at
/// level 0, the remove's linearization point); `None` when the cell was already marked.
pub(crate) fn mark<'g, M: Mode, N: ListNode<M>>(
    mode: &M,
    node: &'g N,
    level: usize,
    guard: &'g Guard,
) -> Option<Shared<'g, N>> {
    let cell = &node.tower()[level];
    let mut attempts = 0u32;
    loop {
        crate::backoff(&mut attempts);
        let succ = cell.load(mode, guard);
        if succ.tag() == MARK {
            return None;
        }
        let won = cell.compare_exchange(mode, succ, succ.with_tag(MARK), guard);
        // `vcas_weaken_mark` is a deliberate mutation for the model-checker regression in
        // crates/analysis/tests/model_structures.rs: a lost mark CAS counts as won, so a
        // concurrent insert or unlink at `node`'s cell can be silently undone (stock
        // builds never set the cfg).
        if won || cfg!(vcas_weaken_mark) {
            return Some(succ);
        }
    }
}

/// Inserts `key` into the list at `head`; returns `false` if already present.
pub(crate) fn insert<M: Mode>(mode: &M, head: &NextCell<M>, key: Key, value: Value) -> bool {
    let (guard, head) = (pin(), std::slice::from_ref(head));
    let mut attempts = 0u32;
    loop {
        crate::backoff(&mut attempts);
        let Ok((pred, curr, found)) = search(mode, head, 0, key, &guard) else { continue };
        if found.is_some_and(|node| node.key == key) {
            return false;
        }
        // `curr` may have been unlinked and retired since `search` read it.
        let Some(next) = mode.cell(curr) else { continue };
        let node = Node { key, value, next, refs: AtomicU64::new(1) };
        if publish(mode, &pred[0], curr, node, &guard).is_some() {
            if let Some(camera) = mode.camera() {
                camera.reclaim_tick(&guard);
            }
            return true;
        }
    }
}

/// Removes `key` from the list at `head`; returns `false` if not present.
pub(crate) fn remove<M: Mode>(mode: &M, head: &NextCell<M>, key: Key) -> bool {
    let (guard, head) = (pin(), std::slice::from_ref(head));
    let (pred, curr, found) = loop {
        if let Ok(at) = search(mode, head, 0, key, &guard) {
            break at;
        }
    };
    let Some(node) = found.filter(|node| node.key == key) else { return false };
    let Some(succ) = mark(mode, node, 0, &guard) else { return false };
    // Physical unlink (best effort; search() will finish it otherwise).
    if pred[0].compare_exchange(mode, curr, succ.with_tag(0), &guard) && !M::VERSIONED {
        // SAFETY: we marked `curr` and won the unlink CAS, so this thread is its unique
        // retirer; readers that still see it are pinned.
        unsafe { guard.defer_destroy(curr) };
    }
    if let Some(camera) = mode.camera() {
        camera.reclaim_tick(&guard);
    }
    true
}

/// The value stored with `key` in the list at `head`, if present.
pub(crate) fn get<M: Mode>(mode: &M, head: &NextCell<M>, key: Key) -> Option<Value> {
    cursor(mode, head, None, &pin(), key, key).next().map(|(_, v)| v)
}

/// The one ordered cursor: the live pairs with `lo <= key <= hi` on the level-0 list from
/// `start` as of `handle` (the current state when `None`), read under `guard`. Views use
/// it, the hash map, whose buckets all share one camera, reads every bucket at one handle
/// under one guard, and the skip list starts it at the level-0 cell its descent reached.
/// From a list's head, positioning at `lo` is `O(position)`, but early-stopping consumers
/// (`get`, `find_if`, `successors`) never touch the tail.
pub(crate) fn cursor<'g, M: Mode, N: ListNode<M>>(
    mode: &'g M,
    start: &NextCell<M, N>,
    handle: Option<SnapshotHandle>,
    guard: &'g Guard,
    lo: Key,
    hi: Key,
) -> impl Iterator<Item = (Key, Value)> + 'g {
    walk(mode, start, handle, guard, hi)
        .filter(move |&(node, marked)| !marked && node.key() >= lo)
        .map(|(node, _)| (node.key(), node.value()))
}

/// The nodes of the level-0 list from `start` as of `handle`, in key order up to the
/// first key above `hi`, each with whether it was marked (deleted) at `handle`. Marked
/// nodes are included: their cells hold versions too. One pointer chase per node, and no
/// node is read before the one ahead of it is taken.
fn walk<'g, M: Mode, N: ListNode<M>>(
    mode: &'g M,
    start: &NextCell<M, N>,
    handle: Option<SnapshotHandle>,
    guard: &'g Guard,
    hi: Key,
) -> impl Iterator<Item = (&'g N, bool)> + 'g {
    let mut curr = start.load_at(mode, handle, guard).with_tag(0);
    std::iter::from_fn(move || {
        // SAFETY: `curr` was read from a cell (or version) under `guard`, whose pin — and
        // the snapshot pin, when historical — outlives the walk. Key order: every node
        // after one above `hi` (dead ones included) is larger.
        let node = unsafe { curr.as_ref() }.filter(|node| node.key() <= hi)?;
        let next = node.tower()[0].load_at(mode, handle, guard);
        curr = next.with_tag(0);
        Some((node, next.tag() == MARK))
    })
}

/// Reports segment `segment` of a cell visit: the head cells `head`, then each node of the
/// *physical* level-0 list from `head[0]` (marked nodes included — their history is what
/// truncation releases) in key order, its whole tower at once. `false` when the sweep
/// stopped.
pub(crate) fn visit_segment<M: Mode, N: ListNode<M>>(
    mode: &M,
    segment: usize,
    head: &[NextCell<M, N>],
    sweep: &mut Sweep<'_>,
    guard: &Guard,
) -> bool {
    sweep.node(segment, None, mode, head, guard)
        && walk(mode, &head[0], None, guard, Key::MAX)
            .all(|(node, _)| sweep.node(segment, Some(node.key()), mode, node.tower(), guard))
}

/// Tears down a dropped structure's head cells. A plain structure (its nodes on one list
/// each) frees the nodes they still reach; its unlinked nodes were retired to EBR at their
/// unlink CAS. A versioned one destroys the head cells, which releases the references
/// their versions hold, and reclamation cascades through exactly the nodes that thereby
/// become unreferenced (deferred through EBR; `vcas_ebr::drain` at a quiescent point
/// settles the counters).
pub(crate) fn destroy<M: Mode, N: ListNode<M>>(
    mode: &M,
    heads: impl IntoIterator<Item = NextCell<M, N>>,
) {
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
            curr = node.tower()[0].load(mode, &guard).with_tag(0);
        }
    }
}

// ----- the one-bucket case -----------------------------------------------------------------

/// Harris's sorted linked list (see module docs), `VcasList` unless `M` is [`Plain`].
pub struct HarrisList<M: Mode = Versioned> {
    /// Taken by `Drop`, which destroys it with the mode's camera.
    head: ManuallyDrop<NextCell<M>>,
    mode: M,
    /// Where the next bounded collection pass resumes ([`Collectible`]).
    sweep: SweepCursor,
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
        HarrisList { head, mode, sweep: SweepCursor::default() }
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

/// One segment: the head cell, then the physical list (`visit_segment`).
impl<M: Mode> Collectible for HarrisList<M> {
    fn visit_cells(&self, op: CellOp, budget: usize, resume: bool, guard: &Guard) -> Visit {
        let mut sweep = self.sweep.visit(op, budget, resume);
        visit_segment(&self.mode, 0, std::slice::from_ref(&*self.head), &mut sweep, guard);
        sweep.finish()
    }
}

/// A snapshot view of a [`HarrisList`]: every query on one view observes the same
/// timestamp (see [`HarrisList::view`] / [`HarrisList::view_at`]). Holds the snapshot pin
/// (when pinned) and one EBR guard for its whole lifetime.
pub struct HarrisListView<'a, M: Mode = Versioned> {
    list: &'a HarrisList<M>,
    /// Keeps the snapshot registered with the camera so version-list truncation cannot
    /// reclaim versions this view may read (`None`: the current state, in plain mode).
    snapshot: Option<PinnedSnapshot>,
    guard: Guard,
}

impl<'a, M: Mode> HarrisListView<'a, M> {
    fn new(list: &'a HarrisList<M>, snapshot: Option<PinnedSnapshot>) -> HarrisListView<'a, M> {
        HarrisListView { list, snapshot, guard: pin() }
    }

    /// The snapshot the view reads at (`None`: the current state, in plain mode).
    fn handle(&self) -> Option<SnapshotHandle> {
        self.snapshot.as_ref().map(PinnedSnapshot::handle)
    }

    fn cursor(&self, lo: Key, hi: Key) -> impl Iterator<Item = (Key, Value)> + '_ {
        cursor(&self.list.mode, &self.list.head, self.handle(), &self.guard, lo, hi)
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
        self.handle()
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

impl<M: Mode> SnapshotSource for HarrisList<M> {
    fn camera(&self) -> Option<&Arc<Camera>> {
        self.mode.camera()
    }
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
