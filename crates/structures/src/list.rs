//! Harris's lock-free sorted linked list (§4 "Sorted Linked List"), generic over the
//! pointer-cell [`Mode`]: `HarrisList<Plain>` ([`HarrisList::new_plain`]) is the original
//! list, `HarrisList<Versioned>` (the default, [`HarrisList::new_versioned`]) the
//! snapshot-capable `VcasList`.
//!
//! The mutable state of the list is the `next` pointer of each node, which also carries the
//! deletion mark in its low tag bit; deletes are linearized when the mark is set. Versioning
//! exactly those pointers therefore captures the full abstract state, and a query that takes
//! a snapshot and walks the snapshotted list (skipping marked nodes) is an atomic multi-point
//! query: range queries, multi-searches, i-th element, and full scans (Table 1 rows for the
//! Harris linked list).

use std::sync::Arc;
use vcas_core::sync::{AtomicU64, Ordering};

use vcas_core::reclaim::{CollectStats, Collectible, VersionStats};
use vcas_core::{
    release_node_ref, Camera, CameraAttached, Managed, Mode, PinnedSnapshot, Plain, PointerCell,
    RetentionError, SnapshotHandle, VersionReferenced, Versioned,
};
use vcas_ebr::{pin, Atomic, Guard, Owned, Shared};

use crate::traits::{AtomicRangeMap, ConcurrentMap, Key, Value};
use crate::view::{MapSnapshotView, SnapshotSource};

/// Deletion mark stored in the low bit of a node's next pointer.
const MARK: usize = 1;

struct Node<M: Mode> {
    key: Key,
    value: Value,
    next: NextCell<M>,
    /// Version-held reference count (versioned mode): one reference per retained version
    /// pointing at this node, plus the creator reference until publication. Unused (and
    /// left at 1) in plain mode, where unlinked nodes go straight to EBR.
    refs: AtomicU64,
}

/// A next cell: one word in plain mode, a managed (reference-counting) versioned cell in
/// versioned mode.
type NextCell<M> = <M as Mode>::Cell<Node<M>, Managed<Node<M>>>;

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
    fn version_refs(&self) -> &AtomicU64 {
        &self.refs
    }
}

/// Harris's sorted linked list (see module docs), `VcasList` unless `M` is [`Plain`].
pub struct HarrisList<M: Mode = Versioned> {
    /// Sentinel head node; its key is never examined.
    head: Atomic<Node<M>>,
    mode: M,
    /// Resume point for incremental version-list collection ([`Collectible`]), stored as
    /// *resume key + 1* so that the value 0 unambiguously means "fresh sweep, include the
    /// head sentinel" even though 0 is a legal user key.
    reclaim_cursor: AtomicU64,
    label: &'static str,
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
    /// An empty list of mode `mode` (also how [`crate::VcasHashMap`] builds its buckets).
    pub(crate) fn with_mode(mode: M) -> HarrisList<M> {
        let head = Node::new(0, 0, mode.cell(Shared::null()).expect("null is live"));
        if let Some(camera) = mode.camera() {
            // The sentinel keeps its creator reference (it is never held by a version
            // node) and is freed directly by the destructor.
            camera.note_nodes_created(1);
        }
        let label = if M::VERSIONED { "VcasList" } else { "HarrisList" };
        HarrisList { head: Atomic::new(head), mode, reclaim_cursor: AtomicU64::new(0), label }
    }

    /// The camera associated with a versioned list.
    pub fn camera(&self) -> Option<&Arc<Camera>> {
        self.mode.camera()
    }

    /// Amortized reclamation hook, called after each successful update (a no-op unless an
    /// [`vcas_core::ReclaimPolicy::Amortized`] policy is installed on the camera). Covers
    /// the hash map too: its buckets are `HarrisList`s sharing the table's camera.
    #[inline]
    fn after_update(&self, guard: &Guard) {
        if let Some(camera) = self.mode.camera() {
            camera.reclaim_tick(guard);
        }
    }

    /// Finds the first unmarked node with key `>= key` and its predecessor, unlinking any
    /// marked nodes encountered on the way (Harris/Michael search).
    fn search<'g>(&self, key: Key, guard: &'g Guard) -> (Shared<'g, Node<M>>, Shared<'g, Node<M>>) {
        'retry: loop {
            let head = self.head.load(Ordering::SeqCst, guard);
            let mut pred = head;
            // SAFETY: the head sentinel is allocated in the constructor and never null;
            // `guard` pins the epoch for the whole traversal.
            let mut curr = unsafe { pred.deref() }.next.load(guard).with_tag(0);
            loop {
                if curr.is_null() {
                    return (pred, curr);
                }
                // SAFETY: `curr` is non-null (checked above) and was read from a next
                // cell under `guard`, so it cannot be freed while we hold the pin.
                let curr_ref = unsafe { curr.deref() };
                let succ = curr_ref.next.load(guard);
                if succ.tag() == MARK {
                    // `curr` is logically deleted: splice it out before continuing.
                    // SAFETY: `pred` is the head sentinel or a node previously
                    // dereferenced in this traversal; both outlive `guard`'s pin.
                    let pred_ref = unsafe { pred.deref() };
                    if !pred_ref.next.compare_exchange(curr, succ.with_tag(0), guard) {
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
                        return (pred, curr);
                    }
                    pred = curr;
                    curr = succ.with_tag(0);
                }
            }
        }
    }

    /// Inserts `key`; returns `false` if already present.
    pub fn insert(&self, key: Key, value: Value) -> bool {
        let guard = pin();
        let mut attempts = 0u32;
        loop {
            crate::backoff(&mut attempts);
            let (pred, curr) = self.search(key, &guard);
            // SAFETY: non-null is checked first; `curr` came from `search` under `guard`.
            if !curr.is_null() && unsafe { curr.deref() }.key == key {
                return false;
            }
            // `curr` may have been unlinked and retired since `search` read it.
            let Some(next) = self.mode.cell(curr) else { continue };
            let new = Owned::new(Node::new(key, value, next)).into_shared(&guard);
            if let Some(camera) = self.mode.camera() {
                camera.note_nodes_created(1);
            }
            // SAFETY: `pred` was returned by `search` under `guard` (head sentinel or a
            // live-at-read node); the pin keeps it allocated.
            let pred_ref = unsafe { pred.deref() };
            if pred_ref.next.compare_exchange(curr, new, &guard) {
                if let Some(camera) = self.mode.camera() {
                    // Published: `pred`'s new head version holds a counted reference, so
                    // the creator reference is handed off (see [`VersionReferenced`]).
                    release_node_ref(new, camera, &guard);
                }
                self.after_update(&guard);
                return true;
            }
            // Not published: free and retry. (In versioned mode the node's cell still
            // holds a counted reference to `curr`; dropping the node releases it.)
            if let Some(camera) = self.mode.camera() {
                camera.note_nodes_dropped(1);
            }
            // SAFETY: the publish CAS failed, so `new` was never shared — this thread
            // still exclusively owns the allocation.
            unsafe { drop(new.into_owned()) };
        }
    }

    /// Removes `key`; returns `false` if not present.
    pub fn remove(&self, key: Key) -> bool {
        let guard = pin();
        let mut attempts = 0u32;
        loop {
            crate::backoff(&mut attempts);
            let (pred, curr) = self.search(key, &guard);
            // SAFETY: non-null is checked first; `curr` came from `search` under `guard`.
            if curr.is_null() || unsafe { curr.deref() }.key != key {
                return false;
            }
            // SAFETY: as above — non-null, and the pin keeps the node allocated.
            let curr_ref = unsafe { curr.deref() };
            let succ = curr_ref.next.load(&guard);
            if succ.tag() == MARK {
                continue;
            }
            // Logical delete: set the mark bit (the operation's linearization point).
            #[cfg(not(vcas_weaken_mark))]
            let mark_won = curr_ref.next.compare_exchange(succ, succ.with_tag(MARK), &guard);
            // Deliberate mutation for the model-checker regression in
            // crates/analysis/tests/model_structures.rs: treat a lost mark CAS as won, so
            // a concurrent insert into `curr.next` can be silently dropped (stock builds
            // never set the cfg).
            #[cfg(vcas_weaken_mark)]
            let mark_won = {
                let _ = curr_ref.next.compare_exchange(succ, succ.with_tag(MARK), &guard);
                true
            };
            if !mark_won {
                continue;
            }
            // Physical unlink (best effort; search() will finish it otherwise).
            // SAFETY: `pred` was returned by `search` under `guard`; the pin keeps it
            // allocated.
            let pred_ref = unsafe { pred.deref() };
            if pred_ref.next.compare_exchange(curr, succ.with_tag(0), &guard) && !M::VERSIONED {
                // SAFETY: we marked `curr` and won the unlink CAS, so this thread is its
                // unique retirer; readers that still see it are pinned.
                unsafe { guard.defer_destroy(curr) };
            }
            self.after_update(&guard);
            return true;
        }
    }

    /// Does the list contain `key`?
    pub fn contains(&self, key: Key) -> bool {
        self.get(key).is_some()
    }

    /// Returns the value stored with `key`, if present.
    pub fn get(&self, key: Key) -> Option<Value> {
        let guard = pin();
        let head = self.head.load(Ordering::SeqCst, &guard);
        // SAFETY: the head sentinel is never null; `guard` pins the epoch.
        let mut curr = unsafe { head.deref() }.next.load(&guard).with_tag(0);
        // SAFETY: `curr` was read (tag stripped) from a next cell under `guard`; a
        // reachable-at-read node is not freed while the pin is held.
        while let Some(node) = unsafe { curr.as_ref() } {
            let next = node.next.load(&guard);
            if node.key >= key {
                return (node.key == key && next.tag() != MARK).then_some(node.value);
            }
            curr = next.with_tag(0);
        }
        None
    }

    // ----- snapshot queries --------------------------------------------------------------
    //
    // Every multi-point query runs against a [`HarrisListView`]: one snapshot, one EBR
    // pin, arbitrarily many reads. The methods below are batch-of-one conveniences.

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

    /// Walks the list as of `at` (the current state when `None`), calling `f` for every
    /// unmarked (live) node, stopping when `f` returns `false`.
    fn walk(
        &self,
        at: Option<SnapshotHandle>,
        guard: &Guard,
        mut f: impl FnMut(Key, Value) -> bool,
    ) {
        let head = self.head.load(Ordering::SeqCst, guard);
        // SAFETY: the head sentinel is never null; `guard` pins the epoch.
        let mut curr = unsafe { head.deref() }.next.load_at(at, guard).with_tag(0);
        // SAFETY: `curr` came from a (possibly historical) next version read under
        // `guard`; snapshot pins keep the versions' nodes retained, and the EBR pin
        // keeps retired ones allocated.
        while let Some(node) = unsafe { curr.as_ref() } {
            let next = node.next.load_at(at, guard);
            if next.tag() != MARK && !f(node.key, node.value) {
                return;
            }
            curr = next.with_tag(0);
        }
    }

    /// Atomic range query: every `(key, value)` with `lo <= key <= hi`.
    pub fn range_query(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        self.view().range(lo, hi)
    }

    /// Atomic multi-search: looks up each key in `keys` against one snapshot.
    pub fn multi_search(&self, keys: &[Key]) -> Vec<Option<Value>> {
        self.view().multi_get(keys)
    }

    /// Atomic i-th element query (0-based, in key order).
    pub fn ith(&self, i: usize) -> Option<(Key, Value)> {
        self.view().ith(i)
    }

    /// Atomic successors query: the first `count` keys greater than `key`.
    pub fn successors(&self, key: Key, count: usize) -> Vec<(Key, Value)> {
        self.view().successors(key, count)
    }

    // ----- bucket support (used by `crate::hashmap::VcasHashMap`) ------------------------
    //
    // A hash map's buckets all share one camera, so a cross-bucket query takes a *single*
    // snapshot and reads every bucket at that handle; per-bucket views would instead give
    // each bucket its own timestamp. `handle == None` reads the current state (the
    // plain/non-atomic mode). The caller supplies the EBR guard so a whole-table query
    // pins once, not once per bucket.

    /// Collects every live `(key, value)` pair as of `handle` (or of the current state when
    /// `handle` is `None`), in key order.
    pub(crate) fn collect_at(
        &self,
        handle: Option<SnapshotHandle>,
        guard: &Guard,
    ) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        self.walk(handle, guard, |k, v| {
            out.push((k, v));
            true
        });
        out
    }

    /// Looks up `key` as of `handle` (or of the current state when `handle` is `None`).
    pub(crate) fn get_at(
        &self,
        handle: Option<SnapshotHandle>,
        key: Key,
        guard: &Guard,
    ) -> Option<Value> {
        let mut out = None;
        self.walk(handle, guard, |k, v| {
            if k >= key {
                if k == key {
                    out = Some(v);
                }
                return false;
            }
            true
        });
        out
    }

    /// Counts the live keys as of `handle` without materializing them.
    pub(crate) fn count_at(&self, handle: Option<SnapshotHandle>, guard: &Guard) -> usize {
        let mut n = 0usize;
        self.walk(handle, guard, |_, _| {
            n += 1;
            true
        });
        n
    }

    /// Atomic full scan of the list.
    pub fn scan(&self) -> Vec<(Key, Value)> {
        self.view().scan()
    }

    /// Number of live keys (counted on one snapshot in versioned mode).
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.view().is_empty()
    }

    // ----- incremental version-list collection -------------------------------------------

    /// Bounded, resumable truncation of this list's cells: walks the *physical* list
    /// (marked nodes included — their cells hold versions too) from the resume cursor,
    /// truncating up to `budget` cells under `min_active`. Shared between the standalone
    /// [`Collectible`] impl and [`crate::VcasHashMap`], whose buckets drive it round-robin.
    pub(crate) fn collect_cells_bounded(
        &self,
        min_active: u64,
        budget: usize,
        guard: &Guard,
    ) -> CollectStats {
        let mut stats = CollectStats::default();
        if !M::VERSIONED {
            stats.completed_cycle = true;
            return stats;
        }
        // Cursor encoding: 0 = fresh sweep (head sentinel first); k+1 = resume at the
        // first node with key >= k (inclusive, so the node the previous pass stalled on —
        // and never collected — is picked up now, guaranteeing forward progress).
        // ORDERING: progress-heuristic — the cursor only decides where the next
        // bounded pass resumes; truncation synchronizes inside the cells.
        let cursor = self.reclaim_cursor.load(Ordering::Relaxed);
        let budget = budget.max(1);
        let head = self.head.load(Ordering::SeqCst, guard);
        // SAFETY: the head sentinel is never null; `guard` pins the epoch.
        let head_ref = unsafe { head.deref() };
        if cursor == 0 {
            // The head sentinel's next cell is a versioned cell like any other.
            stats.versions_retired += head_ref.next.collect_before(min_active, guard);
            stats.cells_visited += 1;
        }
        let resume_min = cursor.saturating_sub(1);
        let mut curr = head_ref.next.load(guard).with_tag(0);
        // SAFETY: `curr` was read (tag stripped) from a next cell under `guard`.
        while let Some(node) = unsafe { curr.as_ref() } {
            let next = node.next.load(guard);
            if node.key >= resume_min {
                // Stall only on keys that can be re-encoded unambiguously (key + 1 must
                // not wrap): a u64::MAX node is simply collected past the budget instead,
                // overshooting by at most the few such nodes.
                if stats.cells_visited >= budget && node.key < u64::MAX {
                    // ORDERING: progress-heuristic — as above.
                    self.reclaim_cursor.store(node.key + 1, Ordering::Relaxed);
                    return stats;
                }
                stats.versions_retired += node.next.collect_before(min_active, guard);
                stats.cells_visited += 1;
            }
            curr = next.with_tag(0);
        }
        // ORDERING: progress-heuristic — as above.
        self.reclaim_cursor.store(0, Ordering::Relaxed);
        stats.completed_cycle = true;
        stats
    }

    /// Version-list statistics over every cell in the physical list (shared with the hash
    /// map's per-bucket aggregation).
    pub(crate) fn version_stats_walk(&self, guard: &Guard) -> VersionStats {
        let mut stats = VersionStats::default();
        let mut curr = self.head.load(Ordering::SeqCst, guard);
        // SAFETY: the walk only follows next cells read under `guard` starting at the
        // never-null sentinel; the pin keeps every visited node allocated.
        while let Some(node) = unsafe { curr.with_tag(0).as_ref() } {
            stats.record_cell(node.next.version_count(guard));
            curr = node.next.load(guard).with_tag(0);
        }
        stats
    }
}

/// Incremental version-list collection for a standalone list. (Bucket lists inside a
/// [`crate::VcasHashMap`] are not registered individually — the map registers itself and
/// spreads the budget across buckets.)
impl<M: Mode> Collectible for HarrisList<M> {
    fn collect_bounded(&self, min_active: u64, budget: usize, guard: &Guard) -> CollectStats {
        self.collect_cells_bounded(min_active, budget, guard)
    }

    fn version_stats(&self, guard: &Guard) -> VersionStats {
        self.version_stats_walk(guard)
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

    fn walk(&self, f: impl FnMut(Key, Value) -> bool) {
        self.list.walk(self.handle, &self.guard, f);
    }

    /// The value associated with `key` in this view.
    pub fn get(&self, key: Key) -> Option<Value> {
        self.list.get_at(self.handle, key, &self.guard)
    }

    /// Every `(key, value)` pair with `lo <= key <= hi`, ascending.
    pub fn range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        self.walk(|k, v| {
            if k > hi {
                return false;
            }
            if k >= lo {
                out.push((k, v));
            }
            true
        });
        out
    }

    /// Looks up every key in `keys` against this view, in one pass over the list.
    pub fn multi_get(&self, keys: &[Key]) -> Vec<Option<Value>> {
        let mut sorted: Vec<Key> = keys.to_vec();
        sorted.sort_unstable();
        let mut found = std::collections::HashMap::new();
        let max = sorted.last().copied().unwrap_or(0);
        self.walk(|k, v| {
            if sorted.binary_search(&k).is_ok() {
                found.insert(k, v);
            }
            k <= max
        });
        keys.iter().map(|k| found.get(k).copied()).collect()
    }

    /// The i-th element of this view (0-based, in key order).
    pub fn ith(&self, i: usize) -> Option<(Key, Value)> {
        let mut seen = 0usize;
        let mut out = None;
        self.walk(|k, v| {
            if seen == i {
                out = Some((k, v));
                return false;
            }
            seen += 1;
            true
        });
        out
    }

    /// The first `count` pairs with key strictly greater than `key`, ascending.
    pub fn successors(&self, key: Key, count: usize) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        self.walk(|k, v| {
            if k > key {
                out.push((k, v));
            }
            out.len() < count
        });
        out
    }

    /// The first pair in `[lo, hi)` (key order) whose key satisfies `pred`.
    pub fn find_if(&self, lo: Key, hi: Key, pred: &dyn Fn(Key) -> bool) -> Option<(Key, Value)> {
        if lo >= hi {
            return None;
        }
        let mut out = None;
        self.walk(|k, v| {
            if k >= hi {
                return false;
            }
            if k >= lo && pred(k) {
                out = Some((k, v));
                return false;
            }
            true
        });
        out
    }

    /// Full scan of the view, ascending.
    pub fn scan(&self) -> Vec<(Key, Value)> {
        self.list.collect_at(self.handle, &self.guard)
    }

    /// Number of keys in this view (counting walk; nothing is materialized).
    pub fn len(&self) -> usize {
        self.list.count_at(self.handle, &self.guard)
    }

    /// Does this view contain no keys?
    pub fn is_empty(&self) -> bool {
        let mut any = false;
        self.walk(|_, _| {
            any = true;
            false
        });
        !any
    }

    /// The snapshot timestamp this view reads at (`None` for a current-state view).
    pub fn timestamp(&self) -> Option<SnapshotHandle> {
        self.handle
    }
}

/// Streaming in-order iterator over a [`HarrisListView`]: a cursor on the view's (frozen
/// or current) list, one pointer chase per yielded pair. A list has no index, so
/// positioning at `lo` is `O(position)` — but early-stopping consumers (`find_if`,
/// `successors().take(c)`) never touch the tail, unlike the collect-everything walk.
struct ListRangeIter<'v, 'a, M: Mode> {
    view: &'v HarrisListView<'a, M>,
    /// The next node to yield: always live in the view with key in range, or null.
    curr: Shared<'v, Node<M>>,
    hi: Key,
}

impl<'v, 'a, M: Mode> ListRangeIter<'v, 'a, M> {
    fn new(view: &'v HarrisListView<'a, M>, lo: Key, hi: Key) -> ListRangeIter<'v, 'a, M> {
        let head = view.list.head.load(Ordering::SeqCst, &view.guard);
        // SAFETY: the head sentinel is never null; the view's guard pins the epoch for
        // the iterator's whole lifetime.
        let first = unsafe { head.deref() }.next.load_at(view.handle, &view.guard).with_tag(0);
        let mut it = ListRangeIter { view, curr: first, hi };
        it.skip_to_live_geq(lo);
        it
    }

    /// Advances `curr` to the first node at-or-after it that is live in the view (next
    /// pointer unmarked) with key `>= lo`.
    fn skip_to_live_geq(&mut self, lo: Key) {
        let view = self.view;
        // SAFETY: `curr` was read from a next cell (or version) under the view's guard,
        // whose pin — and snapshot pin, when historical — outlives the iterator.
        while let Some(node) = unsafe { self.curr.as_ref() } {
            let next = node.next.load_at(view.handle, &view.guard);
            if next.tag() != MARK && node.key >= lo {
                return;
            }
            self.curr = next.with_tag(0);
        }
    }
}

impl<M: Mode> Iterator for ListRangeIter<'_, '_, M> {
    type Item = (Key, Value);

    fn next(&mut self) -> Option<(Key, Value)> {
        let view = self.view;
        // SAFETY: as in `skip_to_live_geq` — the view's guard outlives the iterator.
        let node = unsafe { self.curr.as_ref() }?;
        if node.key > self.hi {
            self.curr = Shared::null();
            return None;
        }
        let item = (node.key, node.value);
        self.curr = node.next.load_at(view.handle, &view.guard).with_tag(0);
        self.skip_to_live_geq(0);
        Some(item)
    }
}

impl<M: Mode> MapSnapshotView for HarrisListView<'_, M> {
    fn get(&self, key: Key) -> Option<Value> {
        HarrisListView::get(self, key)
    }
    fn multi_get(&self, keys: &[Key]) -> Vec<Option<Value>> {
        HarrisListView::multi_get(self, keys)
    }
    fn iter(&self) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
        Box::new(ListRangeIter::new(self, 0, Key::MAX))
    }
    fn len(&self) -> usize {
        HarrisListView::len(self)
    }
    fn is_empty(&self) -> bool {
        HarrisListView::is_empty(self)
    }
    fn range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        HarrisListView::range(self, lo, hi)
    }
    fn range_iter(&self, lo: Key, hi: Key) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
        Box::new(ListRangeIter::new(self, lo, hi))
    }
    fn successors(&self, key: Key, count: usize) -> Vec<(Key, Value)> {
        HarrisListView::successors(self, key, count)
    }
    fn successors_iter(&self, key: Key) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
        if key == Key::MAX {
            return Box::new(std::iter::empty());
        }
        Box::new(ListRangeIter::new(self, key + 1, Key::MAX))
    }
    fn find_if(&self, lo: Key, hi: Key, pred: &dyn Fn(Key) -> bool) -> Option<(Key, Value)> {
        HarrisListView::find_if(self, lo, hi, pred)
    }
    fn timestamp(&self) -> Option<SnapshotHandle> {
        HarrisListView::timestamp(self)
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
        let guard = pin();
        let head = self.head.load(Ordering::SeqCst, &guard);
        if let Some(camera) = self.mode.camera() {
            // Versioned: every non-sentinel node is owned by the version-reference
            // protocol — freeing the sentinel drops its cell, which releases the
            // references it held, and reclamation cascades through exactly the nodes that
            // thereby become unreferenced (deferred through EBR; `vcas_ebr::drain` at a
            // quiescent point settles the counters). Only the sentinel, which no version
            // node ever pointed at, is freed — and counted — here.
            camera.note_nodes_dropped(1);
            // SAFETY: `&mut self` in Drop is exclusive; the sentinel was allocated
            // by `Owned::new`/`Atomic::new` in the constructor, is never held by any
            // version node, and is freed exactly here.
            unsafe { drop(Box::from_raw(head.with_tag(0).as_raw())) };
        } else {
            // Plain: unlinked nodes were retired to EBR when unlinked; free the chain the
            // current list still reaches, sentinel first.
            let mut curr = head;
            while !curr.is_null() {
                // SAFETY: `&mut self` in Drop is exclusive, so every node on the chain is
                // still allocated (unlinked ones were retired to EBR, not freed), was
                // allocated via `Owned`/`Box`, and appears on the chain exactly once.
                let node = unsafe { Box::from_raw(curr.with_tag(0).as_raw()) };
                curr = node.next.load(&guard);
            }
        }
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
        self.label
    }
}

/// All multi-point queries come from the trait's view-based defaults.
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

    /// Layout budget: key, value, counter and one next cell — a three-word managed cell
    /// when versioned, one word when plain.
    #[test]
    fn node_layout_stays_within_budget() {
        let versioned = std::mem::size_of::<Node<Versioned>>();
        assert!(versioned <= 48, "Node<Versioned> is {versioned} B");
        let plain = std::mem::size_of::<Node<Plain>>();
        assert!(plain <= 32, "Node<Plain> is {plain} B");
    }

    #[test]
    fn sequential_set_semantics() {
        for_both_modes!(|list| {
            assert!(list.is_empty());
            assert!(list.insert(3, 30));
            assert!(list.insert(1, 10));
            assert!(list.insert(2, 20));
            assert!(!list.insert(2, 99));
            assert_eq!(list.scan(), vec![(1, 10), (2, 20), (3, 30)]);
            assert!(list.remove(2));
            assert!(!list.remove(2));
            assert_eq!(list.get(2), None);
            assert_eq!(list.get(3), Some(30));
            assert_eq!(list.scan(), vec![(1, 10), (3, 30)]);
        });
    }

    #[test]
    fn queries_match_contents() {
        for_both_modes!(|list| {
            for k in (0..60u64).step_by(3) {
                list.insert(k, k * 2);
            }
            assert_eq!(list.range_query(10, 20), vec![(12, 24), (15, 30), (18, 36)]);
            assert_eq!(list.multi_search(&[9, 10, 12]), vec![Some(18), None, Some(24)]);
            assert_eq!(list.ith(0), Some((0, 0)));
            assert_eq!(list.ith(2), Some((6, 12)));
            assert_eq!(list.ith(1000), None);
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
            let scanned: Vec<Key> = list.scan().iter().map(|(k, _)| *k).collect();
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
            let scan: Vec<Key> = list.scan().iter().map(|(k, _)| *k).collect();
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
            let s = list.collect_cells_bounded(min_active, 8, &guard);
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
        assert_eq!(list.len(), 50, "collection must not change the abstract state");
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
            let s = list.collect_cells_bounded(min_active, 1, &guard);
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
                    let keys: Vec<Key> = list.scan().iter().map(|(k, _)| *k).collect();
                    let expected: Vec<Key> = (0..keys.len() as u64).collect();
                    assert_eq!(keys, expected, "atomic scan must observe a gap-free prefix");
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(list.len(), 1500);
    }
}
