//! A lock-free skip list whose tower pointers are vCAS-versioned: the ordered structure
//! the streaming range-scan engine is built on.
//!
//! The point-operation skeleton is the classic lock-free skip list (Fraser / Herlihy &
//! Shavit): every node carries a *tower* of next-pointers, a node is logically deleted by
//! tagging its next-pointers with a mark bit (top-down, the **level-0 mark is the
//! linearization point**), and traversals physically snip marked nodes as they pass. The
//! vCAS twist is the paper's §4 recipe: every tower cell is a versioned [`PtrCell`] on one
//! shared [`Camera`], so the whole structure is snapshot-able in constant time and a
//! pinned view answers arbitrarily many ordered queries — `range`, `successors`,
//! `find_if`, full scans — **in `O(log n + k)`** by descending the tower inside the
//! snapshot instead of materializing and sorting the whole set.
//!
//! Reclamation follows PR 5's node-conservation protocol exactly (see
//! [`VersionReferenced`]): tower cells are created with
//! [`PtrCell::fresh`] (the initial successor held directly) and the [`Managed`] hook, so every retained version holds a counted
//! reference to the node it points at; unlink CASes never free nodes directly — a node is
//! retired when the last version referencing it is truncated. The list registers as a
//! [`Collectible`] with a bounded, resumable level-0 cursor.
//!
//! # Snapshot descent soundness
//!
//! A snapshot traversal reads every cell with `load_snapshot(handle)`. At level 0 this is
//! exact: the pointers at timestamp `ts` form precisely the list as of `ts`, and a node is
//! a member iff its own level-0 cell was unmarked at `ts`. Upper levels are used **only to
//! position** the level-0 walk, and one rule keeps that sound: a node may be adopted as a
//! descent *waypoint* only if it is a member at `ts` (its level-0 cell at `ts` is
//! unmarked). A node that was dead at `ts` may still be walked *through* at an upper level
//! (its frozen pointers are genuine `ts`-time pointers, and keys strictly increase along
//! them, so the walk terminates), but descending *from* it would be wrong: a dead node's
//! frozen next-pointer can skip members inserted between its unlink time and `ts`. Every
//! adopted waypoint is live at `ts`, so its pointers at `ts` are the true successors and
//! the final level-0 walk starts on the real `ts`-list.

use std::sync::Arc;
use vcas_core::sync::{AtomicU64, Ordering};

use vcas_core::reclaim::{CellOp, Collectible, SweepCursor, Visit};
use vcas_core::{
    release_node_ref, Camera, CameraAttached, Managed, Mode, PinnedSnapshot, PtrCell,
    RetentionError, SnapshotHandle, VersionReferenced, Versioned,
};
use vcas_ebr::{pin, Atomic, Guard, Owned, Shared};

use crate::traits::{AtomicRangeMap, ConcurrentMap, Key, SnapshotMap, Value};
use crate::view::{MapSnapshotView, SnapshotSource};

/// Mark bit on a tower cell: the *owning* node is logically deleted at that level.
const MARK: usize = 1;

/// Tallest tower a node may have (head always has this height). 2^20 keys keep the
/// expected search path logarithmic at every size the harness uses.
pub const MAX_HEIGHT: usize = 20;

/// Skip-list node: key, value, and a tower of versioned next-pointers. The tower length
/// is the node's height; a cell at level `lvl` only ever points at nodes whose height
/// exceeds `lvl`.
struct Node {
    key: Key,
    value: Value,
    tower: Vec<TowerCell>,
    /// Version-held reference count: one reference per retained version (in any cell)
    /// pointing at this node, plus the creator reference until publication.
    refs: AtomicU64,
}

/// SAFETY: `refs` is touched only by the version-reference protocol, and the list only
/// republishes pointers obtained from current (head-version) reads under a guard —
/// snapshot reads are never fed back into a CAS. Such a pointer may be retired (counter at
/// zero) by the time it is republished; the managed cell then refuses it, failing the CAS
/// or the tower's cell construction, and the operation searches again.
unsafe impl VersionReferenced for Node {
    const HOLDS_CELLS: bool = true;

    fn version_refs(&self) -> &AtomicU64 {
        &self.refs
    }

    fn destroy(node: Box<Self>, camera: &Arc<Camera>) {
        for cell in node.tower {
            cell.destroy(camera);
        }
    }
}

/// A tower cell: one word, versioned on the list's camera, counting references to the
/// node it points at.
type TowerCell = PtrCell<Node, Managed<Node>>;

/// The vCAS-versioned lock-free skip list (`VcasSkipList` in benchmark rows).
///
/// Unlike [`crate::bst::Nbbst`] and [`crate::list::HarrisList`] there is no plain mode:
/// the skip list exists to exercise the versioned ordered-query path, so every instance
/// is attached to a camera from birth.
pub struct VcasSkipList {
    head: Atomic<Node>,
    /// The camera every tower cell is versioned on, as the mode the cells take.
    mode: Versioned,
    /// Where the next bounded collection pass resumes ([`Collectible`]).
    sweep: SweepCursor,
    /// Counter fed through splitmix64 to draw tower heights (geometric, p = 1/2).
    height_seed: AtomicU64,
}

impl VcasSkipList {
    /// Creates a skip list whose tower cells are versioned CAS objects on `camera`.
    pub fn new_versioned(camera: &Arc<Camera>) -> VcasSkipList {
        let tower = (0..MAX_HEIGHT)
            .map(|_| TowerCell::fresh(Shared::null(), camera).expect("null is live"))
            .collect();
        let head = Node { key: 0, value: 0, tower, refs: AtomicU64::new(1) };
        // The head sentinel keeps its creator reference (no version node ever points at
        // it); the destructor frees — and counts — it directly.
        camera.note_nodes_created(1);
        VcasSkipList {
            head: Atomic::new(head),
            mode: Versioned::new(camera),
            sweep: SweepCursor::default(),
            height_seed: AtomicU64::new(0x5EED_CAFE_F00D_D00D),
        }
    }

    /// Creates a skip list with its own private camera.
    pub fn new_versioned_default() -> VcasSkipList {
        Self::new_versioned(&Camera::new())
    }

    /// The camera every tower cell is versioned on.
    pub fn camera(&self) -> &Arc<Camera> {
        self.mode.camera().expect("a versioned mode has a camera")
    }

    /// Draws a tower height in `1..=MAX_HEIGHT`, geometric with p = 1/2 (splitmix64 over
    /// a shared counter — deterministic across runs, no thread-local RNG).
    fn random_height(&self) -> usize {
        const STEP: u64 = 0x9E37_79B9_7F4A_7C15;
        // ORDERING: id-allocator — only atomicity of the draw matters; heights
        // publish nothing.
        let mut z = self.height_seed.fetch_add(STEP, Ordering::Relaxed).wrapping_add(STEP);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    }

    // ----- search ---------------------------------------------------------------------

    /// The lock-free skip list's `find`: fills `preds[lvl]`/`succs[lvl]` with the last
    /// node before `key` and the first node at-or-after it on every level, snipping
    /// marked nodes along the way (restarting from the head when a snip CAS fails).
    /// Returns `true` iff an unmarked node with `key` was found (it is `succs[0]`).
    ///
    /// Snips never free nodes: the replaced version keeps its counted reference to the
    /// unlinked node until version-list truncation releases it ([`VersionReferenced`]).
    fn find<'g>(
        &self,
        key: Key,
        preds: &mut [Shared<'g, Node>; MAX_HEIGHT],
        succs: &mut [Shared<'g, Node>; MAX_HEIGHT],
        guard: &'g Guard,
    ) -> bool {
        'retry: loop {
            let head = self.head.load(Ordering::SeqCst, guard);
            let mut pred = head;
            for lvl in (0..MAX_HEIGHT).rev() {
                // SAFETY: `pred` is the never-null head or a node this traversal read
                // under `guard`; the pin keeps it allocated.
                let pred_ref = unsafe { pred.deref() };
                let mut curr = pred_ref.tower[lvl].load(self.camera(), guard).with_tag(0);
                // SAFETY: `curr` was read (tag stripped) from a tower cell under `guard`.
                while let Some(c) = unsafe { curr.as_ref() } {
                    let succ = c.tower[lvl].load(self.camera(), guard);
                    if succ.tag() == MARK {
                        // `curr` is deleted at this level: splice it out. The expected
                        // value has tag 0, so this can never re-link after a node that
                        // was itself marked meanwhile — the CAS just fails and we retry.
                        // SAFETY: `pred` is still pinned by `guard`, as above.
                        if !unsafe { pred.deref() }.tower[lvl].compare_exchange(
                            self.camera(),
                            curr,
                            succ.with_tag(0),
                            guard,
                        ) {
                            continue 'retry;
                        }
                        curr = succ.with_tag(0);
                    } else if c.key < key {
                        pred = curr;
                        curr = succ;
                    } else {
                        break;
                    }
                }
                preds[lvl] = pred;
                succs[lvl] = curr;
            }
            // SAFETY: `succs[0]` is null or a node read under `guard` in this traversal.
            let found = unsafe { succs[0].as_ref() }.is_some_and(|c| c.key == key);
            return found;
        }
    }

    // ----- point operations ------------------------------------------------------------

    /// Inserts `key`; returns `false` if already present.
    pub fn insert(&self, key: Key, value: Value) -> bool {
        let guard = pin();
        let mut preds = [Shared::null(); MAX_HEIGHT];
        let mut succs = [Shared::null(); MAX_HEIGHT];
        let mut attempts = 0u32;
        loop {
            crate::backoff(&mut attempts);
            if self.find(key, &mut preds, &mut succs, &guard) {
                return false;
            }
            let height = self.random_height();
            // A successor found by `find` may have been unlinked and retired since; then
            // the tower cannot reference it (the cells built so far are destroyed,
            // releasing their references) and the search starts over.
            let tower: Vec<TowerCell> = succs[..height]
                .iter()
                .map_while(|&succ| TowerCell::fresh(succ, self.camera()))
                .collect();
            if tower.len() < height {
                for cell in tower {
                    cell.destroy(self.camera());
                }
                continue;
            }
            let node =
                Owned::new(Node { key, value, tower, refs: AtomicU64::new(1) }).into_shared(&guard);
            self.camera().note_nodes_created(1);
            // The level-0 CAS is the linearization point of the insert.
            // SAFETY: `preds[0]` came from `find` under `guard`, which keeps it allocated.
            if !unsafe { preds[0].deref() }.tower[0].compare_exchange(
                self.camera(),
                succs[0],
                node,
                &guard,
            ) {
                // Never published: we still own the node. Destroying it destroys its
                // tower cells, releasing the counted references they held on `succs[..]`.
                self.camera().note_nodes_dropped(1);
                // SAFETY: the publish CAS failed, so `node` was never shared and this
                // thread still owns the allocation exclusively.
                let node = unsafe { Box::from_raw(node.as_raw()) };
                VersionReferenced::destroy(node, self.camera());
                continue;
            }
            // Published: the predecessor's level-0 version now holds a counted
            // reference, so the creator reference is handed off.
            release_node_ref(node, self.camera(), &guard);
            self.link_upper(node, height, key, &mut preds, &mut succs, &guard);
            self.camera().reclaim_tick(&guard);
            return true;
        }
    }

    /// Links a freshly published node into levels `1..height`. Stops early (harmlessly —
    /// upper links are an optimization, membership lives at level 0) if the node is
    /// removed while we work.
    fn link_upper<'g>(
        &self,
        node: Shared<'g, Node>,
        height: usize,
        key: Key,
        preds: &mut [Shared<'g, Node>; MAX_HEIGHT],
        succs: &mut [Shared<'g, Node>; MAX_HEIGHT],
        guard: &'g Guard,
    ) {
        // SAFETY: the caller published `node` under `guard`; the pin keeps it allocated.
        let node_ref = unsafe { node.deref() };
        for lvl in 1..height {
            loop {
                let own = node_ref.tower[lvl].load(self.camera(), guard);
                if own.tag() == MARK {
                    return; // concurrently removed: stop linking
                }
                let succ = succs[lvl];
                // Point our own cell at the current successor before splicing in, then
                // splice. Either CAS fails when its cell moved, and also when it would
                // reference a retired node (the successor, or our own node once it has
                // been removed and its last version truncated).
                let own_ok = own == succ
                    || node_ref.tower[lvl].compare_exchange(self.camera(), own, succ, guard);
                // SAFETY: `preds[lvl]` came from `find` under `guard`, which keeps it
                // allocated.
                let pred = unsafe { preds[lvl].deref() };
                if own_ok && pred.tower[lvl].compare_exchange(self.camera(), succ, node, guard) {
                    break;
                }
                // Re-locate and retry this level.
                if !self.find(key, preds, succs, guard) || succs[0] != node {
                    return; // removed (or replaced by a new node with our key)
                }
            }
        }
    }

    /// Removes `key`; returns `false` if not present.
    pub fn remove(&self, key: Key) -> bool {
        let guard = pin();
        let mut preds = [Shared::null(); MAX_HEIGHT];
        let mut succs = [Shared::null(); MAX_HEIGHT];
        if !self.find(key, &mut preds, &mut succs, &guard) {
            return false;
        }
        let node = succs[0];
        // SAFETY: `find` returned `true`, so `succs[0]` is a non-null node it read under
        // `guard`.
        let n = unsafe { node.deref() };
        // Mark the upper cells top-down (idempotent; racing removers may help).
        for lvl in (1..n.tower.len()).rev() {
            loop {
                let next = n.tower[lvl].load(self.camera(), &guard);
                if next.tag() == MARK {
                    break;
                }
                n.tower[lvl].compare_exchange(self.camera(), next, next.with_tag(MARK), &guard);
            }
        }
        // The level-0 mark CAS is the linearization point of the remove; exactly one
        // remover wins it. A failed CAS means the cell changed under us (a successor
        // came or went, or a racing mark landed) — reload and retry on the same node;
        // no re-`find` is needed because the node's identity is fixed once we hold it.
        let mut attempts = 0u32;
        loop {
            let next = n.tower[0].load(self.camera(), &guard);
            if next.tag() == MARK {
                return false; // another remover linearized first
            }
            #[cfg(not(vcas_weaken_mark))]
            let mark_won =
                n.tower[0].compare_exchange(self.camera(), next, next.with_tag(MARK), &guard);
            // Deliberate mutation for the model-checker regression in
            // crates/analysis/tests/model_structures.rs: treat a lost level-0 mark CAS as
            // won, so a remove racing an insert's level-0 publish into the same cell can
            // report success without ever marking (stock builds never set the cfg).
            #[cfg(vcas_weaken_mark)]
            let mark_won = {
                let _ =
                    n.tower[0].compare_exchange(self.camera(), next, next.with_tag(MARK), &guard);
                true
            };
            if mark_won {
                // Physically unlink (best effort; any traversal finishes the job).
                self.find(key, &mut preds, &mut succs, &guard);
                self.camera().reclaim_tick(&guard);
                return true;
            }
            crate::backoff(&mut attempts);
        }
    }

    /// Returns the value associated with `key` in the current state (read-only: never
    /// snips, like Herlihy & Shavit's wait-free `contains`).
    pub fn get(&self, key: Key) -> Option<Value> {
        let guard = pin();
        let head = self.head.load(Ordering::SeqCst, &guard);
        let mut pred = head;
        let mut curr = Shared::null();
        for lvl in (0..MAX_HEIGHT).rev() {
            // SAFETY: `pred` is the never-null head or a node read under `guard`.
            curr = unsafe { pred.deref() }.tower[lvl].load(self.camera(), &guard).with_tag(0);
            // SAFETY: `curr` was read (tag stripped) from a tower cell under `guard`.
            while let Some(c) = unsafe { curr.as_ref() } {
                let succ = c.tower[lvl].load(self.camera(), &guard);
                if succ.tag() == MARK {
                    curr = succ.with_tag(0); // jump over a deleted node
                } else if c.key < key {
                    pred = curr;
                    curr = succ;
                } else {
                    break;
                }
            }
        }
        // SAFETY: `curr` is null or a node read under `guard`, which is still held.
        unsafe { curr.as_ref() }.filter(|c| c.key == key).map(|c| c.value)
    }

    /// Does the current state contain `key`?
    pub fn contains(&self, key: Key) -> bool {
        self.get(key).is_some()
    }

    // ----- snapshot views ---------------------------------------------------------------

    /// Opens a pinned snapshot view of the list's state right now (the primary
    /// multi-point query surface; see [`crate::view`]).
    pub fn view(&self) -> VcasSkipListView<'_> {
        let pinned = self.camera().pin_snapshot();
        let handle = pinned.handle();
        VcasSkipListView { list: self, _pin: pinned, handle, guard: pin() }
    }

    /// Opens a view of the list **as of** timestamp `ts` — any retained timestamp. Fails
    /// with the same [`RetentionError`] semantics as every other versioned structure.
    pub fn view_at(&self, ts: u64) -> Result<VcasSkipListView<'_>, RetentionError> {
        let pinned = self.camera().pin_snapshot_at(ts)?;
        let handle = pinned.handle();
        Ok(VcasSkipListView { list: self, _pin: pinned, handle, guard: pin() })
    }
}

/// The cell visitor walks the *physical* level-0 list (marked nodes included — their
/// history is exactly what truncation releases) in key order, a whole tower per node, so
/// a bounded pass may overshoot its budget by up to `MAX_HEIGHT - 1` cells; in exchange
/// the resume state is a single key. The head's tower goes first.
impl Collectible for VcasSkipList {
    fn visit_cells(&self, op: CellOp, budget: usize, resume: bool, guard: &Guard) -> Visit {
        let mut sweep = self.sweep.visit(op, budget, resume);
        // SAFETY: the head sentinel is allocated in the constructor and never null.
        let head = unsafe { self.head.load(Ordering::SeqCst, guard).deref() };
        let mut key = None;
        let mut node = Some(head);
        while let Some(n) = node {
            if !sweep.node(0, key, &self.mode, &n.tower, guard) {
                break;
            }
            // SAFETY: read (tag stripped) from a level-0 cell under `guard`.
            node = unsafe { n.tower[0].load(self.camera(), guard).with_tag(0).as_ref() };
            key = node.map(|n| n.key);
        }
        sweep.finish()
    }
}

impl Drop for VcasSkipList {
    fn drop(&mut self) {
        // Exclusive access. Every node but the head is owned by the version-reference
        // protocol: destroying the head's tower cells releases the references
        // their retained versions held, and reclamation cascades through every node of
        // every retained version (deferred through EBR; `vcas_ebr::drain` at a quiescent
        // point settles the counters). Only the head, which no version node ever pointed
        // at, is freed — and counted — here.
        let guard = pin();
        let head = self.head.load(Ordering::SeqCst, &guard);
        self.camera().note_nodes_dropped(1);
        // SAFETY: `&mut self` is exclusive; the head was allocated by `Atomic::new`, no
        // version node references it, and it is freed exactly once, here.
        let head = unsafe { Box::from_raw(head.as_raw()) };
        VersionReferenced::destroy(head, self.camera());
    }
}

/// A snapshot view of a [`VcasSkipList`]: every query on one view observes the same
/// timestamp. Holds the snapshot pin and a single EBR guard for its whole lifetime, and
/// serves the streaming ordered-query API ([`MapSnapshotView::range_iter`]) natively in
/// `O(log n + k)` via tower descent inside the snapshot.
pub struct VcasSkipListView<'a> {
    list: &'a VcasSkipList,
    /// Keeps the snapshot registered with the camera so version-list truncation cannot
    /// reclaim versions this view may read.
    _pin: PinnedSnapshot,
    handle: SnapshotHandle,
    guard: Guard,
}

impl VcasSkipListView<'_> {
    /// Is `node` a member at this view's timestamp (level-0 cell unmarked at `ts`)?
    fn live_at(&self, node: &Node) -> bool {
        node.tower[0].load_snapshot(self.list.camera(), self.handle, &self.guard).tag() != MARK
    }

    /// Tower descent at the snapshot: the first node with key `>= lo` that is a member
    /// at this view's timestamp (see the module docs for the waypoint rule).
    fn seek(&self, lo: Key) -> Shared<'_, Node> {
        let head = self.list.head.load(Ordering::SeqCst, &self.guard);
        let mut way = head;
        for lvl in (1..MAX_HEIGHT).rev() {
            // SAFETY: `way` is the never-null head or a node read under the view's guard;
            // the guard and the snapshot pin keep every node a snapshot read returns
            // allocated for the view's lifetime.
            let mut curr = unsafe { way.deref() }.tower[lvl]
                .load_snapshot(self.list.camera(), self.handle, &self.guard)
                .with_tag(0);
            // SAFETY: `curr` came from a snapshot read under the view's guard, as above.
            while let Some(c) = unsafe { curr.as_ref() } {
                if c.key >= lo {
                    break;
                }
                // Adopt live nodes as waypoints; walk *through* nodes dead at ts (their
                // frozen pointers are still ts-time pointers, but descending from them
                // could skip members inserted after their unlink).
                if self.live_at(c) {
                    way = curr;
                }
                curr = c.tower[lvl]
                    .load_snapshot(self.list.camera(), self.handle, &self.guard)
                    .with_tag(0);
            }
        }
        // Level 0 is exact: walk the ts-list to the first live key >= lo.
        // SAFETY: `way` is pinned by the view, as above.
        let way = unsafe { way.deref() };
        let mut curr =
            way.tower[0].load_snapshot(self.list.camera(), self.handle, &self.guard).with_tag(0);
        // SAFETY: `curr` came from a snapshot read under the view's guard, as above.
        while let Some(c) = unsafe { curr.as_ref() } {
            let own = c.tower[0].load_snapshot(self.list.camera(), self.handle, &self.guard);
            if own.tag() != MARK && c.key >= lo {
                return curr;
            }
            curr = own.with_tag(0);
        }
        Shared::null()
    }
}

/// Streaming range iterator over a pinned skip-list view. `curr` is always a node that is
/// live at the view's timestamp (or null); advancing chases level-0 snapshot pointers,
/// skipping nodes dead at the timestamp.
struct SkipRangeIter<'v, 'a> {
    view: &'v VcasSkipListView<'a>,
    curr: Shared<'v, Node>,
    hi: Key,
}

impl Iterator for SkipRangeIter<'_, '_> {
    type Item = (Key, Value);

    fn next(&mut self) -> Option<(Key, Value)> {
        let view = self.view;
        // SAFETY: `curr` came from a snapshot read under the view's guard, which the
        // iterator's borrow of the view keeps held.
        let c = unsafe { self.curr.as_ref() }?;
        if c.key > self.hi {
            self.curr = Shared::null();
            return None;
        }
        let item = (c.key, c.value);
        let mut next =
            c.tower[0].load_snapshot(view.list.camera(), view.handle, &view.guard).with_tag(0);
        // SAFETY: as above, `next` came from a snapshot read under the view's guard.
        while let Some(n) = unsafe { next.as_ref() } {
            let own = n.tower[0].load_snapshot(view.list.camera(), view.handle, &view.guard);
            if own.tag() != MARK {
                break;
            }
            next = own.with_tag(0);
        }
        self.curr = next;
        Some(item)
    }
}

impl MapSnapshotView for VcasSkipListView<'_> {
    fn get(&self, key: Key) -> Option<Value> {
        let node = self.seek(key);
        // SAFETY: `seek` read `node` under the view's guard, which is still held.
        unsafe { node.as_ref() }.filter(|c| c.key == key).map(|c| c.value)
    }
    fn range_iter(&self, lo: Key, hi: Key) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
        Box::new(SkipRangeIter { view: self, curr: self.seek(lo), hi })
    }
    fn timestamp(&self) -> Option<SnapshotHandle> {
        Some(self.handle)
    }
}

impl CameraAttached for VcasSkipList {
    fn attached_camera(&self) -> Option<&Arc<Camera>> {
        Some(self.camera())
    }
}

impl SnapshotSource for VcasSkipList {
    fn snapshot_view(&self) -> Box<dyn MapSnapshotView + '_> {
        Box::new(self.view())
    }
    fn view_at(&self, ts: u64) -> Result<Box<dyn MapSnapshotView + '_>, RetentionError> {
        Ok(Box::new(VcasSkipList::view_at(self, ts)?))
    }
}

impl ConcurrentMap for VcasSkipList {
    fn insert(&self, key: Key, value: Value) -> bool {
        VcasSkipList::insert(self, key, value)
    }
    fn remove(&self, key: Key) -> bool {
        VcasSkipList::remove(self, key)
    }
    fn contains(&self, key: Key) -> bool {
        VcasSkipList::contains(self, key)
    }
    fn get(&self, key: Key) -> Option<Value> {
        VcasSkipList::get(self, key)
    }
    fn name(&self) -> &'static str {
        "VcasSkipList"
    }
}

/// All multi-point queries come from the trait's view-based defaults, which the view
/// serves through its native streaming cursor.
impl SnapshotMap for VcasSkipList {}
impl AtomicRangeMap for VcasSkipList {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_contains_remove_sequential() {
        let sl = VcasSkipList::new_versioned_default();
        assert!(sl.insert(5, 50));
        assert!(sl.insert(3, 30));
        assert!(sl.insert(8, 80));
        assert!(!sl.insert(5, 99), "duplicate insert must fail");
        assert!(sl.contains(3));
        assert_eq!(sl.get(8), Some(80));
        assert!(!sl.contains(4));
        assert!(sl.remove(3));
        assert!(!sl.remove(3), "double remove must fail");
        assert!(!sl.contains(3));
        assert_eq!(sl.view().range(0, Key::MAX), vec![(5, 50), (8, 80)]);
    }

    #[test]
    fn empty_list_queries() {
        let sl = VcasSkipList::new_versioned_default();
        assert!(sl.view().is_empty());
        assert_eq!(sl.get(1), None);
        assert!(!sl.remove(1));
        let view = sl.view();
        assert_eq!(view.range(0, 100), vec![]);
        assert_eq!(view.successors(0, 3), vec![]);
        assert_eq!(view.find_if(0, 100, &|_| true), None);
        assert_eq!(view.multi_get(&[1, 2, 3]), vec![None, None, None]);
    }

    /// The height draw is splitmix64 over a fixed seed, so a fresh list's draws are fully
    /// deterministic (a sequential fill draws exactly one height per insert) — pin the
    /// exact distribution of 512 draws to catch an accidental change to the generator.
    #[test]
    fn random_height_histogram_is_deterministic_for_fixed_seed() {
        let sl = VcasSkipList::new_versioned_default();
        let mut histogram = [0usize; MAX_HEIGHT + 1];
        for _ in 0..512 {
            histogram[sl.random_height()] += 1;
        }
        assert_eq!(histogram.iter().sum::<usize>(), 512, "histogram covers every draw once");
        assert_eq!(histogram[0], 0, "towers are at least one level tall");
        // Geometric with p = 1/2 over 512 draws: ~half the towers are height 1, tapering
        // to a single height-12 outlier.
        let mut expected = [0usize; MAX_HEIGHT + 1];
        expected[..13].copy_from_slice(&[0, 241, 145, 65, 24, 18, 7, 7, 2, 0, 1, 1, 1]);
        assert_eq!(histogram, expected, "fixed-seed tower-height distribution moved");
    }

    #[test]
    fn tower_heights_are_bounded_and_varied() {
        let sl = VcasSkipList::new_versioned_default();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4096 {
            let h = sl.random_height();
            assert!((1..=MAX_HEIGHT).contains(&h));
            seen.insert(h);
        }
        assert!(seen.len() >= 4, "4096 draws must produce several distinct heights");
    }

    #[test]
    fn matches_btreemap_on_random_ops() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let sl = VcasSkipList::new_versioned_default();
        let mut model = BTreeMap::new();
        for _ in 0..4000 {
            let k = rng.gen_range(0..200u64);
            match rng.gen_range(0..3) {
                0 => assert_eq!(sl.insert(k, k * 10), model.insert(k, k * 10).is_none()),
                1 => assert_eq!(sl.remove(k), model.remove(&k).is_some()),
                _ => assert_eq!(sl.get(k), model.get(&k).copied()),
            }
        }
        let scanned = sl.view().range(0, Key::MAX);
        let expected: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(scanned, expected);
    }

    #[test]
    fn range_successors_findif_on_a_view() {
        let sl = VcasSkipList::new_versioned_default();
        for k in (0..100u64).step_by(2) {
            sl.insert(k, k + 1);
        }
        let view = sl.view();
        assert_eq!(
            view.range(10, 20),
            vec![(10, 11), (12, 13), (14, 15), (16, 17), (18, 19), (20, 21)]
        );
        assert_eq!(view.successors(13, 3), vec![(14, 15), (16, 17), (18, 19)]);
        assert_eq!(view.find_if(0, 100, &|k| k % 14 == 0 && k > 0), Some((14, 15)));
        assert_eq!(view.multi_get(&[4, 5, 6]), vec![Some(5), None, Some(7)]);
        assert_eq!(view.len(), 50);
        // Streaming and collecting agree on the same view.
        let streamed: Vec<_> = view.range_iter(10, 20).collect();
        assert_eq!(streamed, view.range(10, 20));
    }

    #[test]
    fn snapshot_queries_are_stable_under_updates() {
        let sl = VcasSkipList::new_versioned_default();
        for k in 0..50u64 {
            sl.insert(k, k);
        }
        let camera = sl.camera().clone();
        let handle = camera.take_snapshot();
        for k in 0..50u64 {
            sl.remove(k);
        }
        for k in 100..150u64 {
            sl.insert(k, k);
        }
        let view = sl.view_at(handle.raw()).unwrap();
        let keys: Vec<Key> = view.range(0, Key::MAX).iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..50u64).collect::<Vec<_>>());
        assert_eq!(view.timestamp(), Some(handle));
        assert_eq!(view.len(), 50);
        assert_eq!(camera.pinned_count(), 1);
        drop(view);
        assert_eq!(camera.pinned_count(), 0);
        let now: Vec<Key> = sl.view().range(0, Key::MAX).iter().map(|(k, _)| *k).collect();
        assert_eq!(now, (100..150u64).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_inserts_partitioned_keys() {
        let sl = Arc::new(VcasSkipList::new_versioned_default());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let sl = sl.clone();
            handles.push(std::thread::spawn(move || {
                for k in (t * 1000)..(t * 1000 + 500) {
                    assert!(sl.insert(k, k));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sl.view().len(), 2000);
        for t in 0..4u64 {
            for k in (t * 1000)..(t * 1000 + 500) {
                assert!(sl.contains(k), "missing key {k}");
            }
        }
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        let sl = Arc::new(VcasSkipList::new_versioned_default());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let sl = sl.clone();
            handles.push(std::thread::spawn(move || {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(t);
                for _ in 0..3000 {
                    let k = rng.gen_range(0..64u64);
                    if rng.gen_bool(0.5) {
                        sl.insert(k, k);
                    } else {
                        sl.remove(k);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let scan = sl.view().range(0, Key::MAX);
        let keys: Vec<Key> = scan.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted, "scan must be sorted and duplicate-free");
        for k in 0..64u64 {
            assert_eq!(sl.contains(k), keys.contains(&k));
        }
    }

    #[test]
    fn atomic_range_queries_see_prefix_under_ordered_inserts() {
        // Writer inserts 0,1,2,... in order; every snapshot range query must observe a
        // gap-free prefix — the paper's atomicity criterion, served here by the
        // streaming iterator.
        let sl = Arc::new(VcasSkipList::new_versioned_default());
        let writer = {
            let sl = sl.clone();
            std::thread::spawn(move || {
                for k in 0..3000u64 {
                    sl.insert(k, k);
                }
            })
        };
        let reader = {
            let sl = sl.clone();
            std::thread::spawn(move || {
                for _ in 0..300 {
                    let view = sl.view();
                    let keys: Vec<Key> = view.range_iter(0, Key::MAX).map(|(k, _)| k).collect();
                    let expected: Vec<Key> = (0..keys.len() as u64).collect();
                    assert_eq!(keys, expected, "atomic range query must see a prefix");
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(sl.view().len(), 3000);
    }

    #[test]
    fn bounded_collection_covers_the_list_in_slices() {
        let camera = Camera::new();
        let sl = VcasSkipList::new_versioned(&camera);
        for k in 1..=200u64 {
            camera.take_snapshot();
            sl.insert(k, k);
        }
        for k in 1..=100u64 {
            camera.take_snapshot();
            sl.remove(k);
        }
        let guard = pin();
        let before = Collectible::version_stats(&sl, &guard);
        assert!(before.max_versions_per_cell > 1, "churn must have grown version lists");

        let min_active = camera.min_active();
        let mut passes = 0;
        let mut retired = 0;
        loop {
            let s = sl.collect_bounded(min_active, 8, &guard);
            retired += s.versions_retired;
            passes += 1;
            assert!(passes < 10_000, "bounded collection must terminate");
            if s.completed_cycle {
                break;
            }
            // A node visit truncates its whole tower (and a fresh pass truncates the
            // head first), so a slice may overshoot by up to two towers.
            assert!(s.cells_visited <= 8 + 2 * MAX_HEIGHT, "slice exceeded its budget");
        }
        assert!(passes > 1, "budget 8 on a 100-key list must need several slices");
        assert!(retired > 0);
        let after = Collectible::version_stats(&sl, &guard);
        assert!(after.max_versions_per_cell <= 2, "no pins: version lists must be short");
        assert_eq!(sl.view().len(), 100, "collection must not change the abstract state");
    }

    #[test]
    fn bounded_collection_progresses_past_key_zero_with_budget_one() {
        let camera = Camera::new();
        let sl = VcasSkipList::new_versioned(&camera);
        for k in 0..16u64 {
            camera.take_snapshot();
            sl.insert(k, k);
        }
        let guard = pin();
        let min_active = camera.min_active();
        let mut passes = 0;
        loop {
            let s = sl.collect_bounded(min_active, 1, &guard);
            passes += 1;
            assert!(passes < 100, "budget-1 passes must still advance the cursor");
            if s.completed_cycle {
                break;
            }
        }
        assert!(passes > 1);
    }

    #[test]
    fn view_at_honors_retention_errors() {
        let camera = Camera::new();
        let sl = VcasSkipList::new_versioned(&camera);
        sl.insert(1, 1);
        let now = camera.take_snapshot().raw();
        assert!(matches!(sl.view_at(now + 1_000), Err(RetentionError::InFuture { .. })));
        assert!(sl.view_at(now).is_ok());
    }
}
