//! A lock-free skip list whose tower pointers are vCAS-versioned: the ordered structure
//! the streaming range-scan engine is built on.
//!
//! Level 0 is a Harris list and each upper level indexes it (Fraser's skip list). Every
//! level runs on the list's Harris operations ([`crate::list`], through `ListNode`): the
//! search that splices out marked nodes, the mark, the publication and the cursor. What
//! is the skip list's own is the tower: random heights, the descent through the upper
//! levels, linking a published node into them, and marking them top-down before level 0,
//! whose mark is a remove's **linearization point** as the level-0 publication is an
//! insert's. The head is a tower of [`MAX_HEIGHT`] head cells, as a list is its head cell.
//!
//! The vCAS twist is the paper's §4 recipe: every tower cell is a versioned, managed cell
//! on one [`Camera`], so a pinned view answers ordered queries — `range`, `successors`,
//! `find_if`, full scans — **in `O(log n + k)`** by descending the towers inside the
//! snapshot, and a node is retired when the last version referencing it is truncated
//! ([`VersionReferenced`]). There is no `Plain` mode: a plain node unlinked at level 0 may
//! still be reachable from the upper levels, so it cannot be retired at that unlink the way
//! a plain list node is.
//!
//! # Snapshot descent soundness
//!
//! At level 0 a read at timestamp `ts` is exact: the pointers at `ts` form the list as of
//! `ts`, and a node is a member iff its level-0 cell was unmarked at `ts`. Upper levels
//! only **position** the level-0 cursor, and one rule keeps that sound: a node is adopted
//! as a descent *waypoint* only if it is a member at `ts`. A node dead at `ts` may be
//! walked *through* at an upper level (its frozen pointers are genuine `ts`-time pointers
//! and keys strictly increase along them), but descending *from* it could skip members
//! inserted between its unlink and `ts`. Reads of the current state descend by the same
//! rule.

use std::mem::ManuallyDrop;
use std::sync::Arc;
use vcas_core::sync::{AtomicU64, Ordering};

use vcas_core::reclaim::{CellOp, Collectible, SweepCursor, Visit};
use vcas_core::{
    Camera, Mode, PinnedSnapshot, PointerCell, RetentionError, SnapshotHandle, VersionReferenced,
    Versioned,
};
use vcas_ebr::{pin, Guard, Shared};

use crate::list::{self, ListNode, NextCell, MARK};
use crate::traits::{AtomicRangeMap, ConcurrentMap, Key, SnapshotMap, Value};
use crate::view::{MapSnapshotView, SnapshotSource};

/// Tallest tower a node may have (the head tower has this height). 2^20 keys keep the
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

/// A tower cell: one word, versioned on the list's camera, counting references to the
/// node it points at.
type TowerCell = NextCell<Versioned, Node>;

/// Versioned only (see the module docs): no plain-mode list operation reaches a skip-list
/// node.
impl ListNode<Versioned> for Node {
    fn key(&self) -> Key {
        self.key
    }
    fn value(&self) -> Value {
        self.value
    }
    fn tower(&self) -> &[TowerCell] {
        &self.tower
    }
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

/// Where a key belongs on every level, as [`VcasSkipList::find`] fills it: the last tower
/// before the key (the head tower or a node's, whose cell at that level is the
/// predecessor cell) and the first node at or after it.
type Path<'g> = [(&'g [TowerCell], Shared<'g, Node>); MAX_HEIGHT];

/// The vCAS-versioned lock-free skip list (`VcasSkipList` in benchmark rows).
///
/// Unlike [`crate::bst::Nbbst`] and [`crate::list::HarrisList`] there is no plain mode
/// (see the module docs): every instance is attached to a camera from birth.
pub struct VcasSkipList {
    /// The head tower: level `lvl`'s list starts at `head[lvl]`. Taken by `Drop`.
    head: ManuallyDrop<[TowerCell; MAX_HEIGHT]>,
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
        let mode = Versioned::new(camera);
        VcasSkipList {
            head: ManuallyDrop::new(std::array::from_fn(|_| list::empty(&mode))),
            mode,
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

    /// The skip list's `find`: one list [`list::search`] per level, top-down, each from
    /// the tower the level above ended at, filling `path`. A lost splice restarts the
    /// descent from the head: the cell it failed on may be a marked tower cell, which a
    /// search from it would fail on forever. Returns the node holding `key`, if any (it
    /// is `path[0].1`).
    fn find<'g>(&'g self, key: Key, path: &mut Path<'g>, guard: &'g Guard) -> Option<&'g Node> {
        'descend: loop {
            let mut pred: &[TowerCell] = &*self.head;
            for lvl in (0..MAX_HEIGHT).rev() {
                let Ok((at, curr, found)) = list::search(&self.mode, pred, lvl, key, guard) else {
                    continue 'descend;
                };
                (pred, path[lvl]) = (at, (at, curr));
                if lvl == 0 {
                    return found.filter(|node| node.key == key);
                }
            }
        }
    }

    /// Inserts `key`; returns `false` if already present.
    pub fn insert(&self, key: Key, value: Value) -> bool {
        let guard = pin();
        let mut path = [(&self.head[..], Shared::null()); MAX_HEIGHT];
        let mut attempts = 0u32;
        loop {
            crate::backoff(&mut attempts);
            if self.find(key, &mut path, &guard).is_some() {
                return false;
            }
            let height = self.random_height();
            // A successor found by `find` may have been unlinked and retired since; then
            // the tower cannot reference it (the cells built so far are destroyed,
            // releasing their references) and the search starts over.
            let tower: Vec<TowerCell> =
                path[..height].iter().map_while(|&(_, succ)| self.mode.cell(succ)).collect();
            if tower.len() < height {
                list::destroy(&self.mode, tower);
                continue;
            }
            let (pred, succ) = path[0];
            let node = Node { key, value, tower, refs: AtomicU64::new(1) };
            let Some(node) = list::publish(&self.mode, &pred[0], succ, node, &guard) else {
                continue;
            };
            self.link_upper(node, height, key, &mut path, &guard);
            self.camera().reclaim_tick(&guard);
            return true;
        }
    }

    /// Links a freshly published node into levels `1..height`. Stops early (harmlessly —
    /// upper links are an optimization, membership lives at level 0) if the node is
    /// removed while we work.
    fn link_upper<'g>(
        &'g self,
        node: Shared<'g, Node>,
        height: usize,
        key: Key,
        path: &mut Path<'g>,
        guard: &'g Guard,
    ) {
        // SAFETY: the caller published `node` under `guard`; the pin keeps it allocated.
        let node_ref = unsafe { node.deref() };
        for lvl in 1..height {
            let own_cell = &node_ref.tower[lvl];
            loop {
                let own = own_cell.load(self.camera(), guard);
                if own.tag() == MARK {
                    return; // concurrently removed: stop linking
                }
                let (pred, succ) = path[lvl];
                // Point our own cell at the current successor before splicing in, then
                // splice. Either CAS fails when its cell moved, and also when it would
                // reference a retired node (the successor, or our own node once it has
                // been removed and its last version truncated).
                let own_ok =
                    own == succ || own_cell.compare_exchange(self.camera(), own, succ, guard);
                if own_ok && pred[lvl].compare_exchange(self.camera(), succ, node, guard) {
                    if own_cell.load(self.camera(), guard).tag() == MARK {
                        // A remove marked this level before the splice landed, and its
                        // unlinking `find` may already be past: unlink the node here.
                        self.find(key, path, guard);
                        return;
                    }
                    break;
                }
                // Re-locate and retry this level.
                if self.find(key, path, guard).is_none() || path[0].1 != node {
                    return; // removed (or replaced by a new node with our key)
                }
            }
        }
    }

    /// Removes `key`; returns `false` if not present.
    pub fn remove(&self, key: Key) -> bool {
        let guard = pin();
        let mut path = [(&self.head[..], Shared::null()); MAX_HEIGHT];
        let Some(node) = self.find(key, &mut path, &guard) else { return false };
        // Mark the upper cells top-down (racing removers may help), then level 0: exactly
        // one remover sets that mark, the remove's linearization point.
        for lvl in (1..node.tower.len()).rev() {
            list::mark(&self.mode, node, lvl, &guard);
        }
        if list::mark(&self.mode, node, 0, &guard).is_none() {
            return false; // another remover linearized first
        }
        // Physically unlink: `find` splices the node out of every level on its path.
        self.find(key, &mut path, &guard);
        self.camera().reclaim_tick(&guard);
        true
    }

    /// The value stored with `key` in the current state (read-only: never splices).
    pub fn get(&self, key: Key) -> Option<Value> {
        self.range(key, key, None, &pin()).next().map(|(_, v)| v)
    }

    /// Does the current state contain `key`?
    pub fn contains(&self, key: Key) -> bool {
        self.get(key).is_some()
    }

    /// The level-0 cell to start the list cursor at for keys `>= lo`, as of `handle` (the
    /// current state when `None`): a descent through the upper levels that adopts only
    /// waypoints live at `handle` (see the module docs).
    fn seek<'g>(
        &'g self,
        lo: Key,
        handle: Option<SnapshotHandle>,
        guard: &'g Guard,
    ) -> &'g TowerCell {
        let mut way: &[TowerCell] = &*self.head;
        for lvl in (1..MAX_HEIGHT).rev() {
            let mut curr = way[lvl].load_at(&self.mode, handle, guard).with_tag(0);
            // SAFETY: `curr` was read (tag stripped) under `guard`; the guard, and the
            // snapshot pin when `handle` is set, keep every node such a read returns
            // allocated for `'g`.
            while let Some(c) = unsafe { curr.as_ref() } {
                if c.key >= lo {
                    break;
                }
                if c.tower[0].load_at(&self.mode, handle, guard).tag() != MARK {
                    way = &c.tower;
                }
                curr = c.tower[lvl].load_at(&self.mode, handle, guard).with_tag(0);
            }
        }
        &way[0]
    }

    /// The live pairs with `lo <= key <= hi` as of `handle`: [`Self::seek`], then the list
    /// cursor on level 0.
    fn range<'g>(
        &'g self,
        lo: Key,
        hi: Key,
        handle: Option<SnapshotHandle>,
        guard: &'g Guard,
    ) -> impl Iterator<Item = (Key, Value)> + 'g {
        list::cursor(&self.mode, self.seek(lo, handle, guard), handle, guard, lo, hi)
    }

    /// Opens a pinned snapshot view of the list's state right now (the primary
    /// multi-point query surface; see [`crate::view`]).
    pub fn view(&self) -> VcasSkipListView<'_> {
        VcasSkipListView::new(self, self.camera().pin_snapshot())
    }

    /// Opens a view of the list **as of** timestamp `ts` — any retained timestamp. Fails
    /// with the same [`RetentionError`] semantics as every other versioned structure.
    pub fn view_at(&self, ts: u64) -> Result<VcasSkipListView<'_>, RetentionError> {
        Ok(VcasSkipListView::new(self, self.camera().pin_snapshot_at(ts)?))
    }
}

/// The cell visitor walks the head tower, then the *physical* level-0 list (marked nodes
/// included — their history is exactly what truncation releases) in key order, a whole
/// tower per node, so a bounded pass may overshoot its budget by up to `MAX_HEIGHT - 1`
/// cells; in exchange the resume state is a single key.
impl Collectible for VcasSkipList {
    fn visit_cells(&self, op: CellOp, budget: usize, resume: bool, guard: &Guard) -> Visit {
        let mut sweep = self.sweep.visit(op, budget, resume);
        list::visit_segment(&self.mode, 0, &*self.head, &mut sweep, guard);
        sweep.finish()
    }
}

impl Drop for VcasSkipList {
    fn drop(&mut self) {
        // SAFETY: `drop` runs once and `head` is not used afterwards.
        let head = unsafe { ManuallyDrop::take(&mut self.head) };
        list::destroy(&self.mode, head);
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
    snapshot: PinnedSnapshot,
    guard: Guard,
}

impl<'a> VcasSkipListView<'a> {
    fn new(list: &'a VcasSkipList, snapshot: PinnedSnapshot) -> VcasSkipListView<'a> {
        VcasSkipListView { list, snapshot, guard: pin() }
    }
}

impl MapSnapshotView for VcasSkipListView<'_> {
    fn get(&self, key: Key) -> Option<Value> {
        let handle = Some(self.snapshot.handle());
        self.list.range(key, key, handle, &self.guard).next().map(|(_, v)| v)
    }
    fn range_iter(&self, lo: Key, hi: Key) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
        Box::new(self.list.range(lo, hi, Some(self.snapshot.handle()), &self.guard))
    }
    fn timestamp(&self) -> Option<SnapshotHandle> {
        Some(self.snapshot.handle())
    }
}

impl SnapshotSource for VcasSkipList {
    fn camera(&self) -> Option<&Arc<Camera>> {
        Some(VcasSkipList::camera(self))
    }
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
