//! The non-blocking binary search tree of Ellen, Fatourou, Ruppert and van Breugel (PODC
//! 2010) — the unbalanced tree used throughout the paper's evaluation — in two modes:
//!
//! * **plain** ([`Nbbst::new_plain`]): child pointers are ordinary CAS objects; this is the
//!   original data structure (`BST` in the paper's figures). Unlinked nodes are reclaimed
//!   through epoch-based reclamation.
//! * **versioned** ([`Nbbst::new_versioned`]): child pointers are versioned CAS objects
//!   associated with one camera (`VcasBST` in the paper). Taking a snapshot is constant time
//!   and multi-point queries (range, successors, find-if, multi-search, height, scan) run
//!   atomically on the snapshot while updates proceed concurrently.
//!
//! The tree is leaf-oriented: internal nodes route searches, leaves hold the keys. Updates
//! coordinate through per-node `update` words that pack a state tag (clean / insert-flag /
//! delete-flag / mark) with a pointer to an `Info` record describing the pending operation,
//! so any thread can help a stalled operation complete — the structure is lock-free. Each
//! successful insert or delete is linearized at a single child CAS, which is exactly the
//! property (§4) that makes the set's abstract state a function of the child pointers and
//! therefore snapshot-able by versioning only those pointers (the `update` words stay
//! unversioned — the paper's first optimization in §5).

use std::sync::Arc;
use vcas_core::sync::{AtomicU64, Ordering};

use vcas_core::reclaim::{CollectStats, Collectible, VersionStats};
use vcas_core::{
    release_node_ref, Camera, CameraAttached, PinnedSnapshot, RetentionError, SnapshotHandle,
    VersionReferenced, VersionedPtr,
};
use vcas_ebr::{pin, Atomic, Guard, Owned, Shared};

use crate::traits::{AtomicRangeMap, ConcurrentMap, Key, Value};
use crate::view::{MapSnapshotView, SnapshotSource};

/// Sentinel key of the root's left dummy leaf: larger than every user key.
const INF1: Key = Key::MAX - 1;
/// Sentinel key of the root and its right dummy leaf: larger than `INF1`.
const INF2: Key = Key::MAX;

/// Largest key a user may insert.
pub const MAX_KEY: Key = INF1 - 1;

// State tags packed into the low bits of the `update` word.
const CLEAN: usize = 0;
const IFLAG: usize = 1;
const DFLAG: usize = 2;
const MARK: usize = 3;

/// Operation descriptor used for helping (the paper's `Info` records).
#[repr(align(8))]
struct Info {
    /// Grandparent of the leaf being removed (deletes only); packed pointer word.
    gp: usize,
    /// Parent of the leaf being inserted at / removed.
    p: usize,
    /// The leaf found by the search.
    l: usize,
    /// The replacement internal node (inserts only).
    new_internal: usize,
    /// The parent's `update` word observed by the delete's search (deletes only).
    pupdate: usize,
}

/// Tree node. Leaves have `children == None`.
struct Node {
    key: Key,
    value: Value,
    children: Option<[ChildPtr; 2]>,
    update: Atomic<Info>,
    /// Version-held reference count (versioned mode): one reference per retained version
    /// pointing at this node, plus the creator reference until publication. Unused (and
    /// left at 1) in plain mode. The `update` word is deliberately *not* owned by this
    /// protocol: descriptors are shared between update words (a delete's `Info` sits in
    /// both the grandparent and the marked parent) and are retired when an update word
    /// replaces them — a retiring node must never free its descriptor.
    refs: AtomicU64,
}

/// SAFETY: `refs` is touched only by the version-reference protocol, and the tree only
/// republishes pointers obtained from current (head-version) reads under a guard —
/// snapshot reads are never fed back into a CAS. Such a pointer may be retired (counter at
/// zero) by the time it is republished; the managed cell then refuses it and the CAS
/// fails. New nodes' cells only ever point at fresh, unpublished nodes.
unsafe impl VersionReferenced for Node {
    fn version_refs(&self) -> &AtomicU64 {
        &self.refs
    }
}

impl Node {
    fn leaf(key: Key, value: Value) -> Node {
        Node { key, value, children: None, update: Atomic::null(), refs: AtomicU64::new(1) }
    }

    fn internal(key: Key, left: ChildPtr, right: ChildPtr) -> Node {
        Node {
            key,
            value: 0,
            children: Some([left, right]),
            update: Atomic::null(),
            refs: AtomicU64::new(1),
        }
    }

    fn is_leaf(&self) -> bool {
        self.children.is_none()
    }

    fn child(&self, dir: usize) -> &ChildPtr {
        &self.children.as_ref().expect("child() on a leaf")[dir]
    }
}

/// A child pointer in either plain-CAS or versioned-CAS mode.
enum ChildPtr {
    Plain(Atomic<Node>),
    Versioned(VersionedPtr<Node>),
}

impl ChildPtr {
    /// A child cell pointing at `init`, which must be a freshly allocated, unpublished
    /// node (so its reference counter is still the creator's 1, never zero).
    fn new(mode: &Mode, init: Shared<'_, Node>) -> ChildPtr {
        match mode {
            Mode::Plain => ChildPtr::Plain(Atomic::from_shared(init)),
            Mode::Versioned(camera) => ChildPtr::Versioned(
                VersionedPtr::from_shared_managed(init, camera)
                    .expect("a fresh node holds its creator reference"),
            ),
        }
    }

    fn load<'g>(&self, guard: &'g Guard) -> Shared<'g, Node> {
        match self {
            ChildPtr::Plain(a) => a.load(Ordering::SeqCst, guard),
            ChildPtr::Versioned(v) => v.load(guard),
        }
    }

    fn load_view<'g>(&self, view: View, guard: &'g Guard) -> Shared<'g, Node> {
        match (self, view) {
            (ChildPtr::Versioned(v), View::Snapshot(h)) => v.load_snapshot(h, guard),
            _ => self.load(guard),
        }
    }

    fn compare_exchange(
        &self,
        current: Shared<'_, Node>,
        new: Shared<'_, Node>,
        guard: &Guard,
    ) -> bool {
        match self {
            ChildPtr::Plain(a) => {
                a.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst, guard).is_ok()
            }
            ChildPtr::Versioned(v) => v.compare_exchange(current, new, guard),
        }
    }

    /// Every node pointer retained by this child (one entry in plain mode, the whole version
    /// list in versioned mode). Used by the destructor.
    fn all_versions<'g>(&self, guard: &'g Guard) -> Vec<Shared<'g, Node>> {
        match self {
            ChildPtr::Plain(a) => vec![a.load(Ordering::SeqCst, guard)],
            ChildPtr::Versioned(v) => v.all_versions(guard),
        }
    }

    fn collect_before(&self, min_active: u64, guard: &Guard) -> usize {
        match self {
            ChildPtr::Plain(_) => 0,
            ChildPtr::Versioned(v) => v.collect_before(min_active, guard),
        }
    }
}

/// Which state of the tree a read-only traversal observes.
#[derive(Clone, Copy)]
enum View {
    /// The current state (non-atomic across multiple pointers).
    Current,
    /// The state captured by a snapshot handle (atomic).
    Snapshot(SnapshotHandle),
}

#[derive(Clone)]
enum Mode {
    Plain,
    Versioned(Arc<Camera>),
}

impl Mode {
    fn reclaim_unlinked(&self) -> bool {
        matches!(self, Mode::Plain)
    }
}

/// The non-blocking binary search tree (see module docs).
pub struct Nbbst {
    root: Atomic<Node>,
    mode: Mode,
    updates: AtomicU64,
    /// Resume key for incremental version-list collection ([`Collectible`]): subtrees whose
    /// keys all fall below it were covered by the previous bounded pass.
    reclaim_cursor: AtomicU64,
    label: &'static str,
}

impl Nbbst {
    fn with_mode(mode: Mode, label: &'static str) -> Nbbst {
        let guard = pin();
        let left_leaf = Owned::new(Node::leaf(INF1, 0)).into_shared(&guard);
        let right_leaf = Owned::new(Node::leaf(INF2, 0)).into_shared(&guard);
        let root =
            Node::internal(INF2, ChildPtr::new(&mode, left_leaf), ChildPtr::new(&mode, right_leaf));
        if let Mode::Versioned(camera) = &mode {
            camera.note_nodes_created(3);
            // The dummy leaves are published (the root's child cells hold counted
            // references to them), so their creator references are handed off here. The
            // root itself is never held by a version node and keeps its creator
            // reference; the destructor frees it directly.
            release_node_ref(left_leaf, camera, &guard);
            release_node_ref(right_leaf, camera, &guard);
        }
        Nbbst {
            root: Atomic::new(root),
            mode,
            updates: AtomicU64::new(0),
            reclaim_cursor: AtomicU64::new(0),
            label,
        }
    }

    /// Creates the original (unversioned) tree — `BST` in the paper's figures.
    pub fn new_plain() -> Nbbst {
        Self::with_mode(Mode::Plain, "BST")
    }

    /// Creates the snapshot-capable tree (`VcasBST`): every child pointer is a versioned CAS
    /// object associated with `camera`.
    pub fn new_versioned(camera: &Arc<Camera>) -> Nbbst {
        Self::with_mode(Mode::Versioned(camera.clone()), "VcasBST")
    }

    /// Creates a snapshot-capable tree with its own private camera.
    pub fn new_versioned_default() -> Nbbst {
        Self::new_versioned(&Camera::new())
    }

    /// The camera associated with a versioned tree (`None` for a plain tree).
    pub fn camera(&self) -> Option<&Arc<Camera>> {
        match &self.mode {
            Mode::Plain => None,
            Mode::Versioned(c) => Some(c),
        }
    }

    /// Is this the versioned (`VcasBST`) variant?
    pub fn is_versioned(&self) -> bool {
        matches!(self.mode, Mode::Versioned(_))
    }

    /// Number of successful updates (inserts + removes) applied so far.
    pub fn update_count(&self) -> u64 {
        // ORDERING: diag-counter — monitoring only.
        self.updates.load(Ordering::Relaxed)
    }

    /// Bookkeeping after a successful insert/remove: count it and give the camera's
    /// amortized reclamation hook its tick (a no-op unless an
    /// [`vcas_core::ReclaimPolicy::Amortized`] policy is installed).
    #[inline]
    fn after_update(&self, guard: &Guard) {
        // ORDERING: diag-counter — monitoring only.
        self.updates.fetch_add(1, Ordering::Relaxed);
        if let Mode::Versioned(camera) = &self.mode {
            camera.reclaim_tick(guard);
        }
    }

    // ----- search ---------------------------------------------------------------------

    #[inline]
    fn dir_for(key: Key, node_key: Key) -> usize {
        usize::from(key >= node_key)
    }

    /// The paper's `Search(k)`: walks from the root to a leaf, remembering the last two
    /// internal nodes and their update words.
    fn search<'g>(&self, key: Key, guard: &'g Guard) -> SearchResult<'g> {
        let root = self.root.load(Ordering::SeqCst, guard);
        let mut gp = Shared::null();
        let mut gpupdate = Shared::null();
        let mut p = Shared::null();
        let mut pupdate = Shared::null();
        let mut l = root;
        loop {
            let l_ref = unsafe { l.deref() };
            if l_ref.is_leaf() {
                break;
            }
            gp = p;
            gpupdate = pupdate;
            p = l;
            pupdate = l_ref.update.load(Ordering::SeqCst, guard);
            l = l_ref.child(Self::dir_for(key, l_ref.key)).load(guard);
        }
        SearchResult { gp, p, gpupdate, pupdate, l }
    }

    // ----- point operations ------------------------------------------------------------

    /// Inserts `key` (must be `<= MAX_KEY`); returns `false` if already present.
    pub fn insert(&self, key: Key, value: Value) -> bool {
        assert!(key <= MAX_KEY, "key {key} exceeds MAX_KEY");
        let guard = pin();
        let mut attempts = 0u32;
        loop {
            crate::backoff(&mut attempts);
            let s = self.search(key, &guard);
            let l_ref = unsafe { s.l.deref() };
            if l_ref.key == key {
                return false;
            }
            if s.pupdate.tag() != CLEAN {
                self.help(s.pupdate, &guard);
                continue;
            }
            let p_ref = unsafe { s.p.deref() };

            // Build the replacement subtree: a new leaf for `key`, and an internal node
            // whose other child is a fresh copy of the found leaf `l` — EFRB's
            // `newSibling`. Reusing `l` itself would let the parent's child return to `l`
            // after a later remove of `key`, and a late helper's `CAS-Child(p, l,
            // new_internal)` would then re-link this (by then removed and retired) subtree.
            let new_leaf = Owned::new(Node::leaf(key, value)).into_shared(&guard);
            let new_sibling = Owned::new(Node::leaf(l_ref.key, l_ref.value)).into_shared(&guard);
            let (lc, rc) =
                if key < l_ref.key { (new_leaf, new_sibling) } else { (new_sibling, new_leaf) };
            let new_internal = Owned::new(Node::internal(
                key.max(l_ref.key),
                ChildPtr::new(&self.mode, lc),
                ChildPtr::new(&self.mode, rc),
            ))
            .into_shared(&guard);
            if let Mode::Versioned(camera) = &self.mode {
                camera.note_nodes_created(3);
            }

            let op = Owned::new(Info {
                gp: 0,
                p: s.p.into_data(),
                l: s.l.into_data(),
                new_internal: new_internal.into_data(),
                pupdate: 0,
            })
            .into_shared(&guard);

            // iflag CAS on the parent's update word.
            if p_ref
                .update
                .compare_exchange(
                    s.pupdate,
                    op.with_tag(IFLAG),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                    &guard,
                )
                .is_ok()
            {
                // The previous (clean, completed) descriptor is no longer reachable from
                // this node; we won the CAS, so we are the unique thread retiring it.
                if !s.pupdate.is_null() {
                    unsafe { guard.defer_destroy(s.pupdate.with_tag(0)) };
                }
                self.help_insert(op, &guard);
                if let Mode::Versioned(camera) = &self.mode {
                    // All three new nodes are now published (the child CAS — ours or a
                    // helper's — put `new_internal` in `p`'s cell, and `new_internal`'s
                    // own cells hold the two leaves): hand off their creator references.
                    release_node_ref(new_internal, camera, &guard);
                    release_node_ref(new_leaf, camera, &guard);
                    release_node_ref(new_sibling, camera, &guard);
                }
                self.after_update(&guard);
                return true;
            } else {
                // Our descriptor and subtree were never published; reclaim them
                // immediately. Order matters in versioned mode: dropping `new_internal`
                // releases the counted references its cells held on the two leaves (back
                // to the creator references we free next).
                if let Mode::Versioned(camera) = &self.mode {
                    camera.note_nodes_dropped(3);
                }
                // SAFETY: the iflag CAS failed, so `op` and the three nodes were never
                // reachable by another thread; this thread owns each and frees it once.
                unsafe {
                    drop(op.into_owned());
                    drop(new_internal.into_owned());
                    drop(new_leaf.into_owned());
                    drop(new_sibling.into_owned());
                }
                let cur = p_ref.update.load(Ordering::SeqCst, &guard);
                self.help(cur, &guard);
            }
        }
    }

    /// Removes `key`; returns `false` if not present.
    pub fn remove(&self, key: Key) -> bool {
        let guard = pin();
        let mut attempts = 0u32;
        loop {
            crate::backoff(&mut attempts);
            let s = self.search(key, &guard);
            let l_ref = unsafe { s.l.deref() };
            if l_ref.key != key {
                return false;
            }
            if s.gpupdate.tag() != CLEAN {
                self.help(s.gpupdate, &guard);
                continue;
            }
            if s.pupdate.tag() != CLEAN {
                self.help(s.pupdate, &guard);
                continue;
            }
            let gp_ref = unsafe { s.gp.deref() };

            let op = Owned::new(Info {
                gp: s.gp.into_data(),
                p: s.p.into_data(),
                l: s.l.into_data(),
                new_internal: 0,
                pupdate: s.pupdate.into_data(),
            })
            .into_shared(&guard);

            // dflag CAS on the grandparent's update word.
            if gp_ref
                .update
                .compare_exchange(
                    s.gpupdate,
                    op.with_tag(DFLAG),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                    &guard,
                )
                .is_ok()
            {
                if !s.gpupdate.is_null() {
                    unsafe { guard.defer_destroy(s.gpupdate.with_tag(0)) };
                }
                if self.help_delete(op, &guard) {
                    self.after_update(&guard);
                    return true;
                }
            } else {
                unsafe { drop(op.into_owned()) };
                let cur = gp_ref.update.load(Ordering::SeqCst, &guard);
                self.help(cur, &guard);
            }
        }
    }

    /// Does the tree currently contain `key`?
    pub fn contains(&self, key: Key) -> bool {
        self.get(key).is_some()
    }

    /// Returns the value associated with `key`, if present.
    pub fn get(&self, key: Key) -> Option<Value> {
        let guard = pin();
        let mut node = self.root.load(Ordering::SeqCst, &guard);
        loop {
            let n = unsafe { node.deref() };
            if n.is_leaf() {
                return (n.key == key).then_some(n.value);
            }
            node = n.child(Self::dir_for(key, n.key)).load(&guard);
        }
    }

    // ----- helping ---------------------------------------------------------------------

    fn help(&self, u: Shared<'_, Info>, guard: &Guard) {
        match u.tag() {
            IFLAG => self.help_insert(u.with_tag(0), guard),
            MARK => self.help_marked(u.with_tag(0), guard),
            DFLAG => {
                self.help_delete(u.with_tag(0), guard);
            }
            _ => {}
        }
    }

    fn help_insert(&self, op: Shared<'_, Info>, guard: &Guard) {
        let info = unsafe { op.deref() };
        let p: Shared<'_, Node> = unsafe { Shared::from_data(info.p) };
        let l: Shared<'_, Node> = unsafe { Shared::from_data(info.l) };
        let new_internal: Shared<'_, Node> = unsafe { Shared::from_data(info.new_internal) };
        self.cas_child(p, l, new_internal, guard);
        // iunflag: release the parent.
        let p_ref = unsafe { p.deref() };
        let unflagged = p_ref
            .update
            .compare_exchange(
                op.with_tag(IFLAG),
                op.with_tag(CLEAN),
                Ordering::SeqCst,
                Ordering::SeqCst,
                guard,
            )
            .is_ok();
        if unflagged && self.mode.reclaim_unlinked() {
            // SAFETY: while `p` is flagged only this operation's child CAS can change its
            // child, so once any helper's CAS attempt returned, `l` is unlinked for good
            // (its copy took its place, and nothing re-links it). The unique winner of the
            // iunflag retires it — after which no thread can newly read `op` as a pending
            // insert, so every thread that may still compare against `l` is pinned.
            // Versioned mode retires `l` through its counter instead.
            unsafe { guard.defer_destroy(l) };
        }
    }

    fn help_delete(&self, op: Shared<'_, Info>, guard: &Guard) -> bool {
        let info = unsafe { op.deref() };
        let p: Shared<'_, Node> = unsafe { Shared::from_data(info.p) };
        let pupdate: Shared<'_, Info> = unsafe { Shared::from_data(info.pupdate) };
        let gp: Shared<'_, Node> = unsafe { Shared::from_data(info.gp) };
        let p_ref = unsafe { p.deref() };

        // mark CAS on the parent.
        let mark_result = p_ref.update.compare_exchange(
            pupdate,
            op.with_tag(MARK),
            Ordering::SeqCst,
            Ordering::SeqCst,
            guard,
        );
        match mark_result {
            Ok(_) => {
                // We installed the mark, replacing `pupdate`; retire the old descriptor.
                if !pupdate.is_null() {
                    unsafe { guard.defer_destroy(pupdate.with_tag(0)) };
                }
                self.help_marked(op, guard);
                true
            }
            Err(err) => {
                // The `vcas_weaken_mark` disjunct is a deliberate mutation for the
                // model-checker regression in crates/analysis/tests/model_structures.rs:
                // it pretends the mark landed even when a competing flag (e.g. an
                // insert's iflag) holds the parent and splices anyway, losing that
                // operation (stock builds never set the cfg).
                if err.current == op.with_tag(MARK) || cfg!(vcas_weaken_mark) {
                    // Another helper already marked on our behalf.
                    self.help_marked(op, guard);
                    true
                } else {
                    // Someone else got in the way: help them, then back out of the dflag.
                    self.help(err.current, guard);
                    let gp_ref = unsafe { gp.deref() };
                    let _ = gp_ref.update.compare_exchange(
                        op.with_tag(DFLAG),
                        op.with_tag(CLEAN),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                        guard,
                    );
                    false
                }
            }
        }
    }

    fn help_marked(&self, op: Shared<'_, Info>, guard: &Guard) {
        let info = unsafe { op.deref() };
        let gp: Shared<'_, Node> = unsafe { Shared::from_data(info.gp) };
        let p: Shared<'_, Node> = unsafe { Shared::from_data(info.p) };
        let l: Shared<'_, Node> = unsafe { Shared::from_data(info.l) };
        let p_ref = unsafe { p.deref() };

        // The sibling of the removed leaf replaces the parent.
        let right = p_ref.child(1).load(guard);
        let other = if right == l { p_ref.child(0).load(guard) } else { right };

        self.cas_child(gp, p, other, guard);
        // dunflag: release the grandparent.
        let gp_ref = unsafe { gp.deref() };
        let unflagged = gp_ref
            .update
            .compare_exchange(
                op.with_tag(DFLAG),
                op.with_tag(CLEAN),
                Ordering::SeqCst,
                Ordering::SeqCst,
                guard,
            )
            .is_ok();
        if unflagged && self.mode.reclaim_unlinked() {
            // SAFETY: as in `help_insert` — once any helper's splice attempt returned,
            // `p` and `l` are unlinked, and the unique winner of the dunflag retires them
            // after which no thread can newly read `op` as a pending delete; threads that
            // still reach them (through the tree, or `op` in an update word) are pinned.
            unsafe {
                guard.defer_destroy(p);
                guard.defer_destroy(l);
            }
        }
    }

    /// The paper's `CAS-Child(parent, old, new)`.
    fn cas_child(
        &self,
        parent: Shared<'_, Node>,
        old: Shared<'_, Node>,
        new: Shared<'_, Node>,
        guard: &Guard,
    ) -> bool {
        let parent_ref = unsafe { parent.deref() };
        let new_ref = unsafe { new.deref() };
        let dir = Self::dir_for(new_ref.key, parent_ref.key);
        parent_ref.child(dir).compare_exchange(old, new, guard)
    }

    // ----- multi-point queries ----------------------------------------------------------
    //
    // Every multi-point query runs against an [`NbbstView`]: one snapshot, one EBR pin,
    // arbitrarily many reads. The methods below are batch-of-one conveniences that open a
    // view and delegate; callers composing several queries should open the view themselves.

    /// Opens a pinned snapshot view of the tree's state right now (the primary multi-point
    /// query surface; see [`crate::view`]). In plain mode the view reads current state.
    pub fn view(&self) -> NbbstView<'_> {
        match &self.mode {
            Mode::Plain => self.current_view(),
            Mode::Versioned(camera) => {
                let pinned = camera.pin_snapshot();
                let view = View::Snapshot(pinned.handle());
                NbbstView { tree: self, _pin: Some(pinned), view, guard: pin() }
            }
        }
    }

    /// Opens a view of the tree **as of** timestamp `ts` — any retained timestamp, not
    /// just one being taken right now. The view pins `ts`
    /// ([`vcas_core::Camera::pin_snapshot_at`]), so it stays exact until dropped even
    /// while writers run and reclamation truncates other history. Fails if `ts` is below
    /// the retention watermark, in the future, or if the tree is in plain (history-less)
    /// mode; see [`vcas_core::RetentionError`].
    pub fn view_at(&self, ts: u64) -> Result<NbbstView<'_>, RetentionError> {
        match &self.mode {
            Mode::Plain => Err(RetentionError::Unsupported),
            Mode::Versioned(camera) => {
                let pinned = camera.pin_snapshot_at(ts)?;
                let view = View::Snapshot(pinned.handle());
                Ok(NbbstView { tree: self, _pin: Some(pinned), view, guard: pin() })
            }
        }
    }

    /// A view of the current state, deliberately ignoring snapshots (the paper's
    /// non-atomic baseline).
    fn current_view(&self) -> NbbstView<'_> {
        NbbstView { tree: self, _pin: None, view: View::Current, guard: pin() }
    }

    /// Atomic range query (versioned mode); non-atomic traversal in plain mode.
    pub fn range_query(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        self.view().range(lo, hi)
    }

    /// Range query that deliberately ignores snapshots (the paper's non-atomic baseline),
    /// available in both modes.
    pub fn range_query_non_atomic(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        self.current_view().range(lo, hi)
    }

    /// Atomic `succ(k, c)`: the first `c` keys greater than `key` (Table 2).
    pub fn successors(&self, key: Key, count: usize) -> Vec<(Key, Value)> {
        self.view().successors(key, count)
    }

    /// Non-atomic `succ(k, c)` baseline.
    pub fn successors_non_atomic(&self, key: Key, count: usize) -> Vec<(Key, Value)> {
        self.current_view().successors(key, count)
    }

    /// Atomic `findif`: first key in `[lo, hi)` satisfying `pred` (Table 2).
    pub fn find_if(&self, lo: Key, hi: Key, pred: &dyn Fn(Key) -> bool) -> Option<(Key, Value)> {
        self.view().find_if(lo, hi, pred)
    }

    /// Atomic `multisearch`: looks up every key against one snapshot (Table 2).
    pub fn multi_search(&self, keys: &[Key]) -> Vec<Option<Value>> {
        self.view().multi_get(keys)
    }

    /// Non-atomic multisearch baseline: independent lookups.
    pub fn multi_search_non_atomic(&self, keys: &[Key]) -> Vec<Option<Value>> {
        keys.iter().map(|&k| self.get(k)).collect()
    }

    /// Atomic structural query: the height of the tree (number of internal levels).
    pub fn height(&self) -> usize {
        self.view().height()
    }

    /// Atomic full scan of the set (every key/value pair), in ascending key order.
    pub fn scan(&self) -> Vec<(Key, Value)> {
        self.range_query(0, MAX_KEY)
    }

    /// Number of keys currently stored (counted on one snapshot in versioned mode).
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Truncates version lists of every child pointer reachable in the current tree,
    /// reclaiming versions no pinned snapshot can still need. Returns versions retired.
    ///
    /// This is the *unbounded* sweep; automatic reclamation uses the bounded, resumable
    /// [`Collectible::collect_bounded`] instead (register the tree with
    /// [`Camera::register_collectible`] and install a [`vcas_core::ReclaimPolicy`]).
    pub fn collect_versions(&self) -> usize {
        let camera = match &self.mode {
            Mode::Plain => return 0,
            Mode::Versioned(c) => c.clone(),
        };
        let min_active = camera.retention_floor();
        let guard = pin();
        let mut retired = 0;
        let mut stack = vec![self.root.load(Ordering::SeqCst, &guard)];
        while let Some(node) = stack.pop() {
            let n = unsafe { node.deref() };
            if n.is_leaf() {
                continue;
            }
            for dir in 0..2 {
                retired += n.child(dir).collect_before(min_active, &guard);
                stack.push(n.child(dir).load(&guard));
            }
        }
        retired
    }
}

/// Incremental version-list collection: each bounded pass truncates the child cells of up
/// to `budget` internal nodes, *in key order*, resuming at the single-key cursor left by
/// the previous pass. In-order matters: when the budget runs out at a node, every internal
/// node with a smaller key has already been collected, so "skip left subtrees whose keys
/// all fall below the cursor" is a sound resume rule. Internal nodes on the search path at
/// or above the cursor are revisited across passes (their re-truncation is cheap — the
/// lists are already short), which keeps the resume state one key instead of a traversal
/// stack over a mutating tree.
impl Collectible for Nbbst {
    fn collect_bounded(&self, min_active: u64, budget: usize, guard: &Guard) -> CollectStats {
        enum Step<'g> {
            Expand(Shared<'g, Node>),
            Visit(Shared<'g, Node>),
        }
        let mut stats = CollectStats::default();
        if !self.is_versioned() {
            stats.completed_cycle = true;
            return stats;
        }
        // ORDERING: progress-heuristic — the cursor only decides where the next
        // bounded pass resumes; truncation synchronizes inside the cells.
        let start = self.reclaim_cursor.load(Ordering::Relaxed);
        let budget = budget.max(1);
        let mut stack = vec![Step::Expand(self.root.load(Ordering::SeqCst, guard))];
        while let Some(step) = stack.pop() {
            match step {
                Step::Expand(node) => {
                    let n = unsafe { node.deref() };
                    if n.is_leaf() {
                        continue;
                    }
                    // In-order: left subtree, the node itself, right subtree. The left
                    // subtree holds keys < n.key only; skip it when the cursor says a
                    // previous pass already swept past those keys. Nodes below the cursor
                    // are likewise only routed through, never re-visited — counting them
                    // against the budget would let a pass burn its whole budget on ground
                    // already covered and stall the cursor.
                    stack.push(Step::Expand(n.child(1).load(guard)));
                    if n.key >= start {
                        stack.push(Step::Visit(node));
                    }
                    if start < n.key {
                        stack.push(Step::Expand(n.child(0).load(guard)));
                    }
                }
                Step::Visit(node) => {
                    let n = unsafe { node.deref() };
                    if stats.cells_visited >= budget {
                        // ORDERING: progress-heuristic — as above.
                        self.reclaim_cursor.store(n.key, Ordering::Relaxed);
                        return stats;
                    }
                    // Both child cells count against the budget (one "cell" means the same
                    // thing here as in the list and hash-map impls); a visit may overshoot
                    // the budget by one cell.
                    for dir in 0..2 {
                        stats.versions_retired += n.child(dir).collect_before(min_active, guard);
                        stats.cells_visited += 1;
                    }
                }
            }
        }
        // ORDERING: progress-heuristic — as above.
        self.reclaim_cursor.store(0, Ordering::Relaxed);
        stats.completed_cycle = true;
        stats
    }

    fn version_stats(&self, guard: &Guard) -> VersionStats {
        let mut stats = VersionStats::default();
        let mut stack = vec![self.root.load(Ordering::SeqCst, guard)];
        while let Some(node) = stack.pop() {
            let n = unsafe { node.deref() };
            if n.is_leaf() {
                continue;
            }
            for dir in 0..2 {
                let child = n.child(dir);
                if let ChildPtr::Versioned(v) = child {
                    stats.record_cell(v.version_count(guard));
                }
                stack.push(child.load(guard));
            }
        }
        stats
    }
}

/// A snapshot view of an [`Nbbst`]: every query on one view observes the same timestamp
/// (see [`Nbbst::view`] / [`Nbbst::view_at`]). Holds the snapshot pin (when pinned) and a
/// single EBR guard for its whole lifetime, so a batch of queries pays for both once.
pub struct NbbstView<'a> {
    tree: &'a Nbbst,
    /// Keeps the snapshot registered with the camera so version-list truncation cannot
    /// reclaim versions this view may read.
    _pin: Option<PinnedSnapshot>,
    view: View,
    guard: Guard,
}

impl NbbstView<'_> {
    /// In-order walk over every leaf with a user key in `[lo, hi]`, calling `f` until it
    /// returns `false`. Returns `false` iff the walk was aborted by `f`.
    fn walk(
        &self,
        node: Shared<'_, Node>,
        lo: Key,
        hi: Key,
        f: &mut dyn FnMut(Key, Value) -> bool,
    ) -> bool {
        let n = unsafe { node.deref() };
        if n.is_leaf() {
            if n.key >= lo && n.key <= hi && n.key <= MAX_KEY {
                return f(n.key, n.value);
            }
            return true;
        }
        if lo < n.key && !self.walk(n.child(0).load_view(self.view, &self.guard), lo, hi, f) {
            return false;
        }
        if hi >= n.key {
            return self.walk(n.child(1).load_view(self.view, &self.guard), lo, hi, f);
        }
        true
    }

    fn walk_range(&self, lo: Key, hi: Key, f: &mut dyn FnMut(Key, Value) -> bool) {
        let root = self.tree.root.load(Ordering::SeqCst, &self.guard);
        self.walk(root, lo, hi, f);
    }

    /// The value associated with `key` in this view.
    pub fn get(&self, key: Key) -> Option<Value> {
        let mut node = self.tree.root.load(Ordering::SeqCst, &self.guard);
        loop {
            let n = unsafe { node.deref() };
            if n.is_leaf() {
                return (n.key == key).then_some(n.value);
            }
            node = n.child(Nbbst::dir_for(key, n.key)).load_view(self.view, &self.guard);
        }
    }

    /// Every `(key, value)` pair with `lo <= key <= hi`, ascending.
    pub fn range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        self.walk_range(lo, hi, &mut |k, v| {
            out.push((k, v));
            true
        });
        out
    }

    /// The first `count` pairs with key strictly greater than `key`, ascending.
    pub fn successors(&self, key: Key, count: usize) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        if count == 0 {
            return out;
        }
        self.walk_range(key.saturating_add(1), MAX_KEY, &mut |k, v| {
            out.push((k, v));
            out.len() < count
        });
        out
    }

    /// The first pair in `[lo, hi)` (key order) whose key satisfies `pred`.
    pub fn find_if(&self, lo: Key, hi: Key, pred: &dyn Fn(Key) -> bool) -> Option<(Key, Value)> {
        if hi == 0 || lo >= hi {
            return None;
        }
        let mut out = None;
        self.walk_range(lo, hi - 1, &mut |k, v| {
            if pred(k) {
                out = Some((k, v));
                return false;
            }
            true
        });
        out
    }

    /// Looks up every key in `keys` against this view.
    pub fn multi_get(&self, keys: &[Key]) -> Vec<Option<Value>> {
        keys.iter().map(|&k| self.get(k)).collect()
    }

    /// Full scan of the view, ascending.
    pub fn scan(&self) -> Vec<(Key, Value)> {
        self.range(0, MAX_KEY)
    }

    /// Number of keys in this view (counting walk; nothing is materialized).
    pub fn len(&self) -> usize {
        let mut n = 0usize;
        self.walk_range(0, MAX_KEY, &mut |_, _| {
            n += 1;
            true
        });
        n
    }

    /// Does this view contain no keys?
    pub fn is_empty(&self) -> bool {
        let mut any = false;
        self.walk_range(0, MAX_KEY, &mut |_, _| {
            any = true;
            false
        });
        !any
    }

    /// Height of the tree in this view (number of internal levels).
    pub fn height(&self) -> usize {
        fn depth(view: &NbbstView<'_>, node: Shared<'_, Node>) -> usize {
            let n = unsafe { node.deref() };
            if n.is_leaf() {
                return 0;
            }
            let left = depth(view, n.child(0).load_view(view.view, &view.guard));
            let right = depth(view, n.child(1).load_view(view.view, &view.guard));
            1 + left.max(right)
        }
        let root = self.tree.root.load(Ordering::SeqCst, &self.guard);
        depth(self, root)
    }

    /// The snapshot timestamp this view reads at (`None` for a current-state view).
    pub fn timestamp(&self) -> Option<SnapshotHandle> {
        match self.view {
            View::Current => None,
            View::Snapshot(h) => Some(h),
        }
    }
}

/// Streaming in-order iterator over an [`NbbstView`]: an explicit descent stack replaces
/// the recursive walk so leaves can be yielded lazily — `O(log n)` to position, one
/// root-to-leaf continuation per yielded pair, nothing materialized.
struct NbbstRangeIter<'v, 'a> {
    view: &'v NbbstView<'a>,
    /// In-order continuation: internal nodes whose right subtree is still pending, with
    /// the next leaf to visit on top.
    stack: Vec<Shared<'v, Node>>,
    lo: Key,
    hi: Key,
}

impl<'v, 'a> NbbstRangeIter<'v, 'a> {
    fn new(view: &'v NbbstView<'a>, lo: Key, hi: Key) -> NbbstRangeIter<'v, 'a> {
        let mut it = NbbstRangeIter { view, stack: Vec::new(), lo, hi: hi.min(MAX_KEY) };
        let root = view.tree.root.load(Ordering::SeqCst, &view.guard);
        it.push_left(root);
        it
    }

    /// Descends toward the first in-range leaf under `node`, stacking the internal nodes
    /// whose right subtrees remain to be visited. Left subtrees entirely below `lo` are
    /// skipped (leaf-oriented tree: left keys `< node.key <=` right keys).
    fn push_left(&mut self, mut node: Shared<'v, Node>) {
        let view = self.view;
        loop {
            let n = unsafe { node.deref() };
            if n.is_leaf() {
                self.stack.push(node);
                return;
            }
            if self.lo < n.key {
                self.stack.push(node);
                node = n.child(0).load_view(view.view, &view.guard);
            } else {
                node = n.child(1).load_view(view.view, &view.guard);
            }
        }
    }
}

impl Iterator for NbbstRangeIter<'_, '_> {
    type Item = (Key, Value);

    fn next(&mut self) -> Option<(Key, Value)> {
        let view = self.view;
        while let Some(node) = self.stack.pop() {
            let n = unsafe { node.deref() };
            if n.is_leaf() {
                if n.key > self.hi {
                    // In-order: every remaining key (dummy leaves included) is larger.
                    self.stack.clear();
                    return None;
                }
                if n.key >= self.lo {
                    return Some((n.key, n.value));
                }
            } else if self.hi >= n.key {
                self.push_left(n.child(1).load_view(view.view, &view.guard));
            }
        }
        None
    }
}

impl MapSnapshotView for NbbstView<'_> {
    fn get(&self, key: Key) -> Option<Value> {
        NbbstView::get(self, key)
    }
    fn multi_get(&self, keys: &[Key]) -> Vec<Option<Value>> {
        NbbstView::multi_get(self, keys)
    }
    fn iter(&self) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
        Box::new(NbbstRangeIter::new(self, 0, MAX_KEY))
    }
    fn len(&self) -> usize {
        NbbstView::len(self)
    }
    fn is_empty(&self) -> bool {
        NbbstView::is_empty(self)
    }
    fn range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        NbbstView::range(self, lo, hi)
    }
    fn range_iter(&self, lo: Key, hi: Key) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
        Box::new(NbbstRangeIter::new(self, lo, hi))
    }
    fn successors(&self, key: Key, count: usize) -> Vec<(Key, Value)> {
        NbbstView::successors(self, key, count)
    }
    fn successors_iter(&self, key: Key) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
        if key >= MAX_KEY {
            return Box::new(std::iter::empty());
        }
        Box::new(NbbstRangeIter::new(self, key + 1, MAX_KEY))
    }
    fn find_if(&self, lo: Key, hi: Key, pred: &dyn Fn(Key) -> bool) -> Option<(Key, Value)> {
        NbbstView::find_if(self, lo, hi, pred)
    }
    fn timestamp(&self) -> Option<SnapshotHandle> {
        NbbstView::timestamp(self)
    }
}

impl CameraAttached for Nbbst {
    fn attached_camera(&self) -> Option<&Arc<Camera>> {
        self.camera()
    }
}

impl SnapshotSource for Nbbst {
    fn snapshot_view(&self) -> Box<dyn MapSnapshotView + '_> {
        Box::new(self.view())
    }
    fn view_at(&self, ts: u64) -> Result<Box<dyn MapSnapshotView + '_>, RetentionError> {
        Ok(Box::new(Nbbst::view_at(self, ts)?))
    }
}

struct SearchResult<'g> {
    gp: Shared<'g, Node>,
    p: Shared<'g, Node>,
    gpupdate: Shared<'g, Info>,
    pupdate: Shared<'g, Info>,
    l: Shared<'g, Node>,
}

impl Drop for Nbbst {
    fn drop(&mut self) {
        // Exclusive access. First, over the *current* tree only, collect the operation
        // descriptors currently installed in update words. (Descriptors that were replaced
        // have already been handed to epoch-based reclamation; descriptors installed in
        // unlinked, marked nodes are the same objects as the ones reachable here or
        // already retired, so reading update words of old-version nodes would
        // double-free.) Nodes retiring through the version-reference protocol never touch
        // their descriptors for the same reason.
        let guard = pin();
        let root = self.root.load(Ordering::SeqCst, &guard);

        let mut info_ptrs = std::collections::HashSet::new();
        let mut stack = vec![root];
        let mut seen = std::collections::HashSet::new();
        while let Some(node) = stack.pop() {
            if node.is_null() || !seen.insert(node.as_raw() as usize) {
                continue;
            }
            let n = unsafe { node.deref() };
            if n.children.is_some() {
                let u = n.update.load(Ordering::SeqCst, &guard);
                if !u.is_null() {
                    info_ptrs.insert(u.with_tag(0).as_raw() as usize);
                }
                stack.push(n.child(0).load(&guard));
                stack.push(n.child(1).load(&guard));
            }
        }

        // Then free the nodes.
        match &self.mode {
            // Versioned: every node but the root is owned by the version-reference
            // protocol — freeing the root drops its cells, releasing the references they
            // held, and reclamation cascades through every node of every retained version
            // (deferred through EBR; `vcas_ebr::drain` at a quiescent point settles the
            // counters). Only the root, which no version node ever pointed at, is freed —
            // and counted — here.
            Mode::Versioned(camera) => {
                camera.note_nodes_dropped(1);
                unsafe { drop(Box::from_raw(root.as_raw())) };
            }
            // Plain: unlinked nodes were retired to EBR when unlinked; free what the
            // current tree still reaches.
            Mode::Plain => {
                let mut visited_nodes = std::collections::HashSet::new();
                let mut stack = vec![root];
                while let Some(node) = stack.pop() {
                    if node.is_null() || !visited_nodes.insert(node.as_raw() as usize) {
                        continue;
                    }
                    let n = unsafe { node.deref() };
                    if let Some(children) = &n.children {
                        for child in children {
                            for version in child.all_versions(&guard) {
                                stack.push(version);
                            }
                        }
                    }
                }
                unsafe {
                    for raw in visited_nodes {
                        drop(Box::from_raw(raw as *mut Node));
                    }
                }
            }
        }

        unsafe {
            for raw in info_ptrs {
                drop(Box::from_raw(raw as *mut Info));
            }
        }
    }
}

impl ConcurrentMap for Nbbst {
    fn insert(&self, key: Key, value: Value) -> bool {
        Nbbst::insert(self, key, value)
    }
    fn remove(&self, key: Key) -> bool {
        Nbbst::remove(self, key)
    }
    fn contains(&self, key: Key) -> bool {
        Nbbst::contains(self, key)
    }
    fn get(&self, key: Key) -> Option<Value> {
        Nbbst::get(self, key)
    }
    fn name(&self) -> &'static str {
        self.label
    }
}

/// All multi-point queries come from the trait's view-based defaults.
impl AtomicRangeMap for Nbbst {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn both_modes() -> Vec<Nbbst> {
        vec![Nbbst::new_plain(), Nbbst::new_versioned_default()]
    }

    #[test]
    fn insert_contains_remove_sequential() {
        for tree in both_modes() {
            assert!(tree.insert(5, 50));
            assert!(tree.insert(3, 30));
            assert!(tree.insert(8, 80));
            assert!(!tree.insert(5, 99), "duplicate insert must fail");
            assert!(tree.contains(3));
            assert_eq!(tree.get(8), Some(80));
            assert!(!tree.contains(4));
            assert!(tree.remove(3));
            assert!(!tree.remove(3), "double remove must fail");
            assert!(!tree.contains(3));
            assert_eq!(tree.scan(), vec![(5, 50), (8, 80)]);
        }
    }

    #[test]
    fn empty_tree_queries() {
        for tree in both_modes() {
            assert!(tree.is_empty());
            assert_eq!(tree.scan(), vec![]);
            assert_eq!(tree.get(1), None);
            assert!(!tree.remove(1));
            assert_eq!(tree.range_query(0, 100), vec![]);
            assert_eq!(tree.successors(0, 3), vec![]);
            assert_eq!(tree.multi_search(&[1, 2, 3]), vec![None, None, None]);
        }
    }

    #[test]
    fn matches_btreeset_on_random_ops() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for tree in both_modes() {
            let mut model = BTreeSet::new();
            for _ in 0..4000 {
                let k = rng.gen_range(0..200u64);
                match rng.gen_range(0..3) {
                    0 => assert_eq!(tree.insert(k, k * 10), model.insert(k)),
                    1 => assert_eq!(tree.remove(k), model.remove(&k)),
                    _ => assert_eq!(tree.contains(k), model.contains(&k)),
                }
            }
            let scanned: Vec<Key> = tree.scan().iter().map(|(k, _)| *k).collect();
            let expected: Vec<Key> = model.iter().copied().collect();
            assert_eq!(scanned, expected);
        }
    }

    #[test]
    fn range_and_successors_and_multisearch() {
        for tree in both_modes() {
            for k in (0..100u64).step_by(2) {
                tree.insert(k, k + 1);
            }
            assert_eq!(
                tree.range_query(10, 20),
                vec![(10, 11), (12, 13), (14, 15), (16, 17), (18, 19), (20, 21)]
            );
            assert_eq!(tree.successors(13, 3), vec![(14, 15), (16, 17), (18, 19)]);
            assert_eq!(tree.find_if(0, 100, &|k| k % 14 == 0 && k > 0), Some((14, 15)));
            assert_eq!(tree.multi_search(&[4, 5, 6]), vec![Some(5), None, Some(7)]);
            assert!(tree.height() >= 1);
        }
    }

    #[test]
    fn snapshot_queries_are_stable_under_updates() {
        let tree = Nbbst::new_versioned_default();
        for k in 0..50u64 {
            tree.insert(k, k);
        }
        let camera = tree.camera().unwrap().clone();
        let handle = camera.take_snapshot();
        // Mutate heavily after the snapshot.
        for k in 0..50u64 {
            tree.remove(k);
        }
        for k in 100..150u64 {
            tree.insert(k, k);
        }
        // An as-of view at the old timestamp must still see the original 50 keys.
        let view = tree.view_at(handle.raw()).unwrap();
        let keys: Vec<Key> = view.scan().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..50u64).collect::<Vec<_>>());
        assert_eq!(view.timestamp(), Some(handle));
        assert_eq!(view.len(), 50);
        // The as-of view holds its own pin; plain trees report Unsupported.
        assert_eq!(camera.pinned_count(), 1);
        drop(view);
        assert_eq!(camera.pinned_count(), 0);
        let plain = Nbbst::new_plain();
        assert!(matches!(plain.view_at(0), Err(RetentionError::Unsupported)));
        // And the current state is the new one.
        let now: Vec<Key> = tree.scan().iter().map(|(k, _)| *k).collect();
        assert_eq!(now, (100..150u64).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_inserts_partitioned_keys() {
        for tree in both_modes() {
            let tree = Arc::new(tree);
            let mut handles = Vec::new();
            for t in 0..4u64 {
                let tree = tree.clone();
                handles.push(std::thread::spawn(move || {
                    for k in (t * 1000)..(t * 1000 + 500) {
                        assert!(tree.insert(k, k));
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(tree.len(), 2000);
            for t in 0..4u64 {
                for k in (t * 1000)..(t * 1000 + 500) {
                    assert!(tree.contains(k), "missing key {k}");
                }
            }
        }
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        // Threads fight over a small key space; afterwards every key's membership must agree
        // with a replay of which operation "won" (we only check structural invariants: scan
        // is sorted, no duplicates, contains() agrees with scan()).
        for tree in both_modes() {
            let tree = Arc::new(tree);
            let mut handles = Vec::new();
            for t in 0..4u64 {
                let tree = tree.clone();
                handles.push(std::thread::spawn(move || {
                    use rand::{Rng, SeedableRng};
                    let mut rng = rand::rngs::StdRng::seed_from_u64(t);
                    for _ in 0..3000 {
                        let k = rng.gen_range(0..64u64);
                        if rng.gen_bool(0.5) {
                            tree.insert(k, k);
                        } else {
                            tree.remove(k);
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let scan = tree.scan();
            let keys: Vec<Key> = scan.iter().map(|(k, _)| *k).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(keys, sorted, "scan must be sorted and duplicate-free");
            for k in 0..64u64 {
                assert_eq!(tree.contains(k), keys.contains(&k));
            }
        }
    }

    #[test]
    fn atomic_range_queries_see_prefix_under_ordered_inserts() {
        // Writer inserts 0,1,2,... in order; because each insert is atomic, any atomic range
        // query over the whole key space must observe a gap-free prefix.
        let tree = Arc::new(Nbbst::new_versioned_default());
        let writer = {
            let tree = tree.clone();
            std::thread::spawn(move || {
                for k in 0..3000u64 {
                    tree.insert(k, k);
                }
            })
        };
        let reader = {
            let tree = tree.clone();
            std::thread::spawn(move || {
                for _ in 0..300 {
                    let snap = tree.range_query(0, MAX_KEY);
                    let keys: Vec<Key> = snap.iter().map(|(k, _)| *k).collect();
                    let expected: Vec<Key> = (0..keys.len() as u64).collect();
                    assert_eq!(keys, expected, "atomic range query must see a prefix");
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(tree.len(), 3000);
    }

    #[test]
    fn version_collection_reclaims_old_versions() {
        let camera = Camera::new();
        let tree = Nbbst::new_versioned(&camera);
        for k in 0..200u64 {
            tree.insert(k, k);
        }
        // Advance the camera between the phases: within one timestamp elision recycles
        // displaced versions at publication time, so without this the removes would
        // leave nothing for the lazy truncation below to reclaim.
        camera.take_snapshot();
        for k in 0..200u64 {
            tree.remove(k);
        }
        let retired = tree.collect_versions();
        assert!(retired > 0, "expected some versions to be reclaimed, got {retired}");
        assert!(tree.is_empty());
    }

    #[test]
    fn bounded_collection_covers_the_tree_in_slices() {
        let camera = Camera::new();
        let tree = Nbbst::new_versioned(&camera);
        for k in 1..=200u64 {
            camera.take_snapshot();
            tree.insert(k, k);
        }
        for k in 1..=100u64 {
            camera.take_snapshot();
            tree.remove(k);
        }
        let guard = pin();
        let before = Collectible::version_stats(&tree, &guard);
        assert!(before.max_versions_per_cell > 1, "churn must have grown version lists");

        // Sweep in small slices until one pass reports completion; the cursor must make
        // the passes cover the whole tree.
        let min_active = camera.min_active();
        let mut passes = 0;
        let mut retired = 0;
        loop {
            let s = tree.collect_bounded(min_active, 8, &guard);
            retired += s.versions_retired;
            passes += 1;
            assert!(passes < 1000, "bounded collection must terminate");
            if s.completed_cycle {
                break;
            }
            // A visit truncates both child cells, so a slice may overshoot by one cell.
            assert!(s.cells_visited <= 8 + 1, "slice exceeded its budget");
        }
        assert!(passes > 1, "budget 8 on a 100-key tree must need several slices");
        assert!(retired > 0);
        let after = Collectible::version_stats(&tree, &guard);
        assert_eq!(after.max_versions_per_cell, 1, "no pins: one version per cell remains");
        assert_eq!(tree.len(), 100, "collection must not change the abstract state");
    }

    #[test]
    fn amortized_hook_keeps_versions_bounded_without_manual_calls() {
        use vcas_core::ReclaimPolicy;
        let camera = Camera::new();
        let tree = Arc::new(Nbbst::new_versioned(&camera));
        camera.register_collectible(&tree);
        assert!(ReclaimPolicy::Amortized { every_n_updates: 16, budget: 256 }
            .install(&camera)
            .is_none());
        for round in 0..40u64 {
            for k in 1..=64u64 {
                camera.take_snapshot();
                if round % 2 == 0 {
                    tree.insert(k, k);
                } else {
                    tree.remove(k);
                }
            }
        }
        assert!(camera.versions_retired() > 0, "update hooks never collected");
        let guard = pin();
        let stats = Collectible::version_stats(tree.as_ref(), &guard);
        assert!(
            stats.max_versions_per_cell < 64,
            "version lists must stay bounded under the amortized hook, got {stats:?}"
        );
    }

    #[test]
    fn streaming_range_iter_matches_the_recursive_walk() {
        for tree in both_modes() {
            for k in (0..200u64).step_by(3) {
                tree.insert(k, k + 1);
            }
            let view = tree.view();
            let streamed: Vec<_> = MapSnapshotView::range_iter(&view, 30, 90).collect();
            assert_eq!(streamed, view.range(30, 90));
            let all: Vec<_> = MapSnapshotView::iter(&view).collect();
            assert_eq!(all, view.scan());
            let succ: Vec<_> = MapSnapshotView::successors_iter(&view, 10).take(4).collect();
            assert_eq!(succ, view.successors(10, 4));
        }
    }

    /// A helper that replays an insert's child CAS after the inserted key was removed
    /// must not re-link the removed subtree: the insert's new internal node holds a
    /// *copy* of the old leaf (EFRB's `newSibling`), so the parent never points at the
    /// old leaf again and the replayed `CAS-Child(p, l, new_internal)` fails.
    #[test]
    fn late_insert_helper_cannot_relink_a_removed_key() {
        for tree in both_modes() {
            for k in [10, 20, 30] {
                assert!(tree.insert(k, k));
            }
            let len = tree.len();
            // Held throughout, so the descriptor and every node it names stay allocated.
            let guard = pin();
            assert!(tree.insert(25, 25));
            // The insert's descriptor stays, clean-tagged, in the update word of the
            // parent whose child it replaced: the new leaf's grandparent.
            let s = tree.search(25, &guard);
            assert_eq!(s.gpupdate.tag(), CLEAN);
            let op = s.gpupdate.with_tag(0);
            // SAFETY: `guard` was pinned before the insert published `op`.
            let info = unsafe { op.deref() };
            assert_eq!(info.p, s.gp.into_data());
            assert_eq!(info.new_internal, s.p.into_data());

            assert!(tree.remove(25));
            tree.help_insert(op, &guard);

            assert!(!tree.contains(25), "{}: a late helper re-linked a removed key", tree.label);
            assert_eq!(tree.len(), len, "{}", tree.label);
            assert_eq!(tree.scan(), vec![(10, 10), (20, 20), (30, 30)], "{}", tree.label);
        }
    }

    #[test]
    fn plain_mode_has_no_camera_and_versioned_does() {
        assert!(Nbbst::new_plain().camera().is_none());
        assert!(Nbbst::new_versioned_default().camera().is_some());
        assert!(!Nbbst::new_plain().is_versioned());
        assert!(Nbbst::new_versioned_default().is_versioned());
    }
}
