//! The non-blocking binary search tree of Ellen, Fatourou, Ruppert and van Breugel (PODC
//! 2010) — the unbalanced tree used throughout the paper's evaluation — generic over the
//! pointer-cell [`Mode`]:
//!
//! * **plain** (`Nbbst<Plain>`, [`Nbbst::new_plain`]): child pointers are one-word CAS
//!   objects; this is the original data structure (`BST` in the paper's figures). Unlinked
//!   nodes are reclaimed through epoch-based reclamation.
//! * **versioned** (`Nbbst<Versioned>`, the default, [`Nbbst::new_versioned`]): child
//!   pointers are versioned CAS objects associated with one camera (`VcasBST` in the
//!   paper). Taking a snapshot is constant time and multi-point queries (range,
//!   successors, find-if, multi-search, height, scan) run atomically on the snapshot while
//!   updates proceed concurrently.
//!
//! The tree is leaf-oriented: internal nodes route searches, leaves hold the keys. Updates
//! coordinate through per-node `update` words that pack a state tag (clean / insert-flag /
//! delete-flag / mark) with a pointer to an `Info` record describing the pending operation,
//! so any thread can help a stalled operation complete — the structure is lock-free. Each
//! successful insert or delete is linearized at a single child CAS, which is exactly the
//! property (§4) that makes the set's abstract state a function of the child pointers and
//! therefore snapshot-able by versioning only those pointers (the `update` words stay
//! unversioned — the paper's first optimization in §5).
//!
//! As in EFRB, leaves and internal nodes are separate types: a `Leaf` is a key and a value
//! (24 bytes), an `Internal` a routing key, the `update` word and two child cells (40
//! bytes), plus in versioned mode the 24-byte record of the version that installs it (64
//! bytes). A child pointer word marks a leaf in its low tag bit (`LEAF`), so a traversal
//! knows a node's type before touching it.
//!
//! In versioned mode a child cell costs no version record until it is first changed: a
//! new node's cells hold their initial children directly, and the insert that links a new
//! internal node publishes the record embedded in that node. A search therefore reads a
//! child cell and lands in the child itself, as the plain tree does; pooled version
//! records appear only for a delete's splice and for history kept for snapshots.

use std::marker::PhantomData;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::Arc;
use vcas_core::sync::{AtomicU64, Ordering};

use vcas_core::reclaim::{CellOp, Collectible, SweepCursor, Visit};
use vcas_core::{
    acquire_node_ref, release_node_ref, Camera, Mode, PinnedSnapshot, Plain, PointerCell,
    RetentionError, SnapshotHandle, ValueHook, VersionReferenced, VersionSlot, Versioned,
};
use vcas_ebr::{pin, Atomic, Guard, Owned, Shared};

use crate::traits::{AtomicRangeMap, ConcurrentMap, Key, SnapshotMap, Value, MAX_KEY};
use crate::view::{MapSnapshotView, SnapshotSource};

/// Sentinel key of the root's left dummy leaf: larger than every user key.
const INF1: Key = MAX_KEY + 1;
/// Sentinel key of the root and its right dummy leaf: larger than `INF1`.
const INF2: Key = Key::MAX;

// State tags packed into the low bits of the `update` word.
const CLEAN: usize = 0;
const IFLAG: usize = 1;
const DFLAG: usize = 2;
const MARK: usize = 3;

/// The child a search for `key` follows out of an internal node keyed `node_key`.
#[inline]
fn dir_for(key: Key, node_key: Key) -> usize {
    usize::from(key >= node_key)
}

/// Tag bit of a child pointer word that points at a [`Leaf`] (an untagged word points at
/// an [`Internal`]). Nodes are 8-aligned, so the bit is free.
const LEAF: usize = 1;

/// Operation descriptor used for helping (the paper's `Info` records).
#[repr(align(8))]
struct Info {
    /// Grandparent of the leaf being removed (deletes only); packed pointer word.
    gp: usize,
    /// Parent of the leaf being inserted at / removed.
    p: usize,
    /// The leaf found by the search (a [`NodePtr`] word, leaf-tagged).
    l: usize,
    /// The replacement internal node (inserts only).
    new_internal: usize,
    /// The parent's `update` word observed by the delete's search (deletes only).
    pupdate: usize,
}

/// The prefix both node types start with. Both are `#[repr(C)]` with `Head` first, so a
/// pointer to either node is a valid pointer to its `Head`: the version-reference counter
/// sits at the same offset in both, and a traversal reads the key without knowing the type.
#[repr(C)]
struct Head {
    /// Version-held reference count (versioned mode): one reference per retained version
    /// pointing at this node, plus the creator reference until publication. Unused (and
    /// left at 1) in plain mode. An internal node's `update` word is deliberately *not*
    /// owned by this protocol: descriptors are shared between update words (a delete's
    /// `Info` sits in both the grandparent and the marked parent) and are retired when an
    /// update word replaces them — a retiring node must never free its descriptor.
    refs: AtomicU64,
    key: Key,
}

/// A leaf: one key (a user key or a sentinel) and its value.
#[repr(C)]
struct Leaf {
    head: Head,
    value: Value,
}

/// An internal node: a routing key, the EFRB `update` word and the two child cells, plus,
/// in versioned mode, the record of the version that installs it ([`Mode::Slot`]).
///
/// The slot serves the one publication that links a new internal node, the insert's
/// `CAS-Child(p, l, new_internal)`: the parent's child cell then points into the node a
/// search visits next, instead of at a pooled version node one cache miss away. The
/// insert's helpers race that CAS with the same value; the slot's claim lets exactly one
/// of them publish it (the others take pooled records, and the head CAS picks the
/// winner). A delete's splice relinks an existing sibling, whose slot is taken, so it
/// takes a pooled record.
#[repr(C)]
struct Internal<M: Mode> {
    head: Head,
    children: [ChildCell<M>; 2],
    /// A search reads the key, the children and the slot's word and stamp, and never the
    /// `update` word: keeping those four together (bytes 8..48) halves how often they
    /// straddle two cache lines. On a 2-vCPU x86-64 host, `bst-lookup-large`'s
    /// `lookup_p50_us` read 2.91 µs against 3.09 µs with the slot right after the key.
    slot: M::Slot,
    update: Atomic<Info>,
}

/// A child cell: one word in plain mode, a versioned cell counting references to either
/// node type ([`ChildRefs`]) in versioned mode.
type ChildCell<M> = <M as Mode>::Cell<Head, ChildRefs<M>>;

impl Deref for Leaf {
    type Target = Head;
    fn deref(&self) -> &Head {
        &self.head
    }
}

impl<M: Mode> Deref for Internal<M> {
    type Target = Head;
    fn deref(&self) -> &Head {
        &self.head
    }
}

/// SAFETY: `refs` is touched only by the version-reference protocol, and the tree only
/// republishes pointers obtained from current (head-version) reads under a guard —
/// snapshot reads are never fed back into a CAS. Such a pointer may be retired (counter at
/// zero) by the time it is republished; the managed cell then refuses it and the CAS
/// fails. New nodes' cells only ever point at fresh, unpublished nodes.
unsafe impl VersionReferenced for Leaf {
    fn version_refs(&self) -> &AtomicU64 {
        &self.head.refs
    }
}

/// SAFETY: as for [`Leaf`]: `refs` belongs to the version-reference protocol alone, and
/// only head-version reads are republished.
unsafe impl<M: Mode> VersionReferenced for Internal<M> {
    const HOLDS_CELLS: bool = M::VERSIONED;

    fn version_refs(&self) -> &AtomicU64 {
        &self.head.refs
    }

    /// Destroys both child cells with the tree's camera, releasing the references their
    /// versions hold; the `update` word's descriptor is not the node's to free (see
    /// [`Head`]).
    fn destroy(node: Box<Self>, camera: &Arc<Camera>) {
        let [left, right] = node.children;
        left.destroy(camera);
        right.destroy(camera);
    }
}

impl Leaf {
    fn new(key: Key, value: Value) -> Leaf {
        Leaf { head: Head { refs: AtomicU64::new(1), key }, value }
    }
}

impl<M: Mode> Internal<M> {
    /// An internal node over two children, which must be freshly allocated, unpublished
    /// nodes (so their reference counters are still the creators' 1, never zero).
    fn new(mode: &M, key: Key, left: NodePtr<'_>, right: NodePtr<'_>) -> Internal<M> {
        let cell = |child: NodePtr<'_>| {
            mode.cell(child.0).expect("a fresh node holds its creator reference")
        };
        Internal {
            head: Head { refs: AtomicU64::new(1), key },
            children: [cell(left), cell(right)],
            slot: M::Slot::default(),
            update: Atomic::null(),
        }
    }

    /// The current child in direction `dir`.
    #[inline]
    fn child<'g>(&self, mode: &M, dir: usize, guard: &'g Guard) -> NodePtr<'g> {
        NodePtr(self.children[dir].load(mode, guard))
    }

    /// The child in direction `dir` as of `at` (the current one when `at` is `None`).
    #[inline]
    fn child_at<'g>(
        &self,
        mode: &M,
        dir: usize,
        at: Option<SnapshotHandle>,
        guard: &'g Guard,
    ) -> NodePtr<'g> {
        NodePtr(self.children[dir].load_at(mode, at, guard))
    }
}

/// A child pointer word: an [`Internal`], or a [`Leaf`] when tagged [`LEAF`]. Equality
/// compares the whole word; a node's tag never changes, so that is pointer equality.
#[derive(Clone, Copy, PartialEq, Eq)]
struct NodePtr<'g>(Shared<'g, Head>);

/// A dereferenced [`NodePtr`], by node type.
enum NodeRef<'g, M: Mode> {
    Leaf(&'g Leaf),
    Internal(&'g Internal<M>),
}

impl<'g> NodePtr<'g> {
    fn from_leaf(leaf: Shared<'g, Leaf>) -> NodePtr<'g> {
        // SAFETY: a `Leaf` starts with its `Head` (`#[repr(C)]`), so the untagged word is a
        // valid `Head` pointer with the same alignment; the guard lifetime carries over.
        NodePtr(unsafe { Shared::from_data(leaf.with_tag(0).into_data()) }.with_tag(LEAF))
    }

    fn from_internal<M: Mode>(node: Shared<'g, Internal<M>>) -> NodePtr<'g> {
        // SAFETY: as in `from_leaf`, for an `Internal`; the word stays untagged.
        NodePtr(unsafe { Shared::from_data(node.with_tag(0).into_data()) })
    }

    /// Rebuilds a pointer from a descriptor word.
    ///
    /// # Safety
    /// `word` must come from [`NodePtr::into_data`], and the node it names (if any) must be
    /// protected by the guard of `'g`.
    unsafe fn from_data(word: usize) -> NodePtr<'g> {
        NodePtr(Shared::from_data(word))
    }

    fn into_data(self) -> usize {
        self.0.into_data()
    }

    fn is_leaf(self) -> bool {
        self.0.tag() & LEAF != 0
    }

    /// The typed leaf pointer (meaningful only when [`NodePtr::is_leaf`]).
    fn leaf(self) -> Shared<'g, Leaf> {
        // SAFETY: the untagged word is the address the leaf was allocated at (`from_leaf`).
        unsafe { Shared::from_data(self.0.with_tag(0).into_data()) }
    }

    /// The typed internal-node pointer (meaningful only when not [`NodePtr::is_leaf`]).
    fn internal<M: Mode>(self) -> Shared<'g, Internal<M>> {
        // SAFETY: an untagged word is the address the internal node was allocated at.
        unsafe { Shared::from_data(self.0.into_data()) }
    }

    /// Dereferences the node as its own type, chosen by the leaf tag.
    ///
    /// # Safety
    /// The pointer must be non-null and loaded under the guard of `'g` — from a child cell,
    /// the root, or a descriptor that guard protects — so the node is not yet freed, and
    /// it must belong to a tree of mode `M`.
    unsafe fn get<M: Mode>(self) -> NodeRef<'g, M> {
        if self.is_leaf() {
            NodeRef::Leaf(self.leaf().deref())
        } else {
            NodeRef::Internal(self.internal().deref())
        }
    }

    /// The key of either node type.
    ///
    /// # Safety
    /// As for [`NodePtr::get`].
    unsafe fn key(self) -> Key {
        self.0.deref().key
    }
}

/// The value hook of the tree's versioned child cells: version-held reference counting
/// ([`VersionReferenced`]) over both node types. The leaf tag of the full pointer word
/// picks the type, so a node whose last reference goes is retired — and later freed — with
/// its own layout. An internal node's embedded version record is its slot
/// ([`ValueHook::slot`]). Plain cells ignore the hook.
struct ChildRefs<M>(PhantomData<fn() -> M>);

impl<M: Mode> ValueHook<usize> for ChildRefs<M> {
    #[inline]
    fn acquire(word: usize) -> bool {
        // SAFETY: every value of a child cell is a `NodePtr` word, acquired under the
        // caller's guard.
        let node = unsafe { NodePtr::from_data(word) };
        if node.is_leaf() {
            acquire_node_ref(node.leaf())
        } else {
            acquire_node_ref(node.internal::<M>())
        }
    }

    #[inline]
    fn release(word: usize, camera: &Arc<Camera>, guard: &Guard) {
        // SAFETY: the version node being destroyed held a counted reference, so the word
        // still names a live node, which `guard` protects.
        let node = unsafe { NodePtr::from_data(word) };
        if node.is_leaf() {
            release_node_ref(node.leaf(), camera, guard);
        } else {
            release_node_ref(node.internal::<M>(), camera, guard);
        }
    }

    #[inline]
    fn slot(word: usize) -> Option<NonNull<VersionSlot>> {
        // SAFETY: every value of a child cell is a `NodePtr` word.
        let node = unsafe { NodePtr::from_data(word) };
        if node.is_leaf() || node.0.is_null() {
            return None;
        }
        // SAFETY: the hook is asked only for an accepted, unreleased value, whose node is
        // therefore allocated.
        let internal = unsafe { node.internal::<M>().deref() };
        M::version_slot(&internal.slot).map(NonNull::from)
    }
}

/// The non-blocking binary search tree (see module docs), `VcasBST` unless `M` is
/// [`Plain`].
pub struct Nbbst<M: Mode = Versioned> {
    root: Atomic<Internal<M>>,
    mode: M,
    /// Where the next bounded collection pass resumes ([`Collectible`]).
    sweep: SweepCursor,
}

impl Nbbst<Plain> {
    /// Creates the original (unversioned) tree — `BST` in the paper's figures.
    pub fn new_plain() -> Nbbst<Plain> {
        Self::with_mode(Plain)
    }
}

impl Nbbst {
    /// Creates the snapshot-capable tree (`VcasBST`): every child pointer is a versioned CAS
    /// object associated with `camera`.
    pub fn new_versioned(camera: &Arc<Camera>) -> Nbbst {
        Self::with_mode(Versioned::new(camera))
    }

    /// Creates a snapshot-capable tree with its own private camera.
    pub fn new_versioned_default() -> Nbbst {
        Self::new_versioned(&Camera::new())
    }
}

impl<M: Mode> Nbbst<M> {
    fn with_mode(mode: M) -> Nbbst<M> {
        let guard = pin();
        let left_leaf = Owned::new(Leaf::new(INF1, 0)).into_shared(&guard);
        let right_leaf = Owned::new(Leaf::new(INF2, 0)).into_shared(&guard);
        let root = Internal::new(
            &mode,
            INF2,
            NodePtr::from_leaf(left_leaf),
            NodePtr::from_leaf(right_leaf),
        );
        if let Some(camera) = mode.camera() {
            camera.note_nodes_created(3);
            // The dummy leaves are published (the root's child cells hold counted
            // references to them), so their creator references are handed off here. The
            // root itself is never held by a version node and keeps its creator
            // reference; the destructor frees it directly.
            release_node_ref(left_leaf, camera, &guard);
            release_node_ref(right_leaf, camera, &guard);
        }
        Nbbst { root: Atomic::new(root), mode, sweep: SweepCursor::default() }
    }

    /// After a successful insert/remove, gives the camera's amortized reclamation hook its
    /// tick (a no-op unless an [`vcas_core::ReclaimPolicy::Amortized`] policy is installed).
    #[inline]
    fn after_update(&self, guard: &Guard) {
        if let Some(camera) = self.mode.camera() {
            camera.reclaim_tick(guard);
        }
    }

    /// The root, as a child pointer word (it is never a leaf and never null).
    fn root<'g>(&self, guard: &'g Guard) -> NodePtr<'g> {
        NodePtr::from_internal(self.root.load(Ordering::SeqCst, guard))
    }

    // ----- search ---------------------------------------------------------------------

    /// The paper's `Search(k)`: walks from the root to a leaf, remembering the last two
    /// internal nodes and their update words.
    fn search<'g>(&self, key: Key, guard: &'g Guard) -> SearchResult<'g, M> {
        let mut gp = Shared::null();
        let mut gpupdate = Shared::null();
        let mut p = Shared::null();
        let mut pupdate = Shared::null();
        let mut l = self.root(guard);
        // SAFETY: every pointer on the walk was loaded under `guard` from the root or a
        // child cell (never null: the root has two children and so does every internal).
        while let NodeRef::Internal(n) = unsafe { l.get::<M>() } {
            gp = p;
            gpupdate = pupdate;
            p = l.internal();
            pupdate = n.update.load(Ordering::SeqCst, guard);
            l = n.child(&self.mode, dir_for(key, n.key), guard);
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
            // SAFETY: the search ends at a leaf it loaded under `guard`.
            let l_ref = unsafe { s.l.leaf().deref() };
            if l_ref.key == key {
                return false;
            }
            if s.pupdate.tag() != CLEAN {
                self.help(s.pupdate, &guard);
                continue;
            }
            // SAFETY: a search that reached a leaf passed the root, so `p` is a non-null
            // internal node loaded under `guard`.
            let p_ref = unsafe { s.p.deref() };

            // Build the replacement subtree: a new leaf for `key`, and an internal node
            // whose other child is a fresh copy of the found leaf `l` — EFRB's
            // `newSibling`. Reusing `l` itself would let the parent's child return to `l`
            // after a later remove of `key`, and a late helper's `CAS-Child(p, l,
            // new_internal)` would then re-link this (by then removed and retired) subtree.
            let new_leaf = Owned::new(Leaf::new(key, value)).into_shared(&guard);
            let new_sibling = Owned::new(Leaf::new(l_ref.key, l_ref.value)).into_shared(&guard);
            let (lc, rc) =
                if key < l_ref.key { (new_leaf, new_sibling) } else { (new_sibling, new_leaf) };
            let new_internal = Owned::new(Internal::new(
                &self.mode,
                key.max(l_ref.key),
                NodePtr::from_leaf(lc),
                NodePtr::from_leaf(rc),
            ))
            .into_shared(&guard);
            if let Some(camera) = self.mode.camera() {
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
                    // SAFETY: the iflag CAS replaced the descriptor, so new readers cannot
                    // reach it through `p`; a clean descriptor sits in no other update word,
                    // and only the CAS winner retires it, exactly once.
                    unsafe { guard.defer_destroy(s.pupdate.with_tag(0)) };
                }
                self.help_insert(op, &guard);
                if let Some(camera) = self.mode.camera() {
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
                // immediately. Order matters in versioned mode: destroying `new_internal`
                // releases the counted references its cells held on the two leaves (back
                // to the creator references we free next).
                // SAFETY: the iflag CAS failed, so `op` and the three nodes were never
                // reachable by another thread; this thread owns each and frees it once,
                // each with its own type.
                let internal = unsafe {
                    drop(op.into_owned());
                    Box::from_raw(new_internal.as_raw())
                };
                match self.mode.camera() {
                    Some(camera) => {
                        camera.note_nodes_dropped(3);
                        VersionReferenced::destroy(internal, camera);
                    }
                    None => drop(internal),
                }
                // SAFETY: as above; the leaves are still unpublished and ours alone.
                unsafe {
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
        if key > MAX_KEY {
            return false; // a sentinel, never a user key
        }
        let guard = pin();
        let mut attempts = 0u32;
        loop {
            crate::backoff(&mut attempts);
            let s = self.search(key, &guard);
            // SAFETY: the search ends at a leaf it loaded under `guard`.
            let l_ref = unsafe { s.l.leaf().deref() };
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
            // SAFETY: a user key's leaf sits at depth >= 2 (the root's left child is an
            // internal node once any key exists), so `gp` is a non-null internal node
            // loaded under `guard`.
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
                    // SAFETY: as for the iflag CAS in `insert`: the winner of the dflag CAS
                    // is the unique thread retiring the clean descriptor it replaced.
                    unsafe { guard.defer_destroy(s.gpupdate.with_tag(0)) };
                }
                if self.help_delete(op, &guard) {
                    self.after_update(&guard);
                    return true;
                }
            } else {
                // SAFETY: the dflag CAS failed, so `op` was never published; this thread
                // owns it and frees it once.
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
        if key > MAX_KEY {
            return None; // a sentinel, never a user key
        }
        let guard = pin();
        let mut node = self.root(&guard);
        loop {
            // SAFETY: loaded under `guard` from the root or a child cell; never null.
            match unsafe { node.get::<M>() } {
                NodeRef::Leaf(leaf) => return (leaf.key == key).then_some(leaf.value),
                NodeRef::Internal(n) => node = n.child(&self.mode, dir_for(key, n.key), &guard),
            }
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
        // SAFETY: `op` was read from an update word (or created by us) under `guard`, and
        // descriptors are retired only through EBR, so it is still allocated.
        let info = unsafe { op.deref() };
        // SAFETY: the descriptor's words were packed from pointers of these types; the
        // nodes they name are protected by `guard` as long as `op` is.
        let (p, l, new_internal) = unsafe {
            (
                Shared::<'_, Internal<M>>::from_data(info.p),
                NodePtr::from_data(info.l),
                NodePtr::from_data(info.new_internal),
            )
        };
        self.cas_child(p, l, new_internal, guard);
        // iunflag: release the parent.
        // SAFETY: `p` is the non-null parent named by the descriptor, protected as above.
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
        if unflagged && !M::VERSIONED {
            // SAFETY: while `p` is flagged only this operation's child CAS can change its
            // child, so once any helper's CAS attempt returned, `l` is unlinked for good
            // (its copy took its place, and nothing re-links it). The unique winner of the
            // iunflag retires it — after which no thread can newly read `op` as a pending
            // insert, so every thread that may still compare against `l` is pinned.
            // Versioned mode retires `l` through its counter instead.
            unsafe { guard.defer_destroy(l.leaf()) };
        }
    }

    fn help_delete(&self, op: Shared<'_, Info>, guard: &Guard) -> bool {
        // SAFETY: as in `help_insert`: `op` and the nodes it names are protected by `guard`.
        let info = unsafe { op.deref() };
        // SAFETY: the descriptor's words were packed from pointers of these types.
        let (p, pupdate, gp) = unsafe {
            (
                Shared::<'_, Internal<M>>::from_data(info.p),
                Shared::<'_, Info>::from_data(info.pupdate),
                Shared::<'_, Internal<M>>::from_data(info.gp),
            )
        };
        // SAFETY: a delete descriptor names a non-null parent, protected as above.
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
                    // SAFETY: the mark CAS replaced `pupdate` in the parent's update word,
                    // its only home; the CAS winner retires it exactly once.
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
                    // SAFETY: a delete descriptor names a non-null grandparent, protected
                    // by `guard` as above.
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
        // SAFETY: as in `help_insert`: `op` and the nodes it names are protected by `guard`.
        let info = unsafe { op.deref() };
        // SAFETY: the descriptor's words were packed from pointers of these types.
        let (gp, p, l) = unsafe {
            (
                Shared::<'_, Internal<M>>::from_data(info.gp),
                Shared::<'_, Internal<M>>::from_data(info.p),
                NodePtr::from_data(info.l),
            )
        };
        // SAFETY: a delete descriptor names a non-null parent, protected as above.
        let p_ref = unsafe { p.deref() };

        // The sibling of the removed leaf replaces the parent.
        let right = p_ref.child(&self.mode, 1, guard);
        let other = if right == l { p_ref.child(&self.mode, 0, guard) } else { right };

        self.cas_child(gp, NodePtr::from_internal(p), other, guard);
        // dunflag: release the grandparent.
        // SAFETY: a delete descriptor names a non-null grandparent, protected as above.
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
        if unflagged && !M::VERSIONED {
            // SAFETY: as in `help_insert` — once any helper's splice attempt returned,
            // `p` and `l` are unlinked, and the unique winner of the dunflag retires them
            // after which no thread can newly read `op` as a pending delete; threads that
            // still reach them (through the tree, or `op` in an update word) are pinned.
            unsafe {
                guard.defer_destroy(p);
                guard.defer_destroy(l.leaf());
            }
        }
    }

    /// The paper's `CAS-Child(parent, old, new)`.
    fn cas_child(
        &self,
        parent: Shared<'_, Internal<M>>,
        old: NodePtr<'_>,
        new: NodePtr<'_>,
        guard: &Guard,
    ) -> bool {
        // SAFETY: `parent` and `new` come from a descriptor or a child cell read under
        // `guard` (see the callers), so both are non-null and still allocated.
        let (parent_ref, new_key) = unsafe { (parent.deref(), new.key()) };
        let dir = dir_for(new_key, parent_ref.key);
        parent_ref.children[dir].compare_exchange(&self.mode, old.0, new.0, guard)
    }

    // ----- multi-point queries ----------------------------------------------------------
    //
    // Every multi-point query runs against an [`NbbstView`] through the
    // [`MapSnapshotView`] trait: one snapshot, one EBR pin, arbitrarily many reads.

    /// Opens a pinned snapshot view of the tree's state right now (the primary multi-point
    /// query surface; see [`crate::view`]). In plain mode the view reads current state.
    pub fn view(&self) -> NbbstView<'_, M> {
        NbbstView::new(self, self.mode.pin_snapshot())
    }

    /// Opens a view of the tree **as of** timestamp `ts` — any retained timestamp, not
    /// just one being taken right now. The view pins `ts`
    /// ([`vcas_core::Camera::pin_snapshot_at`]), so it stays exact until dropped even
    /// while writers run and reclamation truncates other history. Fails if `ts` is below
    /// the retention watermark, in the future, or if the tree is in plain (history-less)
    /// mode; see [`vcas_core::RetentionError`].
    pub fn view_at(&self, ts: u64) -> Result<NbbstView<'_, M>, RetentionError> {
        Ok(NbbstView::new(self, Some(self.mode.pin_snapshot_at(ts)?)))
    }

    /// Atomic `multisearch` (Table 2). Kept for the repository benchmark, which calls it
    /// by this name: a forwarder to [`MapSnapshotView::multi_get`].
    pub fn multi_search(&self, keys: &[Key]) -> Vec<Option<Value>> {
        self.view().multi_get(keys)
    }

    /// Atomic full scan, ascending. Kept for the repository benchmark, which calls it by
    /// this name: a forwarder to [`MapSnapshotView::range`].
    pub fn scan(&self) -> Vec<(Key, Value)> {
        self.view().range(0, MAX_KEY)
    }

    /// Atomic structural query: the height of the tree (number of internal levels) on
    /// one snapshot.
    pub fn height(&self) -> usize {
        fn depth<M: Mode>(view: &NbbstView<'_, M>, node: NodePtr<'_>) -> usize {
            // SAFETY: loaded under `view.guard` from the root or a child cell's view.
            let NodeRef::Internal(n) = (unsafe { node.get::<M>() }) else { return 0 };
            let mode = &view.tree.mode;
            let left = depth(view, n.child_at(mode, 0, view.handle(), &view.guard));
            let right = depth(view, n.child_at(mode, 1, view.handle(), &view.guard));
            1 + left.max(right)
        }
        let view = self.view();
        depth(&view, self.root(&view.guard))
    }
}

/// The cell visitor walks the internal nodes *in key order*, both child cells each. In
/// order matters: when a bounded pass stops at a node, every internal node with a smaller
/// key has been visited, so the next pass skips the left subtrees whose keys all lie
/// before the cursor. Nodes on the search path to the cursor are routed through, not
/// revisited, which keeps the resume state one key instead of a traversal stack over a
/// mutating tree.
impl<M: Mode> Collectible for Nbbst<M> {
    fn visit_cells(&self, op: CellOp, budget: usize, resume: bool, guard: &Guard) -> Visit {
        enum Step<'g, M: Mode> {
            Expand(NodePtr<'g>),
            Visit(&'g Internal<M>),
        }
        let mut sweep = self.sweep.visit(op, budget, resume);
        let mut stack = vec![Step::Expand(self.root(guard))];
        while let Some(step) = stack.pop() {
            match step {
                Step::Expand(node) => {
                    // SAFETY: loaded under `guard` from the root or a child cell; never null.
                    let NodeRef::Internal(n) = (unsafe { node.get::<M>() }) else { continue };
                    // Left subtree, the node, right subtree. The left one holds keys
                    // below `n.key` only: skip it once `n.key - 1` was passed.
                    stack.push(Step::Expand(n.child(&self.mode, 1, guard)));
                    stack.push(Step::Visit(n));
                    if !sweep.passed(0, n.key.saturating_sub(1)) {
                        stack.push(Step::Expand(n.child(&self.mode, 0, guard)));
                    }
                }
                Step::Visit(n) => {
                    if !sweep.node(0, Some(n.key), &self.mode, &n.children, guard) {
                        break;
                    }
                }
            }
        }
        sweep.finish()
    }
}

/// A snapshot view of an [`Nbbst`]: every query on one view observes the same timestamp
/// (see [`Nbbst::view`] / [`Nbbst::view_at`]). Holds the snapshot pin (when pinned) and a
/// single EBR guard for its whole lifetime, so a batch of queries pays for both once.
pub struct NbbstView<'a, M: Mode = Versioned> {
    tree: &'a Nbbst<M>,
    /// Keeps the snapshot registered with the camera so version-list truncation cannot
    /// reclaim versions this view may read (`None`: the current state, in plain mode).
    snapshot: Option<PinnedSnapshot>,
    guard: Guard,
}

impl<'a, M: Mode> NbbstView<'a, M> {
    fn new(tree: &'a Nbbst<M>, snapshot: Option<PinnedSnapshot>) -> NbbstView<'a, M> {
        NbbstView { tree, snapshot, guard: pin() }
    }

    /// The snapshot the view reads at (`None`: the current state, in plain mode).
    fn handle(&self) -> Option<SnapshotHandle> {
        self.snapshot.as_ref().map(PinnedSnapshot::handle)
    }

    /// Every `(key, value)` pair with `lo <= key <= hi`, ascending. Kept for the
    /// repository benchmark, which calls it without the trait in scope: a forwarder to
    /// [`MapSnapshotView::range`].
    pub fn range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        MapSnapshotView::range(self, lo, hi)
    }
}

/// The view's one ordered cursor: an in-order descent stack yielding leaves lazily —
/// `O(log n)` to position, one root-to-leaf continuation per yielded pair, nothing
/// materialized.
struct NbbstRangeIter<'v, 'a, M: Mode> {
    view: &'v NbbstView<'a, M>,
    /// In-order continuation: internal nodes whose right subtree is still pending, with
    /// the next leaf to visit on top.
    stack: Vec<NodePtr<'v>>,
    lo: Key,
    hi: Key,
}

impl<'v, 'a, M: Mode> NbbstRangeIter<'v, 'a, M> {
    fn new(view: &'v NbbstView<'a, M>, lo: Key, hi: Key) -> NbbstRangeIter<'v, 'a, M> {
        let mut it = NbbstRangeIter { view, stack: Vec::new(), lo, hi: hi.min(MAX_KEY) };
        it.push_left(view.tree.root(&view.guard));
        it
    }

    /// Descends toward the first in-range leaf under `node`, stacking the internal nodes
    /// whose right subtrees remain to be visited. Left subtrees entirely below `lo` are
    /// skipped (leaf-oriented tree: left keys `< node.key <=` right keys).
    fn push_left(&mut self, mut node: NodePtr<'v>) {
        let view = self.view;
        loop {
            // SAFETY: loaded under `view.guard` from the root or a child cell's view.
            let NodeRef::Internal(n) = (unsafe { node.get::<M>() }) else {
                self.stack.push(node);
                return;
            };
            if self.lo < n.key {
                self.stack.push(node);
                node = n.child_at(&view.tree.mode, 0, view.handle(), &view.guard);
            } else {
                node = n.child_at(&view.tree.mode, 1, view.handle(), &view.guard);
            }
        }
    }
}

impl<M: Mode> Iterator for NbbstRangeIter<'_, '_, M> {
    type Item = (Key, Value);

    fn next(&mut self) -> Option<(Key, Value)> {
        let view = self.view;
        while let Some(node) = self.stack.pop() {
            // SAFETY: stacked by `push_left`, which loaded it under `view.guard`.
            match unsafe { node.get::<M>() } {
                NodeRef::Leaf(leaf) => {
                    if leaf.key > self.hi {
                        // In-order: every remaining key (dummy leaves included) is larger.
                        self.stack.clear();
                        return None;
                    }
                    if leaf.key >= self.lo {
                        return Some((leaf.key, leaf.value));
                    }
                }
                NodeRef::Internal(n) if self.hi >= n.key => {
                    self.push_left(n.child_at(&view.tree.mode, 1, view.handle(), &view.guard));
                }
                NodeRef::Internal(_) => {}
            }
        }
        None
    }
}

impl<M: Mode> MapSnapshotView for NbbstView<'_, M> {
    fn get(&self, key: Key) -> Option<Value> {
        if key > MAX_KEY {
            return None; // a sentinel, never a user key
        }
        let (handle, mut node) = (self.handle(), self.tree.root(&self.guard));
        loop {
            // SAFETY: loaded under `self.guard` from the root or a child cell's view.
            match unsafe { node.get::<M>() } {
                NodeRef::Leaf(leaf) => return (leaf.key == key).then_some(leaf.value),
                NodeRef::Internal(n) => {
                    let dir = dir_for(key, n.key);
                    node = n.child_at(&self.tree.mode, dir, handle, &self.guard)
                }
            }
        }
    }
    fn range_iter(&self, lo: Key, hi: Key) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
        Box::new(NbbstRangeIter::new(self, lo, hi))
    }
    fn timestamp(&self) -> Option<SnapshotHandle> {
        self.handle()
    }
}

impl<M: Mode> SnapshotSource for Nbbst<M> {
    fn camera(&self) -> Option<&Arc<Camera>> {
        self.mode.camera()
    }
    fn snapshot_view(&self) -> Box<dyn MapSnapshotView + '_> {
        Box::new(self.view())
    }
    fn view_at(&self, ts: u64) -> Result<Box<dyn MapSnapshotView + '_>, RetentionError> {
        Ok(Box::new(Nbbst::view_at(self, ts)?))
    }
}

struct SearchResult<'g, M: Mode> {
    gp: Shared<'g, Internal<M>>,
    p: Shared<'g, Internal<M>>,
    gpupdate: Shared<'g, Info>,
    pupdate: Shared<'g, Info>,
    l: NodePtr<'g>,
}

impl<M: Mode> Drop for Nbbst<M> {
    fn drop(&mut self) {
        // Exclusive access. Walk the *current* tree only, collecting its nodes and the
        // operation descriptors currently installed in update words. (Descriptors that were
        // replaced have already been handed to epoch-based reclamation; descriptors
        // installed in unlinked, marked nodes are the same objects as the ones reachable
        // here or already retired, so reading update words of old-version nodes would
        // double-free.) Nodes retiring through the version-reference protocol never touch
        // their descriptors for the same reason.
        let guard = pin();
        let root = self.root(&guard);
        let mut info_ptrs = std::collections::HashSet::new();
        let mut nodes = std::collections::HashSet::new();
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            if !nodes.insert(node.into_data()) {
                continue;
            }
            // SAFETY: loaded under `guard` from the root or a child cell, and nothing is
            // freed before the walk ends.
            if let NodeRef::Internal(n) = unsafe { node.get::<M>() } {
                let u = n.update.load(Ordering::SeqCst, &guard);
                if !u.is_null() {
                    info_ptrs.insert(u.with_tag(0).as_raw() as usize);
                }
                stack.extend(n.children.iter().map(|c| NodePtr(c.load(&self.mode, &guard))));
            }
        }

        if let Some(camera) = self.mode.camera() {
            // Versioned: every node but the root is owned by the version-reference
            // protocol — destroying the root's cells releases the references they held,
            // and reclamation cascades through every node of every retained version
            // (deferred through EBR, each node freed as its own type by `ChildRefs`;
            // `vcas_ebr::drain` at a quiescent point settles the counters). Only the root,
            // which no version node ever pointed at, is freed — and counted — here.
            camera.note_nodes_dropped(1);
            // SAFETY: `&mut self` — the root was allocated by `Atomic::new`, is
            // referenced by no version node, and is freed exactly once, here.
            let root = unsafe { Box::from_raw(root.internal::<M>().as_raw()) };
            VersionReferenced::destroy(root, camera);
        } else {
            // Plain: unlinked nodes were retired to EBR when unlinked; free what the
            // current tree still reaches, each as its own type.
            for word in nodes {
                // SAFETY: `word` came from `into_data` during the walk above.
                let node = unsafe { NodePtr::from_data(word) };
                // SAFETY: `&mut self`: every node the current tree reaches is owned by
                // the tree alone, visited once (the set), and freed exactly once here.
                unsafe {
                    if node.is_leaf() {
                        drop(node.leaf().into_owned());
                    } else {
                        drop(node.internal::<M>().into_owned());
                    }
                }
            }
        }

        // SAFETY: `&mut self` — each descriptor still installed in the current tree is
        // reachable from no retired update word (see above) and is freed exactly once.
        unsafe {
            for raw in info_ptrs {
                drop(Box::from_raw(raw as *mut Info));
            }
        }
    }
}

impl<M: Mode> ConcurrentMap for Nbbst<M> {
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
        if M::VERSIONED {
            "VcasBST"
        } else {
            "BST"
        }
    }
}

/// All multi-point queries come from the trait's view-based defaults.
impl<M: Mode> SnapshotMap for Nbbst<M> {}
impl<M: Mode> AtomicRangeMap for Nbbst<M> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn plain() -> Nbbst<Plain> {
        Nbbst::new_plain()
    }

    fn versioned() -> Nbbst {
        Nbbst::new_versioned_default()
    }

    #[test]
    fn insert_contains_remove_sequential() {
        for_both_modes!(|tree| {
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
        });
    }

    #[test]
    fn empty_tree_queries() {
        for_both_modes!(|tree| {
            assert!(tree.view().is_empty());
            assert_eq!(tree.scan(), vec![]);
            assert_eq!(tree.get(1), None);
            assert!(!tree.remove(1));
            assert_eq!(tree.range(0, 100), vec![]);
            assert_eq!(tree.successors(0, 3), vec![]);
            assert_eq!(tree.multi_get(&[1, 2, 3]), vec![None, None, None]);
        });
    }

    #[test]
    fn matches_btreeset_on_random_ops() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for_both_modes!(|tree| {
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
        });
    }

    #[test]
    fn range_and_successors_and_multisearch() {
        for_both_modes!(|tree| {
            for k in (0..100u64).step_by(2) {
                tree.insert(k, k + 1);
            }
            assert_eq!(
                tree.range(10, 20),
                vec![(10, 11), (12, 13), (14, 15), (16, 17), (18, 19), (20, 21)]
            );
            assert_eq!(tree.successors(13, 3), vec![(14, 15), (16, 17), (18, 19)]);
            assert_eq!(tree.find_if(0, 100, &|k| k % 14 == 0 && k > 0), Some((14, 15)));
            assert_eq!(tree.multi_get(&[4, 5, 6]), vec![Some(5), None, Some(7)]);
            assert!(tree.height() >= 1);
        });
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
        let keys: Vec<Key> = view.iter().collect::<Vec<_>>().iter().map(|(k, _)| *k).collect();
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
        for_both_modes!(|tree| {
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
            assert_eq!(tree.view().len(), 2000);
            for t in 0..4u64 {
                for k in (t * 1000)..(t * 1000 + 500) {
                    assert!(tree.contains(k), "missing key {k}");
                }
            }
        });
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        // Threads fight over a small key space; afterwards every key's membership must agree
        // with a replay of which operation "won" (we only check structural invariants: scan
        // is sorted, no duplicates, contains() agrees with scan()).
        for_both_modes!(|tree| {
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
        });
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
                    let snap = tree.range(0, MAX_KEY);
                    let keys: Vec<Key> = snap.iter().map(|(k, _)| *k).collect();
                    let expected: Vec<Key> = (0..keys.len() as u64).collect();
                    assert_eq!(keys, expected, "atomic range query must see a prefix");
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(tree.view().len(), 3000);
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
        let floor = camera.retention_floor();
        let retired =
            Collectible::collect_bounded(&tree, floor, usize::MAX, &pin()).versions_retired;
        assert!(retired > 0, "expected some versions to be reclaimed, got {retired}");
        assert!(tree.view().is_empty());
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
        assert_eq!(tree.view().len(), 100, "collection must not change the abstract state");
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
    fn range_iter_matches_a_btreemap_model() {
        for_both_modes!(|tree| {
            let model: std::collections::BTreeMap<Key, Value> =
                (0..200u64).step_by(3).map(|k| (k, k + 1)).collect();
            for (&k, &v) in &model {
                tree.insert(k, v);
            }
            let view = tree.view();
            let expect = |lo: Key, hi: Key| -> Vec<(Key, Value)> {
                model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()
            };
            assert_eq!(view.range_iter(30, 90).collect::<Vec<_>>(), expect(30, 90));
            assert_eq!(view.iter().collect::<Vec<_>>(), expect(0, MAX_KEY));
            assert_eq!(view.successors(10, 4), expect(11, 21));
            assert_eq!(view.range(91, 90), vec![]);
            assert_eq!(view.successors(MAX_KEY, 4), vec![]);
            assert_eq!(view.get(MAX_KEY + 1), None, "sentinel leaves are not keys");
            assert_eq!(view.get(Key::MAX), None, "sentinel leaves are not keys");
        });
    }

    /// A helper that replays an insert's child CAS after the inserted key was removed
    /// must not re-link the removed subtree: the insert's new internal node holds a
    /// *copy* of the old leaf (EFRB's `newSibling`), so the parent never points at the
    /// old leaf again and the replayed `CAS-Child(p, l, new_internal)` fails.
    #[test]
    fn late_insert_helper_cannot_relink_a_removed_key() {
        for_both_modes!(|tree| {
            for k in [10, 20, 30] {
                assert!(tree.insert(k, k));
            }
            let len = tree.view().len();
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

            assert!(
                !tree.contains(25),
                "{}: a late helper re-linked a removed key",
                ConcurrentMap::name(&tree)
            );
            assert_eq!(tree.view().len(), len, "{}", ConcurrentMap::name(&tree));
            assert_eq!(
                tree.scan(),
                vec![(10, 10), (20, 20), (30, 30)],
                "{}",
                ConcurrentMap::name(&tree)
            );
        });
    }

    /// Layout budget: a field added to either node type fails here, not only in the
    /// benchmark's byte census. A leaf is key, value and counter; an internal node adds
    /// the `update` word and two child cells instead of the value — one word each in
    /// either mode (the versioned cells' camera is the tree's) — and, in versioned mode
    /// only, the embedded record of the version that installs it.
    #[test]
    fn node_layouts_stay_within_budget() {
        use std::mem::size_of;
        assert!(size_of::<Leaf>() <= 24, "Leaf is {} B", size_of::<Leaf>());
        let plain = size_of::<Internal<Plain>>();
        assert!(plain <= 40, "Internal<Plain> is {plain} B");
        let versioned = size_of::<Internal<Versioned>>();
        assert_eq!(
            versioned,
            40 + size_of::<VersionSlot>(),
            "Internal<Versioned> is {versioned} B"
        );
        assert_eq!(size_of::<VersionSlot>(), 24, "a slot is one version record");
        // The shared prefix sits at offset 0 of both types (what `NodePtr` casts rely on).
        let leaf = Leaf::new(1, 2);
        assert_eq!(std::ptr::addr_of!(leaf.head).cast::<u8>(), std::ptr::addr_of!(leaf).cast());
        let null = NodePtr(Shared::null());
        let internal = Internal::new(&Plain, 3, null, null);
        assert_eq!(
            std::ptr::addr_of!(internal.head).cast::<u8>(),
            std::ptr::addr_of!(internal).cast()
        );
    }

    #[test]
    fn plain_mode_has_no_camera_and_versioned_does() {
        assert!(Nbbst::new_plain().camera().is_none());
        assert!(Nbbst::new_versioned_default().camera().is_some());
    }
}
