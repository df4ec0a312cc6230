//! A typed versioned pointer: the way data structures consume versioned CAS objects.
//!
//! The paper converts a CAS-based data structure into a snapshot-capable one by replacing
//! every shared mutable pointer (child pointers of a BST, `next` pointers of a list or queue)
//! with a versioned CAS object holding that pointer. [`PtrCell`] packages that pattern: it
//! stores the tagged pointer word of a [`vcas_ebr::Shared`] in a one-word
//! [`crate::VersionedCell<usize>`] and exposes a typed, guard-aware API, including the tag
//! bits that Harris-style lists use as deletion marks. Like the cell, it takes its camera
//! from the caller; [`VersionedPtr`] is the standalone form that owns a camera handle.

use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::sync::Arc;

use crate::sync::{fence, AtomicU64, Ordering};

use vcas_ebr::{Guard, Shared};

use crate::camera::Camera;
use crate::snapshot::SnapshotHandle;
use crate::versioned::{ValueHook, VersionedCell};

/// A data-structure node whose lifetime is governed by version-held reference counting.
///
/// Truncating a version list can destroy the last pointer through which an unlinked node
/// was still reachable; without accounting, that node leaks until the structure drops.
/// A `VersionReferenced` node instead carries a counter with one reference per *retained
/// version node* (in any cell of any structure on the camera) whose pointer word targets
/// it, plus one *creator reference* held by the allocating thread until publication:
///
/// * nodes are allocated with the counter at **1** (the creator reference);
/// * every version node created with a (tag-stripped, non-null) pointer to the node adds a
///   reference before publication and drops it when the version node is destroyed
///   (managed cells — [`ManagedPtr`], or a structure's own [`ValueHook`] — do this
///   automatically);
/// * after *successfully publishing* a new node, the creating thread drops the creator
///   reference with [`release_node_ref`]; on a failed publication it still owns the node
///   and frees it directly ([`VersionReferenced::destroy`]), exactly as an unversioned
///   structure would.
///
/// When the counter hits zero no retained version references the node, so it is retired
/// to epoch-based reclamation and counted into [`Camera::nodes_retired`]. Destroying the
/// node destroys its own cells, releasing the references *they* held — reclamation
/// cascades through exactly the nodes that became unreachable, however they became so.
///
/// **Zero is final.** A thread may still hold a pointer to a node whose counter has
/// reached zero: a pointer read from a head version under a guard stays *dereferenceable*
/// for the guard's lifetime, but that version can be displaced and then truncated or
/// elided before the thread republishes the pointer, dropping the node's last reference.
/// A managed cell therefore never increments a zero counter: the reference a new version
/// would take is refused ([`acquire_node_ref`]), and the vCAS
/// ([`PtrCell::compare_exchange`]) or cell construction ([`PtrCell::with_hook`]) that
/// wanted it fails. Callers treat that failure like any lost CAS — the pointer they read
/// is stale — and search again. So the node is retired exactly once and never re-linked
/// after retirement.
///
/// # Safety
///
/// Implementors promise that `version_refs` returns a counter used exclusively by this
/// protocol, and that pointer words read from **snapshot** (non-head) versions are never
/// republished into a CAS — republication must always derive from a current (head-version)
/// read under a guard, which keeps the node allocated, though not necessarily referenced,
/// until the guard drops.
pub unsafe trait VersionReferenced: Sized + Send + Sync + 'static {
    /// Whether the node holds versioned cells of its own. Their versions reference other
    /// nodes, so freeing the node must destroy them with the camera; the destructor a
    /// retirement schedules then carries one camera handle. `false` (the default, for a
    /// node without cells, such as a tree leaf) frees it without one.
    const HOLDS_CELLS: bool = false;

    /// The node's version-held reference counter.
    fn version_refs(&self) -> &AtomicU64;

    /// Frees a node no thread can reach: one retired through its counter (run as the
    /// deferred destructor [`release_node_ref`] schedules), or one that was never
    /// published. A node with cells overrides it to destroy them with `camera`
    /// ([`PtrCell::destroy`]), which releases the references their versions hold; the
    /// default just frees the allocation.
    fn destroy(node: Box<Self>, camera: &Arc<Camera>) {
        let _ = camera;
        drop(node);
    }
}

/// Drops one reference to `node` (a creator reference after successful publication, or a
/// version-held reference); if it was the last, retires the node to epoch-based
/// reclamation and counts it into [`Camera::nodes_retired`]. Tag bits are stripped; a
/// null pointer is a no-op.
pub fn release_node_ref<N: VersionReferenced>(
    node: Shared<'_, N>,
    camera: &Arc<Camera>,
    guard: &Guard,
) {
    let node = node.with_tag(0);
    // SAFETY: callers hold `guard`, so the node (if non-null) is epoch-protected.
    let Some(n) = (unsafe { node.as_ref() }) else { return };
    if n.version_refs().fetch_sub(1, Ordering::Release) == 1 {
        fence(Ordering::Acquire);
        camera.note_nodes_retired(1);
        // The counter hit zero: no retained version references the node, and a zero
        // counter is never incremented again (`acquire_node_ref` refuses it), so no
        // thread can republish the node and it is retired exactly once.
        if N::HOLDS_CELLS {
            let (raw, camera) = (node.as_raw(), camera.clone());
            // SAFETY: retired exactly once (above); the node was allocated by `Owned`, and
            // after the grace period nothing reaches it, so the destructor owns it.
            unsafe { guard.defer_unchecked(move || N::destroy(Box::from_raw(raw), &camera)) };
        } else {
            // SAFETY: as above; a node without cells is freed as it is.
            unsafe { guard.defer_destroy(node) };
        }
    }
}

/// Takes one version-held reference to `node` for a version node about to be created,
/// refusing (`false`) a node whose counter already reached zero — it is retired, and
/// reviving it would retire it a second time (see [`VersionReferenced`]). Tag bits are
/// stripped; null needs no reference. This is the acquire step of a managed cell's
/// [`ValueHook`]; the caller must hold the guard that protects `node`.
pub fn acquire_node_ref<N: VersionReferenced>(node: Shared<'_, N>) -> bool {
    // SAFETY: the hook runs pre-publication under the caller's guard, so the target is
    // still allocated even if its counter has reached zero (retirement defers the free).
    let Some(n) = (unsafe { node.with_tag(0).as_ref() }) else { return true };
    let refs = n.version_refs();
    // ORDERING: refcount-acquire — increment-if-nonzero; see the ledger row.
    let mut cur = refs.load(Ordering::Relaxed);
    while cur != 0 {
        // ORDERING: refcount-acquire — as above.
        match refs.compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(actual) => cur = actual,
        }
    }
    false
}

/// The value hook of a managed pointer cell ([`ManagedPtr`]): every retained version
/// holds one counted reference to the `N` its pointer word targets (see
/// [`VersionReferenced`]). A structure whose cells point at more than one node type
/// supplies its own hook that dispatches to [`acquire_node_ref`] / [`release_node_ref`]
/// with the right type.
pub struct Managed<N>(PhantomData<fn() -> N>);

impl<N: VersionReferenced> ValueHook<usize> for Managed<N> {
    #[inline]
    fn acquire(word: usize) -> bool {
        // SAFETY: `word` came from a `Shared<N>` the caller's guard protects.
        acquire_node_ref(unsafe { Shared::<'_, N>::from_data(word) })
    }

    #[inline]
    fn release(word: usize, camera: &Arc<Camera>, guard: &Guard) {
        // SAFETY: the version node being destroyed held a counted reference, so the word
        // still denotes a live (epoch-protected) node or null.
        release_node_ref(unsafe { Shared::<'_, N>::from_data(word) }, camera, guard);
    }
}

/// A managed standalone pointer: a [`VersionedPtr`] whose versions count references to
/// `N` (see [`Managed`]).
pub type ManagedPtr<N> = VersionedPtr<N, Managed<N>>;

/// A versioned CAS object holding a (possibly tagged, possibly null) pointer to `N`: one
/// word, the [`VersionedCell`] it wraps. The hook `H` ([`ValueHook`]) sees every version's
/// pointer word: `()` for an unmanaged cell, [`Managed`] for a reference-counted one. This
/// is the cell of [`crate::Versioned`] structures; like [`VersionedCell`] it takes the
/// camera at every operation and is torn down by [`PtrCell::destroy`].
pub struct PtrCell<N, H: ValueHook<usize> = ()> {
    inner: VersionedCell<usize, H>,
    _marker: PhantomData<*mut N>,
}

// SAFETY: the `PhantomData<*mut N>` only tracks variance; the cell itself is an atomic
// word (see `VersionedCell`), safe to move across threads when `N: Send + Sync`.
unsafe impl<N: Send + Sync, H: ValueHook<usize>> Send for PtrCell<N, H> {}
// SAFETY: shared access goes through the inner `VersionedCell`, which is `Sync`.
unsafe impl<N: Send + Sync, H: ValueHook<usize>> Sync for PtrCell<N, H> {}

impl<N: 'static, H: ValueHook<usize>> PtrCell<N, H> {
    /// Creates a cell holding `initial` whose versions go through the hook `H`;
    /// `None` when `H::acquire` refuses `initial` (see [`ValueHook`]).
    ///
    /// For a managed cell every retained version holds one counted reference to the node
    /// it points at (see [`VersionReferenced`]), acquired before the version is published
    /// and released when it is destroyed — by truncation, failed publication, or the cell's
    /// destruction. The caller must hold an EBR guard (the initial reference is counted
    /// against `initial`, which the guard keeps allocated). `None` then means `initial`'s
    /// counter already reached zero: the node is retired, so the caller's read is stale
    /// and it must search again. A null or freshly allocated (unpublished) `initial` never
    /// fails.
    pub fn with_hook(initial: Shared<'_, N>, camera: &Camera) -> Option<Self> {
        let inner = VersionedCell::with_hook(initial.into_data(), camera)?;
        Some(PtrCell { inner, _marker: PhantomData })
    }

    /// Creates the cell of a structure node that is not yet published (or a structure's
    /// own root cell): `initial` sits directly in the head word and no version node is
    /// allocated ([`VersionedCell::fresh`]). Acquires through `H` as
    /// [`PtrCell::with_hook`] does, with the same `None`. A snapshot read answers
    /// `initial` for every handle until the first vCAS; this is what
    /// [`crate::Mode::cell`] builds in versioned mode.
    pub fn fresh(initial: Shared<'_, N>, camera: &Camera) -> Option<Self> {
        // The direct tag is bit 2 of the pointer word, free only in 8-aligned pointers.
        const { assert!(std::mem::align_of::<N>() >= 8, "direct cells need 8-aligned nodes") };
        let inner = VersionedCell::fresh(initial.into_data(), camera)?;
        Some(PtrCell { inner, _marker: PhantomData })
    }

    /// `vRead`: the current tagged pointer. Constant time.
    #[inline]
    pub fn load<'g>(&self, camera: &Camera, guard: &'g Guard) -> Shared<'g, N> {
        // SAFETY: the stored word was produced by `Shared::into_data` on this cell.
        unsafe { Shared::from_data(self.inner.read(camera, guard)) }
    }

    /// `readSnapshot`: the tagged pointer this object held when `handle` was acquired.
    ///
    /// Falls back to the oldest retained pointer when the handle's version is out of
    /// retained history (see [`VersionedCell::read_snapshot`]); use
    /// [`PtrCell::load_snapshot_checked`] to detect that case.
    #[inline]
    pub fn load_snapshot<'g>(
        &self,
        camera: &Camera,
        handle: SnapshotHandle,
        guard: &'g Guard,
    ) -> Shared<'g, N> {
        // SAFETY: the stored word was produced by `Shared::into_data` on this cell.
        unsafe { Shared::from_data(self.inner.read_snapshot(camera, handle, guard)) }
    }

    /// `readSnapshot` with a defined out-of-history result: `None` when no version at or
    /// below `handle` is retained (raw unpinned handle truncated away, or pointer created
    /// after the snapshot); see [`VersionedCell::read_snapshot_checked`].
    pub fn load_snapshot_checked<'g>(
        &self,
        camera: &Camera,
        handle: SnapshotHandle,
        guard: &'g Guard,
    ) -> Option<Shared<'g, N>> {
        let word = self.inner.read_snapshot_checked(camera, handle, guard)?;
        // SAFETY: the stored word was produced by `Shared::into_data` on this cell.
        Some(unsafe { Shared::from_data(word) })
    }

    /// `vCAS`: atomically replaces `current` with `new` if the object still holds `current`.
    /// A managed cell also fails, changing nothing, when `new` is a retired node (counter
    /// at zero; see [`VersionReferenced`]).
    #[inline]
    pub fn compare_exchange(
        &self,
        camera: &Arc<Camera>,
        current: Shared<'_, N>,
        new: Shared<'_, N>,
        guard: &Guard,
    ) -> bool {
        self.inner.compare_and_swap(camera, current.into_data(), new.into_data(), guard)
    }

    /// Number of versions retained for this pointer (diagnostic).
    pub fn version_count(&self, guard: &Guard) -> usize {
        self.inner.version_count(guard)
    }

    /// Truncates versions strictly older than the newest version with timestamp
    /// `<= min_active` (see [`VersionedCell::collect_before`]).
    pub fn collect_before(&self, camera: &Arc<Camera>, min_active: u64, guard: &Guard) -> usize {
        self.inner.collect_before(camera, min_active, guard)
    }

    /// Destroys the cell, releasing every version it holds ([`VersionedCell::destroy`]).
    pub fn destroy(self, camera: &Arc<Camera>) {
        self.inner.destroy(camera);
    }
}

/// A standalone versioned pointer: a [`PtrCell`] together with the camera it is
/// associated with, which it passes to every operation. Dropping it destroys the cell.
pub struct VersionedPtr<N, H: ValueHook<usize> = ()> {
    cell: ManuallyDrop<PtrCell<N, H>>,
    camera: Arc<Camera>,
}

impl<N: 'static> VersionedPtr<N> {
    /// Creates a versioned pointer initialized to null.
    pub fn null(camera: &Arc<Camera>) -> Self {
        Self::from_shared(Shared::null(), camera)
    }

    /// Creates a versioned pointer initialized to an existing shared pointer.
    pub fn from_shared(initial: Shared<'_, N>, camera: &Arc<Camera>) -> Self {
        Self::with_hook(initial, camera).expect("an unhooked cell accepts every pointer")
    }
}

impl<N: 'static, H: ValueHook<usize>> VersionedPtr<N, H> {
    /// Creates a pointer holding `initial` whose versions go through the hook `H`; `None`
    /// when `H::acquire` refuses `initial` ([`PtrCell::with_hook`]).
    pub fn with_hook(initial: Shared<'_, N>, camera: &Arc<Camera>) -> Option<Self> {
        let cell = PtrCell::with_hook(initial, camera)?;
        Some(VersionedPtr { cell: ManuallyDrop::new(cell), camera: camera.clone() })
    }

    /// `vRead` ([`PtrCell::load`]).
    pub fn load<'g>(&self, guard: &'g Guard) -> Shared<'g, N> {
        self.cell.load(&self.camera, guard)
    }

    /// `readSnapshot` ([`PtrCell::load_snapshot`]).
    pub fn load_snapshot<'g>(&self, handle: SnapshotHandle, guard: &'g Guard) -> Shared<'g, N> {
        self.cell.load_snapshot(&self.camera, handle, guard)
    }

    /// `readSnapshot` with a defined out-of-history result
    /// ([`PtrCell::load_snapshot_checked`]).
    pub fn load_snapshot_checked<'g>(
        &self,
        handle: SnapshotHandle,
        guard: &'g Guard,
    ) -> Option<Shared<'g, N>> {
        self.cell.load_snapshot_checked(&self.camera, handle, guard)
    }

    /// `vCAS` ([`PtrCell::compare_exchange`]).
    pub fn compare_exchange(
        &self,
        current: Shared<'_, N>,
        new: Shared<'_, N>,
        guard: &Guard,
    ) -> bool {
        self.cell.compare_exchange(&self.camera, current, new, guard)
    }

    /// Number of versions retained for this pointer (diagnostic).
    pub fn version_count(&self, guard: &Guard) -> usize {
        self.cell.version_count(guard)
    }

    /// Truncates versions below `min_active` ([`PtrCell::collect_before`]).
    pub fn collect_before(&self, min_active: u64, guard: &Guard) -> usize {
        self.cell.collect_before(&self.camera, min_active, guard)
    }

    /// The camera this pointer is associated with.
    pub fn camera(&self) -> &Arc<Camera> {
        &self.camera
    }
}

impl<N, H: ValueHook<usize>> Drop for VersionedPtr<N, H> {
    fn drop(&mut self) {
        // SAFETY: `drop` runs once and the field is not used afterwards.
        let cell = unsafe { ManuallyDrop::take(&mut self.cell) };
        cell.inner.destroy(&self.camera);
    }
}

impl<N: 'static, H: ValueHook<usize>> std::fmt::Debug for VersionedPtr<N, H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let guard = vcas_ebr::pin();
        f.debug_struct("VersionedPtr")
            .field("ptr", &self.load(&guard).as_raw())
            .field("versions", &self.version_count(&guard))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vnode::{VNode, VersionSlot};
    use std::ptr::NonNull;
    use vcas_ebr::{pin, Owned};

    #[test]
    fn null_pointer_roundtrip() {
        let cam = Camera::new();
        let p: VersionedPtr<u64> = VersionedPtr::null(&cam);
        let g = pin();
        assert!(p.load(&g).is_null());
    }

    #[test]
    fn typed_cas_and_snapshot() {
        let cam = Camera::new();
        let g = pin();
        let first = Owned::new(1u64).into_shared(&g);
        let p: VersionedPtr<u64> = VersionedPtr::from_shared(first, &cam);

        let h0 = cam.take_snapshot();
        let second = Owned::new(2u64).into_shared(&g);
        assert!(p.compare_exchange(first, second, &g));
        let h1 = cam.take_snapshot();

        // SAFETY: both nodes stay alive until the explicit drops below.
        assert_eq!(unsafe { *p.load(&g).deref() }, 2);
        // SAFETY: as above.
        assert_eq!(unsafe { *p.load_snapshot(h0, &g).deref() }, 1);
        // SAFETY: as above.
        assert_eq!(unsafe { *p.load_snapshot(h1, &g).deref() }, 2);

        // SAFETY: unmanaged cell — the test owns both nodes and frees each once.
        unsafe {
            drop(first.into_owned());
            drop(second.into_owned());
        }
    }

    #[test]
    fn tags_survive_versioning() {
        let cam = Camera::new();
        let g = pin();
        let node = Owned::new(5u64).into_shared(&g);
        let p: VersionedPtr<u64> = VersionedPtr::from_shared(node, &cam);
        // Mark the pointer (set tag bit) with a vCAS, as Harris's delete does.
        assert!(p.compare_exchange(node, node.with_tag(1), &g));
        let loaded = p.load(&g);
        assert_eq!(loaded.tag(), 1);
        assert_eq!(loaded.as_raw(), node.as_raw());
        // SAFETY: unmanaged cell — the test owns the node and frees it once.
        unsafe { drop(node.into_owned()) };
    }

    /// A minimal managed node for the refcount tests.
    struct Counted {
        refs: AtomicU64,
    }

    // SAFETY: `refs` is used only by the version-reference protocol, and the test never
    // republishes a pointer read from a snapshot version.
    unsafe impl VersionReferenced for Counted {
        fn version_refs(&self) -> &AtomicU64 {
            &self.refs
        }
    }

    #[test]
    fn retired_node_is_never_republished() {
        let cam = Camera::new();
        let g = pin();
        let a = Owned::new(Counted { refs: AtomicU64::new(1) }).into_shared(&g);
        let b = Owned::new(Counted { refs: AtomicU64::new(1) }).into_shared(&g);
        let p = ManagedPtr::with_hook(a, &cam).expect("a fresh node is live");
        release_node_ref(a, &cam, &g);
        // Replace `a`, then truncate its version: its counter reaches zero and it is
        // retired, while `g` keeps it allocated — the state a thread holding a stale
        // head-version read is in.
        cam.take_snapshot();
        assert!(p.compare_exchange(a, b, &g));
        release_node_ref(b, &cam, &g);
        p.collect_before(cam.min_active(), &g);
        // SAFETY: `g` pins the epoch, so the retired node is not yet freed.
        let a_refs = || unsafe { a.deref() }.refs.load(Ordering::SeqCst);
        assert_eq!(a_refs(), 0);
        assert_eq!(cam.nodes_retired(), 1);

        assert!(!p.compare_exchange(b, a, &g), "a vCAS must not republish a retired node");
        assert_eq!(p.load(&g), b);
        assert!(
            ManagedPtr::with_hook(a, &cam).is_none(),
            "a new cell must not reference a retired node"
        );
        assert_eq!(a_refs(), 0, "a refused reference leaves the counter at zero");
        assert_eq!(cam.nodes_retired(), 1, "the retired node is counted exactly once");

        // Dropping the cell releases the last reference to `b`.
        drop(p);
        assert_eq!(cam.nodes_retired(), 2);
    }

    /// A cell built for a structure node (through `Mode::cell`) holds its initial value in
    /// its head word: no version node is allocated. It reads without a hop, answers every
    /// snapshot (even one older than the cell) with that value, and counts as one version.
    /// The first vCAS links the direct value below its new version, stamped 0; destroying
    /// the cell conserves the count.
    #[test]
    fn fresh_structure_cell_allocates_no_version_node() {
        use crate::cell::{Mode, PointerCell, Versioned};
        let cam = Camera::new();
        let mode = Versioned::new(&cam);
        let g = pin();
        let (a, b) = (Owned::new(1u64).into_shared(&g), Owned::new(2u64).into_shared(&g));
        let before = cam.take_snapshot();
        let cell: PtrCell<u64> = mode.cell(a).expect("an unmanaged cell never refuses");
        let head = cell.inner.head_word(&g);
        assert_eq!(head, a.into_data() | crate::versioned::DIRECT, "no version node");
        assert_eq!(cell.load(&cam, &g), a);
        assert_eq!(cell.load_snapshot_checked(&cam, before, &g), Some(a), "stamped 0");
        assert_eq!((cell.version_count(&g), cam.versions_created()), (1, 1));
        let mid = cam.take_snapshot();
        assert!(PointerCell::compare_exchange(&cell, &mode, a, b, &g));
        assert_eq!(cell.load_snapshot(&cam, mid, &g), a, "the direct value is the old version");
        assert_eq!(
            cell.inner.versions(&g),
            vec![(cam.current_timestamp(), b.into_data()), (0, a.into_data())]
        );
        cell.destroy(&cam);
        assert_eq!(cam.versions_created(), cam.versions_retired() + cam.versions_dropped());
        // SAFETY: unmanaged cell — the test owns both nodes and frees each once.
        unsafe {
            drop(a.into_owned());
            drop(b.into_owned());
        }
    }

    /// A managed node that embeds the record of the version that installs it.
    struct Slotted {
        refs: AtomicU64,
        slot: VersionSlot,
    }

    // SAFETY: as for `Counted`.
    unsafe impl VersionReferenced for Slotted {
        fn version_refs(&self) -> &AtomicU64 {
            &self.refs
        }
    }

    /// Counted references to `Slotted` nodes, naming each node's slot.
    struct SlottedRefs;

    impl ValueHook<usize> for SlottedRefs {
        fn acquire(word: usize) -> bool {
            <Managed<Slotted> as ValueHook<usize>>::acquire(word)
        }
        fn release(word: usize, camera: &Arc<Camera>, guard: &Guard) {
            <Managed<Slotted> as ValueHook<usize>>::release(word, camera, guard)
        }
        fn slot(word: usize) -> Option<NonNull<VersionSlot>> {
            // SAFETY: asked only for an accepted, unreleased value: the node is allocated.
            let node = unsafe { Shared::<'_, Slotted>::from_data(word).as_ref() }?;
            Some(NonNull::from(&node.slot))
        }
    }

    /// The first publication of a node claims the version record embedded in it; a second
    /// publication of the same node (a relink, here into another cell) finds the slot
    /// taken and uses a pooled node. Cutting the slot's version releases the node's
    /// reference without handing the slot to the pool, and node and version counts are
    /// conserved.
    #[test]
    fn first_publication_claims_the_slot_and_relinks_use_the_pool() {
        let cam = Camera::new();
        let g = pin();
        let node = || Owned::new(Slotted { refs: AtomicU64::new(1), slot: VersionSlot::new() });
        let (a, b) = (node().into_shared(&g), node().into_shared(&g));
        let first = PtrCell::<Slotted, SlottedRefs>::fresh(a, &cam).expect("a is live");
        let second = PtrCell::<Slotted, SlottedRefs>::fresh(a, &cam).expect("a is live");
        release_node_ref(a, &cam, &g);
        cam.take_snapshot();
        assert!(first.compare_exchange(&cam, a, b, &g));
        let slot_of = |n: Shared<'_, Slotted>| {
            // SAFETY: `g` pins the epoch and `n` is referenced by a cell.
            unsafe { &n.deref().slot.0 as *const VNode as usize }
        };
        let head = |c: &PtrCell<Slotted, SlottedRefs>| c.inner.head_word(&g);
        assert_eq!(head(&first), slot_of(b), "the first publication takes b's slot");
        assert!(second.compare_exchange(&cam, a, b, &g));
        assert_ne!(head(&second), slot_of(b), "a relink takes a pooled node");
        release_node_ref(b, &cam, &g);
        // The first cell keeps b's slot over a's direct value; a third value displaces the
        // slot, and a cut releases both without recycling the slot.
        let c = node().into_shared(&g);
        cam.take_snapshot();
        assert!(first.compare_exchange(&cam, b, c, &g));
        release_node_ref(c, &cam, &g);
        assert_eq!(first.version_count(&g), 3);
        drop(g);
        cam.take_snapshot();
        let g = pin();
        assert_eq!(first.collect_before(&cam, cam.min_active(), &g), 2);
        assert_eq!(first.version_count(&g), 1);
        drop(g);
        first.destroy(&cam);
        second.destroy(&cam);
        assert_eq!(cam.versions_created(), cam.versions_retired() + cam.versions_dropped());
        assert_eq!(cam.nodes_retired(), 3, "each node is retired once its last version goes");
    }

    /// The hook is a type, not a field, and the camera is passed in: a managed cell is its
    /// head word alone, the same as an unmanaged one. The standalone pointer adds only the
    /// camera handle it owns.
    #[test]
    fn managed_cell_is_one_word() {
        let word = std::mem::size_of::<usize>();
        assert_eq!(std::mem::size_of::<PtrCell<Counted, Managed<Counted>>>(), word);
        assert_eq!(std::mem::size_of::<PtrCell<u64>>(), word);
        assert_eq!(std::mem::size_of::<ManagedPtr<Counted>>(), 2 * word);
    }
}
