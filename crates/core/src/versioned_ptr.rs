//! A typed versioned pointer: the way data structures consume versioned CAS objects.
//!
//! The paper converts a CAS-based data structure into a snapshot-capable one by replacing
//! every shared mutable pointer (child pointers of a BST, `next` pointers of a list or queue)
//! with a versioned CAS object holding that pointer. [`VersionedPtr`] packages that pattern:
//! it stores the tagged pointer word of a [`vcas_ebr::Shared`] inside a
//! [`crate::VersionedCas<usize>`] and exposes a typed, guard-aware API, including the tag
//! bits that Harris-style lists use as deletion marks.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::sync::{fence, AtomicU64, Ordering};

use vcas_ebr::{Guard, Owned, Shared};

use crate::camera::Camera;
use crate::snapshot::SnapshotHandle;
use crate::versioned::{ValueHook, VersionedCas};

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
///   (managed cells — [`VersionedPtr::from_shared_managed`] — do this automatically);
/// * after *successfully publishing* a new node, the creating thread drops the creator
///   reference with [`release_node_ref`]; on a failed publication it still owns the node
///   and frees it directly, exactly as an unversioned structure would.
///
/// When the counter hits zero no retained version references the node, so it is retired
/// to epoch-based reclamation and counted into [`Camera::nodes_retired`]. Destroying the
/// node drops its own cells, releasing the references *they* held — reclamation cascades
/// through exactly the nodes that became unreachable, however they became so.
///
/// **Zero is final.** A thread may still hold a pointer to a node whose counter has
/// reached zero: a pointer read from a head version under a guard stays *dereferenceable*
/// for the guard's lifetime, but that version can be displaced and then truncated or
/// elided before the thread republishes the pointer, dropping the node's last reference.
/// A managed cell therefore never increments a zero counter: the reference a new version
/// would take is refused, and the vCAS ([`VersionedPtr::compare_exchange`]) or cell
/// construction ([`VersionedPtr::from_shared_managed`]) that wanted it fails. Callers
/// treat that failure like any lost CAS — the pointer they read is stale — and search
/// again. So the node is retired exactly once and never re-linked after retirement.
///
/// # Safety
///
/// Implementors promise that `version_refs` returns a counter used exclusively by this
/// protocol, and that pointer words read from **snapshot** (non-head) versions are never
/// republished into a CAS — republication must always derive from a current (head-version)
/// read under a guard, which keeps the node allocated, though not necessarily referenced,
/// until the guard drops.
pub unsafe trait VersionReferenced: Sized + Send + Sync + 'static {
    /// The node's version-held reference counter.
    fn version_refs(&self) -> &AtomicU64;
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
        // SAFETY: the counter hit zero: no retained version references the node, and a
        // zero counter is never incremented again (`acquire_word` refuses it), so no
        // thread can republish the node and it is retired exactly once.
        unsafe { guard.defer_destroy(node) };
    }
}

/// `ValueHook::acquire` for a managed pointer cell: counts the new version's reference,
/// refusing (`false`) a node whose counter already reached zero — it is retired, and
/// reviving it would retire it a second time (see [`VersionReferenced`]). Null needs no
/// reference.
fn acquire_word<N: VersionReferenced>(word: usize) -> bool {
    // SAFETY: `word` came from a `Shared` the caller's guard protects.
    let shared = unsafe { Shared::<'_, N>::from_data(word) }.with_tag(0);
    // SAFETY: the hook runs pre-publication under the caller's guard, so the target is
    // still allocated even if its counter has reached zero (retirement defers the free).
    let Some(n) = (unsafe { shared.as_ref() }) else { return true };
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

/// `ValueHook::release` for a managed pointer cell: drops the destroyed version's
/// reference, retiring the node when it was the last.
fn release_word<N: VersionReferenced>(word: usize, camera: &Arc<Camera>, guard: &Guard) {
    // SAFETY: the version node being destroyed held a counted reference, so the word still
    // denotes a live (epoch-protected) node or null.
    release_node_ref(unsafe { Shared::<'_, N>::from_data(word) }, camera, guard);
}

/// A versioned CAS object holding a (possibly tagged, possibly null) pointer to `N`.
pub struct VersionedPtr<N> {
    inner: VersionedCas<usize>,
    _marker: PhantomData<*mut N>,
}

// SAFETY: the `PhantomData<*mut N>` only tracks variance; the cell itself is an atomic
// word (see `VersionedCas`), safe to move across threads when `N: Send + Sync`.
unsafe impl<N: Send + Sync> Send for VersionedPtr<N> {}
// SAFETY: shared access goes through the inner `VersionedCas`, which is `Sync`.
unsafe impl<N: Send + Sync> Sync for VersionedPtr<N> {}

impl<N: 'static> VersionedPtr<N> {
    /// Creates a versioned pointer initialized to null.
    pub fn null(camera: &Arc<Camera>) -> Self {
        VersionedPtr { inner: VersionedCas::new(0usize, camera), _marker: PhantomData }
    }

    /// Creates a versioned pointer initialized to a freshly allocated node.
    pub fn new(initial: Owned<N>, camera: &Arc<Camera>) -> Self {
        let guard = vcas_ebr::pin();
        let shared = initial.into_shared(&guard);
        Self::from_shared(shared, camera)
    }

    /// Creates a versioned pointer initialized to an existing shared pointer.
    pub fn from_shared(initial: Shared<'_, N>, camera: &Arc<Camera>) -> Self {
        VersionedPtr { inner: VersionedCas::new(initial.into_data(), camera), _marker: PhantomData }
    }

    /// Like [`VersionedPtr::from_shared`], but with data-node reference counting: every
    /// retained version of this cell holds one counted reference to the node it points at
    /// (see [`VersionReferenced`]), acquired before the version is published and released
    /// when it is destroyed — by truncation, failed publication, or the cell's drop. The
    /// caller must hold an EBR guard (the initial reference is counted against `initial`,
    /// which the guard keeps allocated).
    ///
    /// Returns `None` when `initial`'s counter has already reached zero: the node is
    /// retired and must not be referenced again, so the caller's read is stale and it
    /// must search again. A null or freshly allocated (unpublished) `initial` never fails.
    pub fn from_shared_managed(initial: Shared<'_, N>, camera: &Arc<Camera>) -> Option<Self>
    where
        N: VersionReferenced,
    {
        let hook = ValueHook { acquire: acquire_word::<N>, release: release_word::<N> };
        let inner = VersionedCas::with_hook(initial.into_data(), camera, hook)?;
        Some(VersionedPtr { inner, _marker: PhantomData })
    }

    /// `vRead`: the current tagged pointer. Constant time.
    pub fn load<'g>(&self, guard: &'g Guard) -> Shared<'g, N> {
        // SAFETY: the stored word was produced by `Shared::into_data` on this cell.
        unsafe { Shared::from_data(self.inner.read(guard)) }
    }

    /// `readSnapshot`: the tagged pointer this object held when `handle` was acquired.
    ///
    /// Falls back to the oldest retained pointer when the handle's version is out of
    /// retained history (see [`VersionedCas::read_snapshot`]); use
    /// [`VersionedPtr::load_snapshot_checked`] to detect that case.
    pub fn load_snapshot<'g>(&self, handle: SnapshotHandle, guard: &'g Guard) -> Shared<'g, N> {
        // SAFETY: the stored word was produced by `Shared::into_data` on this cell.
        unsafe { Shared::from_data(self.inner.read_snapshot(handle, guard)) }
    }

    /// `readSnapshot` with a defined out-of-history result: `None` when no version at or
    /// below `handle` is retained (raw unpinned handle truncated away, or pointer created
    /// after the snapshot); see [`VersionedCas::read_snapshot_checked`].
    pub fn load_snapshot_checked<'g>(
        &self,
        handle: SnapshotHandle,
        guard: &'g Guard,
    ) -> Option<Shared<'g, N>> {
        // SAFETY: the stored word was produced by `Shared::into_data` on this cell.
        self.inner.read_snapshot_checked(handle, guard).map(|d| unsafe { Shared::from_data(d) })
    }

    /// `vCAS`: atomically replaces `current` with `new` if the object still holds `current`.
    /// A managed cell ([`VersionedPtr::from_shared_managed`]) also fails, changing nothing,
    /// when `new` is a retired node (counter at zero; see [`VersionReferenced`]).
    pub fn compare_exchange(
        &self,
        current: Shared<'_, N>,
        new: Shared<'_, N>,
        guard: &Guard,
    ) -> bool {
        self.inner.compare_and_swap(current.into_data(), new.into_data(), guard)
    }

    /// Number of versions retained for this pointer (diagnostic).
    pub fn version_count(&self, guard: &Guard) -> usize {
        self.inner.version_count(guard)
    }

    /// Truncates versions strictly older than the newest version with timestamp
    /// `<= min_active` (see [`VersionedCas::collect_before`]).
    pub fn collect_before(&self, min_active: u64, guard: &Guard) -> usize {
        self.inner.collect_before(min_active, guard)
    }

    /// The camera this pointer is associated with.
    pub fn camera(&self) -> &Arc<Camera> {
        self.inner.camera()
    }

    /// Every pointer word still retained in the version list (newest first). Used by
    /// data-structure destructors to find nodes reachable only through old versions.
    pub fn all_versions<'g>(&self, guard: &'g Guard) -> Vec<Shared<'g, N>> {
        self.inner
            .versions(guard)
            .into_iter()
            // SAFETY: every retained word was produced by `Shared::into_data` on this cell.
            .map(|(_, data)| unsafe { Shared::from_data(data) })
            .collect()
    }
}

impl<N: 'static> std::fmt::Debug for VersionedPtr<N> {
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
    use vcas_ebr::pin;

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
        let p = VersionedPtr::from_shared_managed(a, &cam).expect("a fresh node is live");
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
            VersionedPtr::from_shared_managed(a, &cam).is_none(),
            "a new cell must not reference a retired node"
        );
        assert_eq!(a_refs(), 0, "a refused reference leaves the counter at zero");
        assert_eq!(cam.nodes_retired(), 1, "the retired node is counted exactly once");

        // Dropping the cell releases the last reference to `b`.
        drop(p);
        assert_eq!(cam.nodes_retired(), 2);
    }

    #[test]
    fn all_versions_lists_history_newest_first() {
        let cam = Camera::new();
        let g = pin();
        let a = Owned::new(1u64).into_shared(&g);
        let b = Owned::new(2u64).into_shared(&g);
        let c = Owned::new(3u64).into_shared(&g);
        let p: VersionedPtr<u64> = VersionedPtr::from_shared(a, &cam);
        cam.take_snapshot();
        assert!(p.compare_exchange(a, b, &g));
        cam.take_snapshot();
        assert!(p.compare_exchange(b, c, &g));

        let versions = p.all_versions(&g);
        // SAFETY: a, b, c stay alive until the explicit drops below.
        let vals: Vec<u64> = versions.iter().map(|s| unsafe { *s.deref() }).collect();
        assert_eq!(vals, vec![3, 2, 1]);
        // SAFETY: unmanaged cell — the test owns all three nodes and frees each once.
        unsafe {
            drop(a.into_owned());
            drop(b.into_owned());
            drop(c.into_owned());
        }
    }
}
