//! The pointer-cell seam: one type parameter decides whether a structure is snapshot-capable.
//!
//! The paper (§4) makes a CAS-based structure snapshot-capable by changing one thing: the
//! type of its CAS objects. [`Mode`] is that choice as a type. A structure is written once,
//! generic over `M: Mode`, and keeps every shared pointer in an `M::Cell<T, H>`:
//!
//! * [`Plain`] — the original structure. The cell is a bare [`Atomic`] (one word); there is
//!   no camera and no history, and the value hook `H` is ignored.
//! * [`Versioned`] — the vCAS structure. The cell is a [`VersionedPtr`] on the mode's camera
//!   (three words), whose versions go through `H` (see [`ValueHook`]).
//!
//! Every access a structure makes to a cell is a [`PointerCell`] method, so the mode is
//! decided once, when the structure is monomorphized, not at each pointer access. Both
//! modes use `SeqCst` for every cell access, as the structures always have. The trait is
//! sealed: the structures' safety arguments rely on exactly these two cell behaviours.

use std::sync::Arc;

use vcas_ebr::{Atomic, Guard, Shared};

use crate::camera::Camera;
use crate::retention::RetentionError;
use crate::snapshot::{PinnedSnapshot, SnapshotHandle};
use crate::sync::Ordering;
use crate::versioned::ValueHook;
use crate::versioned_ptr::VersionedPtr;

/// A shared pointer cell, as a lock-free structure uses it: load, CAS, and the history
/// operations, which are no-ops on a plain cell.
pub trait PointerCell<T>: Send + Sync {
    /// The current (possibly tagged) pointer.
    fn load<'g>(&self, guard: &'g Guard) -> Shared<'g, T>;
    /// The pointer as of `at` (a versioned cell's `readSnapshot`), or the current one when
    /// `at` is `None`. A plain cell has no history and always reads the current pointer.
    fn load_at<'g>(&self, at: Option<SnapshotHandle>, guard: &'g Guard) -> Shared<'g, T>;
    /// Replaces `current` with `new` if the cell still holds `current`. A managed
    /// versioned cell also fails when `new` is a retired node (see
    /// [`crate::VersionReferenced`]).
    fn compare_exchange(&self, current: Shared<'_, T>, new: Shared<'_, T>, guard: &Guard) -> bool;
    /// Truncates versions no snapshot at or above `min_active` can read; returns how many
    /// were retired (always 0 for a plain cell).
    fn collect_before(&self, min_active: u64, guard: &Guard) -> usize;
    /// Number of retained versions (1 for a plain cell: its current value).
    fn version_count(&self, guard: &Guard) -> usize;
}

impl<T: Send + Sync> PointerCell<T> for Atomic<T> {
    #[inline]
    fn load<'g>(&self, guard: &'g Guard) -> Shared<'g, T> {
        Atomic::load(self, Ordering::SeqCst, guard)
    }

    #[inline]
    fn load_at<'g>(&self, _: Option<SnapshotHandle>, guard: &'g Guard) -> Shared<'g, T> {
        Atomic::load(self, Ordering::SeqCst, guard)
    }

    #[inline]
    fn compare_exchange(&self, current: Shared<'_, T>, new: Shared<'_, T>, guard: &Guard) -> bool {
        Atomic::compare_exchange(self, current, new, Ordering::SeqCst, Ordering::SeqCst, guard)
            .is_ok()
    }

    #[inline]
    fn collect_before(&self, _: u64, _: &Guard) -> usize {
        0
    }

    fn version_count(&self, _: &Guard) -> usize {
        1
    }
}

impl<T: Send + Sync + 'static, H: ValueHook<usize>> PointerCell<T> for VersionedPtr<T, H> {
    #[inline]
    fn load<'g>(&self, guard: &'g Guard) -> Shared<'g, T> {
        VersionedPtr::load(self, guard)
    }

    #[inline]
    fn load_at<'g>(&self, at: Option<SnapshotHandle>, guard: &'g Guard) -> Shared<'g, T> {
        match at {
            Some(handle) => self.load_snapshot(handle, guard),
            None => VersionedPtr::load(self, guard),
        }
    }

    #[inline]
    fn compare_exchange(&self, current: Shared<'_, T>, new: Shared<'_, T>, guard: &Guard) -> bool {
        VersionedPtr::compare_exchange(self, current, new, guard)
    }

    #[inline]
    fn collect_before(&self, min_active: u64, guard: &Guard) -> usize {
        VersionedPtr::collect_before(self, min_active, guard)
    }

    fn version_count(&self, guard: &Guard) -> usize {
        VersionedPtr::version_count(self, guard)
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Plain {}
    impl Sealed for super::Versioned {}
}

/// Whether a structure's pointer cells are plain CAS objects or versioned ones (see the
/// module docs). Implemented by [`Plain`] and [`Versioned`] only.
pub trait Mode: sealed::Sealed + Clone + Send + Sync + 'static {
    /// Does this mode keep history? `false` for [`Plain`], whose structures retire an
    /// unlinked node at the CAS that unlinks it instead of through version references.
    const VERSIONED: bool;

    /// The cell holding a pointer to `T`; `H` sees every version's pointer word in
    /// versioned mode and is ignored in plain mode.
    type Cell<T: Send + Sync + 'static, H: ValueHook<usize>>: PointerCell<T>;

    /// The camera the cells are associated with (`None` in plain mode).
    fn camera(&self) -> Option<&Arc<Camera>>;

    /// A cell holding `init`. `None` when `H` refuses `init` — a versioned managed cell
    /// never references a retired node (see [`crate::VersionReferenced`]), so the caller's
    /// read is stale. A plain cell never fails.
    fn cell<T: Send + Sync + 'static, H: ValueHook<usize>>(
        &self,
        init: Shared<'_, T>,
    ) -> Option<Self::Cell<T, H>>;

    /// A snapshot of the camera pinned for a view (`None` in plain mode, whose views read
    /// the current state).
    fn pin_snapshot(&self) -> Option<PinnedSnapshot> {
        self.camera().map(|camera| camera.pin_snapshot())
    }

    /// A pin on the retained timestamp `ts` (see [`Camera::pin_snapshot_at`]); plain mode
    /// keeps no history and answers [`RetentionError::Unsupported`].
    fn pin_snapshot_at(&self, ts: u64) -> Result<PinnedSnapshot, RetentionError> {
        self.camera().ok_or(RetentionError::Unsupported)?.pin_snapshot_at(ts)
    }
}

/// Plain mode: one-word [`Atomic`] cells, no camera (the paper's original structures).
#[derive(Clone, Copy, Debug)]
pub struct Plain;

impl Mode for Plain {
    const VERSIONED: bool = false;
    type Cell<T: Send + Sync + 'static, H: ValueHook<usize>> = Atomic<T>;

    #[inline]
    fn camera(&self) -> Option<&Arc<Camera>> {
        None
    }

    #[inline]
    fn cell<T: Send + Sync + 'static, H: ValueHook<usize>>(
        &self,
        init: Shared<'_, T>,
    ) -> Option<Atomic<T>> {
        Some(Atomic::from_shared(init))
    }
}

/// Versioned mode: three-word [`VersionedPtr`] cells on one camera (the vCAS structures).
#[derive(Clone, Debug)]
pub struct Versioned(Arc<Camera>);

impl Versioned {
    /// Versioned cells associated with `camera`.
    pub fn new(camera: &Arc<Camera>) -> Versioned {
        Versioned(camera.clone())
    }
}

impl Mode for Versioned {
    const VERSIONED: bool = true;
    type Cell<T: Send + Sync + 'static, H: ValueHook<usize>> = VersionedPtr<T, H>;

    #[inline]
    fn camera(&self) -> Option<&Arc<Camera>> {
        Some(&self.0)
    }

    #[inline]
    fn cell<T: Send + Sync + 'static, H: ValueHook<usize>>(
        &self,
        init: Shared<'_, T>,
    ) -> Option<VersionedPtr<T, H>> {
        VersionedPtr::with_hook(init, &self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcas_ebr::{pin, Owned};

    /// The seam's point: a plain cell is one word, a versioned one three.
    #[test]
    fn plain_cell_is_one_word_and_versioned_three() {
        let word = std::mem::size_of::<usize>();
        assert_eq!(std::mem::size_of::<<Plain as Mode>::Cell<u64, ()>>(), word);
        assert_eq!(std::mem::size_of::<<Versioned as Mode>::Cell<u64, ()>>(), 3 * word);
        assert_eq!(std::mem::size_of::<Plain>(), 0);
    }

    /// The same generic code runs on both cells; only the versioned one answers a
    /// snapshot read with the old pointer.
    #[test]
    fn both_cells_cas_and_only_versioned_keeps_history() {
        fn run<M: Mode>(mode: M) -> (u64, usize) {
            let g = pin();
            let a = Owned::new(1u64).into_shared(&g);
            let b = Owned::new(2u64).into_shared(&g);
            let cell: M::Cell<u64, ()> = mode.cell(a).expect("an unmanaged cell never refuses");
            let before = mode.camera().map(|c| c.take_snapshot());
            assert!(cell.compare_exchange(a, b, &g));
            assert!(!cell.compare_exchange(a, b, &g), "a stale CAS must fail");
            assert_eq!(cell.load(&g), b);
            // SAFETY: `g` is held and the test frees neither node before the read.
            let seen = unsafe { *cell.load_at(before, &g).deref() };
            let versions = cell.version_count(&g);
            drop(cell);
            // SAFETY: unmanaged cell — the test owns both nodes and frees each once.
            unsafe {
                drop(a.into_owned());
                drop(b.into_owned());
            }
            (seen, versions)
        }
        assert_eq!(run(Plain), (2, 1));
        assert_eq!(run(Versioned::new(&Camera::new())), (1, 2));
        assert!(matches!(Plain.pin_snapshot_at(0), Err(RetentionError::Unsupported)));
        assert!(Plain.pin_snapshot().is_none());
    }
}
