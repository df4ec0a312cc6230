//! Snapshot handles and pinned snapshots.

use std::sync::Arc;

use crate::camera::Camera;

/// A handle to a snapshot of every versioned CAS object associated with one camera
/// (the integer returned by the paper's `takeSnapshot`).
///
/// Handles are plain integers: copying them is free and they can be shipped between threads.
/// Passing a handle to [`crate::VersionedCell::read_snapshot`] returns the value that object
/// had when the handle was acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapshotHandle(u64);

impl SnapshotHandle {
    /// Wraps a raw timestamp value as a handle.
    pub fn from_raw(ts: u64) -> Self {
        SnapshotHandle(ts)
    }

    /// The raw timestamp value.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl From<u64> for SnapshotHandle {
    fn from(ts: u64) -> Self {
        SnapshotHandle(ts)
    }
}

/// A snapshot handle registered with its camera for as long as this value is alive.
///
/// Version-list truncation ([`crate::VersionedCell::collect_before`] driven by
/// [`Camera::min_active`]) will never reclaim a version that a live `PinnedSnapshot` could
/// still need. Long-running multi-point queries should therefore use
/// [`Camera::pin_snapshot`]; short queries in a setting without truncation can use the raw
/// [`Camera::take_snapshot`], which matches the paper's interface exactly.
pub struct PinnedSnapshot {
    camera: Arc<Camera>,
    handle: SnapshotHandle,
}

impl PinnedSnapshot {
    pub(crate) fn new(camera: Arc<Camera>, handle: SnapshotHandle) -> Self {
        PinnedSnapshot { camera, handle }
    }

    /// The underlying snapshot handle.
    pub fn handle(&self) -> SnapshotHandle {
        self.handle
    }

    /// The camera this snapshot is registered with.
    pub fn camera(&self) -> &Arc<Camera> {
        &self.camera
    }
}

impl Drop for PinnedSnapshot {
    fn drop(&mut self) {
        self.camera.unpin(self.handle);
    }
}

impl std::fmt::Debug for PinnedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedSnapshot").field("handle", &self.handle).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_roundtrip() {
        let h = SnapshotHandle::from_raw(42);
        assert_eq!(h.raw(), 42);
        assert_eq!(SnapshotHandle::from(42u64), h);
        assert!(SnapshotHandle::from_raw(41) < h);
    }

    #[test]
    fn pinned_snapshot_unpins_on_drop() {
        let cam = Camera::new();
        {
            let p = cam.pin_snapshot();
            assert_eq!(cam.pinned_count(), 1);
            assert_eq!(p.handle().raw(), 0);
        }
        assert_eq!(cam.pinned_count(), 0);
    }
}
