//! Snapshot handles, pinned snapshots, and the errors of opening a view at a timestamp.

use std::sync::Arc;

use crate::camera::Camera;

/// A camera timestamp (the raw value inside a [`SnapshotHandle`]).
///
/// The time-travel API ([`Camera::pin_snapshot_at`], the structure layer's `view_at(ts)`)
/// deals in plain timestamps rather than opaque handles: a timestamp is meaningful on its
/// own — "the state as of T" — whether or not anything currently pins it.
pub type Timestamp = u64;

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
/// Every cut of version history is computed under the camera's pin-registry lock and never
/// passes the oldest live pin: collection passes through [`Camera::retention_floor`], and
/// the release of a timestamp's last pin, which advances the watermark that write-time
/// pruning reads. So no truncation ([`crate::VersionedCell::collect_before`], a sweep or a
/// vCAS pruning its own cell) reclaims a version a live `PinnedSnapshot` could still need.
/// Long-running multi-point queries, cross-structure reads (one pin, then one
/// `view_in(&pin)` per structure in the structure layer) and as-of readers that must keep
/// a past instant addressable all hold one. Short queries in a setting without truncation
/// can use the raw [`Camera::take_snapshot`], which matches the paper's interface exactly.
///
/// Cloning re-pins the same timestamp, so clones are independently droppable, in any
/// order, from any thread: the history stays until the last clone drops.
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

impl Clone for PinnedSnapshot {
    fn clone(&self) -> PinnedSnapshot {
        self.camera.repin(self.handle)
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

/// Why a view could not be opened at the requested timestamp (`view_at(ts)`,
/// `view_in(&pin)`, [`Camera::pin_snapshot_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetentionError {
    /// The requested timestamp is below the camera's retention watermark: some
    /// collection pass may already have truncated versions the view would need, so an
    /// exact answer can no longer be guaranteed. Hold a [`PinnedSnapshot`] or lower the
    /// floor with [`Camera::keep_newer_than`] *before* the history is produced to keep a
    /// timestamp addressable.
    Truncated {
        /// The timestamp the caller asked for.
        requested: Timestamp,
        /// The camera's watermark: the oldest timestamp still guaranteed exact.
        oldest_retained: Timestamp,
    },
    /// The requested timestamp is later than the camera's current time — no snapshot
    /// handle for it has ever been (or could have been) issued.
    InFuture {
        /// The timestamp the caller asked for.
        requested: Timestamp,
        /// The camera's current timestamp at the time of the call.
        now: Timestamp,
    },
    /// The structure keeps no version history at all (plain-mode structures and the
    /// lock-based baselines), so *no* historical timestamp can be answered exactly.
    Unsupported,
    /// The pin was taken on a different camera than the one the structure's versioned
    /// CAS objects are associated with, so its timestamp names no instant of the
    /// structure's history.
    ForeignCamera,
}

impl std::fmt::Display for RetentionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetentionError::Truncated { requested, oldest_retained } => write!(
                f,
                "timestamp {requested} is below the retention watermark {oldest_retained}: \
                 its history may already be truncated"
            ),
            RetentionError::InFuture { requested, now } => {
                write!(f, "timestamp {requested} is in the future (camera is at {now})")
            }
            RetentionError::Unsupported => {
                write!(f, "this structure keeps no version history (no historical views)")
            }
            RetentionError::ForeignCamera => {
                write!(f, "the pin belongs to a different camera than the structure's")
            }
        }
    }
}

impl std::error::Error for RetentionError {}

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

    #[test]
    fn retention_error_displays() {
        let t = RetentionError::Truncated { requested: 3, oldest_retained: 10 };
        assert!(t.to_string().contains("below the retention watermark 10"));
        let f = RetentionError::InFuture { requested: 99, now: 5 };
        assert!(f.to_string().contains("future"));
        assert!(RetentionError::Unsupported.to_string().contains("no version history"));
        assert!(RetentionError::ForeignCamera.to_string().contains("different camera"));
    }

    #[test]
    fn clones_share_custody_of_the_timestamp() {
        let cam = Camera::new();
        let a = cam.pin_snapshot();
        assert_eq!(cam.pinned_count(), 1);

        let b = a.clone();
        assert_eq!(cam.pinned_count(), 2, "cloning re-pins");
        assert_eq!(b.handle(), a.handle());

        drop(a);
        assert_eq!(cam.pinned_count(), 1, "clones are independently droppable");
        assert_eq!(cam.min_active(), b.handle().raw(), "surviving clone still holds the floor");
        drop(b);
        assert_eq!(cam.pinned_count(), 0);
    }

    #[test]
    fn pin_snapshot_at_rejects_future_and_watermarked_timestamps() {
        let cam = Camera::new();
        for _ in 0..10 {
            let _ = cam.take_snapshot();
        }
        let now = cam.current_timestamp();
        match cam.pin_snapshot_at(now + 5) {
            Err(RetentionError::InFuture { requested, now: n }) => {
                assert_eq!(requested, now + 5);
                assert_eq!(n, now);
            }
            other => panic!("expected InFuture, got {other:?}"),
        }
        // Advance the watermark by running a collection floor computation with no pins.
        let floor = cam.retention_floor();
        assert_eq!(floor, now);
        match cam.pin_snapshot_at(2) {
            Err(RetentionError::Truncated { requested: 2, oldest_retained }) => {
                assert_eq!(oldest_retained, now);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Pinning the present (== current timestamp) always works: the camera closes
        // the instant by taking a fresh snapshot under the registry lock.
        let p = cam.pin_snapshot_at(cam.current_timestamp()).unwrap();
        assert!(p.handle().raw() >= now);
    }
}
