//! Retention policies and named snapshot anchors: the time-travel MVCC surface.
//!
//! The PR 4–5 reclamation subsystem treated every version older than the oldest pin as
//! garbage. This module flips that relationship: retained history becomes a *product*.
//! A [`RetentionPolicy`] tells the camera's collectors how much history to keep beyond
//! what live pins demand, and an [`Anchor`] is a **named, persistent** snapshot — a pin
//! that survives beyond any guard's scope, addressable by name, cloneable, and released
//! only when the last handle drops. Together they make `view_at(ts)` (see the structure
//! layer's `SnapshotSource`) answer exactly at any *retained* timestamp, forever.
//!
//! The enforcement point is [`crate::Camera::retention_floor`]: every collection pass
//! truncates below `min(oldest pin or anchor, policy floor)` instead of blindly below
//! `min_active`. The camera also maintains a monotone **watermark**
//! ([`crate::Camera::oldest_retained`]) — the highest cut any pass has ever enforced —
//! so `view_at` can refuse timestamps whose history may already be gone with a precise
//! [`RetentionError::Truncated`] instead of silently reading newer data.

use std::sync::Arc;

use crate::camera::Camera;
use crate::snapshot::{PinnedSnapshot, SnapshotHandle};

/// A camera timestamp (the raw value inside a [`SnapshotHandle`]).
///
/// The time-travel API ([`crate::Camera::anchor_at`], the structure layer's
/// `view_at(ts)`) deals in plain timestamps rather than opaque handles: a timestamp is
/// meaningful on its own — "the state as of T" — whether or not anything currently pins
/// it, which is exactly what a retention policy makes safe.
pub type Timestamp = u64;

/// How much version history the reclamation subsystem must retain, beyond what live pins
/// and anchors already demand.
///
/// A policy contributes a *floor*: collection passes truncate version lists below
/// `min(oldest pin/anchor, policy floor)` (see [`crate::Camera::retention_floor`]), so a
/// policy can only ever *extend* retention relative to the pin set, never cut below a
/// live reader. Policies compose with [`RetentionPolicy::and`]: the union keeps whatever
/// any constituent keeps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum RetentionPolicy {
    /// Keep only what live pins and [`Anchor`]s demand (the default; this is exactly the
    /// PR 4–5 behavior, where the collector truncates below the oldest pin).
    #[default]
    KeepAnchored,
    /// Keep every version ever written: collection passes still unlink dead
    /// same-timestamp intermediates (unreadable by *any* handle) but never truncate
    /// readable history, so `view_at(ts)` answers for every `ts` up to the present.
    KeepAll,
    /// Keep every version needed to answer `view_at(t)` for all `t >= ts`: bounded
    /// retention under a long-running writer, with the bound chosen by the application
    /// (e.g. "the last hour of history").
    KeepNewerThan(Timestamp),
    /// Keep whatever any constituent policy keeps (the floor is the minimum of the
    /// constituent floors). Built by [`RetentionPolicy::and`].
    Union(Vec<RetentionPolicy>),
}

impl RetentionPolicy {
    /// The timestamp below which this policy permits truncation (`u64::MAX` = "no
    /// constraint beyond pins/anchors"). The enforced cut is the minimum of this floor
    /// and the oldest live pin or anchor.
    pub fn floor(&self) -> Timestamp {
        match self {
            RetentionPolicy::KeepAnchored => u64::MAX,
            RetentionPolicy::KeepAll => 0,
            RetentionPolicy::KeepNewerThan(ts) => *ts,
            RetentionPolicy::Union(parts) => {
                parts.iter().map(RetentionPolicy::floor).min().unwrap_or(u64::MAX)
            }
        }
    }

    /// Composes two policies: the result retains whatever either retains.
    pub fn and(self, other: RetentionPolicy) -> RetentionPolicy {
        match (self, other) {
            (RetentionPolicy::Union(mut a), RetentionPolicy::Union(b)) => {
                a.extend(b);
                RetentionPolicy::Union(a)
            }
            (RetentionPolicy::Union(mut a), b) => {
                a.push(b);
                RetentionPolicy::Union(a)
            }
            (a, RetentionPolicy::Union(mut b)) => {
                b.insert(0, a);
                RetentionPolicy::Union(b)
            }
            (a, b) => RetentionPolicy::Union(vec![a, b]),
        }
    }
}

/// Why a time-travel operation (`view_at(ts)`, [`crate::Camera::anchor_at`],
/// `CameraGroup::snapshot_at`) could not open a view at the requested timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetentionError {
    /// The requested timestamp is below the camera's retention watermark: some
    /// collection pass may already have truncated versions the view would need, so an
    /// exact answer can no longer be guaranteed. Retain more history (an [`Anchor`] or a
    /// [`RetentionPolicy`]) *before* the history is produced to keep a timestamp
    /// addressable.
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
    /// Previously these sources silently returned a current-time best-effort view from
    /// `view_at`; that silent lie is now this explicit error.
    Unsupported,
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
        }
    }
}

impl std::error::Error for RetentionError {}

/// A **named, persistent snapshot**: a pin on a camera timestamp that survives beyond
/// any guard's scope and is addressable by name.
///
/// While any clone of an anchor is alive, every collection pass retains the versions
/// needed to answer `view_at(anchor.timestamp())` exactly — under any
/// [`crate::ReclaimPolicy`] (amortized hooks or background collector). Dropping
/// the last clone releases the pin; the next collection pass may then reclaim the
/// history (subject to the camera's [`RetentionPolicy`] and other pins).
///
/// Created by [`crate::Camera::anchor`] (anchor "now") or [`crate::Camera::anchor_at`]
/// (anchor a specific retained timestamp). Cloning re-pins the same timestamp, so clones
/// are independently droppable, in any order, from any thread.
pub struct Anchor {
    name: Arc<str>,
    pin: PinnedSnapshot,
}

impl Anchor {
    pub(crate) fn new(name: &str, pin: PinnedSnapshot) -> Anchor {
        let name: Arc<str> = Arc::from(name);
        pin.camera().register_anchor(&name, pin.handle().raw());
        Anchor { name, pin }
    }

    /// The anchor's name (diagnostic; names need not be unique).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The anchored timestamp: `view_at(anchor.timestamp())` answers exactly for as long
    /// as any clone of this anchor is alive.
    pub fn timestamp(&self) -> Timestamp {
        self.pin.handle().raw()
    }

    /// The anchored timestamp as a raw [`SnapshotHandle`] (for the handle-based
    /// `read_snapshot` API).
    pub fn handle(&self) -> SnapshotHandle {
        self.pin.handle()
    }

    /// The camera this anchor pins.
    pub fn camera(&self) -> &Arc<Camera> {
        self.pin.camera()
    }
}

impl Clone for Anchor {
    fn clone(&self) -> Anchor {
        let camera = self.pin.camera();
        let pin = camera.repin(self.pin.handle());
        camera.register_anchor(&self.name, pin.handle().raw());
        Anchor { name: self.name.clone(), pin }
    }
}

impl Drop for Anchor {
    fn drop(&mut self) {
        self.pin.camera().deregister_anchor(&self.name, self.pin.handle().raw());
        // The inner `PinnedSnapshot`'s own Drop releases the pin itself.
    }
}

impl std::fmt::Debug for Anchor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Anchor")
            .field("name", &self.name)
            .field("timestamp", &self.timestamp())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_floors() {
        assert_eq!(RetentionPolicy::KeepAnchored.floor(), u64::MAX);
        assert_eq!(RetentionPolicy::KeepAll.floor(), 0);
        assert_eq!(RetentionPolicy::KeepNewerThan(42).floor(), 42);
        assert_eq!(RetentionPolicy::default(), RetentionPolicy::KeepAnchored);
    }

    #[test]
    fn union_takes_the_most_retentive_floor() {
        let p = RetentionPolicy::KeepNewerThan(100).and(RetentionPolicy::KeepNewerThan(7));
        assert_eq!(p.floor(), 7);
        let p = p.and(RetentionPolicy::KeepAll);
        assert_eq!(p.floor(), 0, "KeepAll dominates any union");
        let p = RetentionPolicy::KeepAnchored.and(RetentionPolicy::KeepNewerThan(9));
        assert_eq!(p.floor(), 9, "KeepAnchored contributes no extra constraint");
        assert_eq!(RetentionPolicy::Union(Vec::new()).floor(), u64::MAX);
    }

    #[test]
    fn retention_error_displays() {
        let t = RetentionError::Truncated { requested: 3, oldest_retained: 10 };
        assert!(t.to_string().contains("below the retention watermark 10"));
        let f = RetentionError::InFuture { requested: 99, now: 5 };
        assert!(f.to_string().contains("future"));
        assert!(RetentionError::Unsupported.to_string().contains("no version history"));
    }

    #[test]
    fn anchors_pin_and_release_by_name() {
        let cam = Camera::new();
        let a = cam.anchor("audit");
        assert_eq!(a.name(), "audit");
        assert_eq!(cam.pinned_count(), 1);
        assert_eq!(cam.anchors(), vec![("audit".to_string(), a.timestamp())]);

        let b = a.clone();
        assert_eq!(cam.pinned_count(), 2, "cloning re-pins");
        assert_eq!(b.timestamp(), a.timestamp());
        assert_eq!(cam.anchors().len(), 2);

        drop(a);
        assert_eq!(cam.pinned_count(), 1, "clones are independently droppable");
        assert_eq!(cam.min_active(), b.timestamp(), "surviving clone still holds the floor");
        drop(b);
        assert_eq!(cam.pinned_count(), 0);
        assert!(cam.anchors().is_empty());
    }

    #[test]
    fn anchor_at_rejects_future_and_watermarked_timestamps() {
        let cam = Camera::new();
        for _ in 0..10 {
            let _ = cam.take_snapshot();
        }
        let now = cam.current_timestamp();
        match cam.anchor_at("late", now + 5) {
            Err(RetentionError::InFuture { requested, now: n }) => {
                assert_eq!(requested, now + 5);
                assert_eq!(n, now);
            }
            other => panic!("expected InFuture, got {other:?}"),
        }
        // Advance the watermark by running a collection floor computation with no pins.
        let floor = cam.retention_floor();
        assert_eq!(floor, now);
        match cam.anchor_at("gone", 2) {
            Err(RetentionError::Truncated { requested: 2, oldest_retained }) => {
                assert_eq!(oldest_retained, now);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Anchoring the present (== current timestamp) always works: the camera closes
        // the instant by taking a fresh snapshot under the registry lock.
        let a = cam.anchor_at("now", cam.current_timestamp()).unwrap();
        assert!(a.timestamp() >= now);
    }
}
