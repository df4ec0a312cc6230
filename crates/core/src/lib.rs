//! # vcas-core — constant-time snapshots of collections of CAS objects
//!
//! This crate implements the central contribution of *"Constant-Time Snapshots with
//! Applications to Concurrent Data Structures"* (Wei, Ben-David, Blelloch, Fatourou, Ruppert,
//! Sun — PPoPP 2021): **camera** objects and **versioned CAS** objects.
//!
//! * A [`Camera`] behaves like a global clock for a collection of versioned CAS objects.
//!   [`Camera::take_snapshot`] returns a [`SnapshotHandle`] in a constant number of steps.
//! * A [`VersionedCas`] behaves like an ordinary CAS object — [`VersionedCas::read`] and
//!   [`VersionedCas::compare_and_swap`] are constant-time — but additionally supports
//!   [`VersionedCas::read_snapshot`], which returns the value the object had at the moment a
//!   given snapshot handle was acquired. Reading a snapshotted value is wait-free and takes
//!   time proportional to the number of successful CASes on the object since the snapshot.
//!
//! Internally every versioned CAS object keeps a *version list*: one [`vnode::VNode`] per
//! retained value, each labelled with a timestamp read from the camera. The subtle part —
//! making "append a node, read the global timestamp, record it in the node" appear atomic —
//! is solved exactly as in the paper's Algorithm 1, by a `TBD` placeholder timestamp and a
//! helping `initTS` routine executed by every operation that encounters an unstamped head
//! node (see [`versioned`]).
//!
//! On top of the paper's algorithm the crate adds what a reusable library needs:
//!
//! * [`VersionedCell`] — the one-word object itself, which takes its camera from the caller;
//!   [`VersionedCas`] pairs one with a camera handle for standalone use.
//! * [`PtrCell`] — a typed cell that versions *pointers* to nodes of a lock-free data
//!   structure (the way the paper's data-structure applications use vCAS), including tag-bit
//!   support for Harris-style marking; [`VersionedPtr`] is its standalone form.
//! * [`Mode`] — the one seam between a structure and its snapshot capability: a structure
//!   generic over `M: Mode` keeps its pointers in `M::Cell` cells, one-word atomics for
//!   [`Plain`] and one-word [`PtrCell`]s for [`Versioned`], whose camera the mode supplies
//!   (see [`cell`]).
//! * [`PinnedSnapshot`] and per-camera snapshot registries, so version lists can be truncated
//!   ([`VersionedCas::collect_before`]) once no pinned snapshot can still need old versions.
//! * [`reclaim`] — the *automatic* reclamation subsystem: structures register as
//!   [`Collectible`]s on their camera, and a [`ReclaimPolicy`] drives bounded truncation
//!   either from the structures' own update paths (amortized hooks) or from a background
//!   [`Collector`] thread, with progress counters surfaced through [`Camera`]
//!   (see `docs/reclamation.md`).
//! * Time travel over the same registry: [`Camera::pin_snapshot_at`] pins an arbitrary
//!   *retained* timestamp, a [`PinnedSnapshot`] clone shares custody of its instant,
//!   [`Camera::keep_newer_than`] sets the one policy floor that keeps unpinned history,
//!   and the monotone [`Camera::oldest_retained`] watermark backs the fallible
//!   `view_at(ts)` API (see `docs/time_travel.md`). One pin is also the whole of a
//!   cross-structure atomic read: the structure layer opens one view per structure at
//!   its timestamp.
//! * Indirection on need (the paper's §5 "avoiding indirection", generalized): a structure
//!   cell holds its initial value in its head word, and a node may embed the
//!   [`VersionSlot`] of the version that installs it, so the extra hop through a pooled
//!   version node is paid only when a second value must be kept (see [`versioned`]).
//!
//! ## Example: atomic multi-point reads over two registers
//!
//! ```
//! use vcas_core::{Camera, VersionedCas};
//! use vcas_ebr::pin;
//!
//! let camera = Camera::new();
//! let x = VersionedCas::new(0u64, &camera);
//! let y = VersionedCas::new(0u64, &camera);
//!
//! let guard = pin();
//! // A writer moves one unit from x to y with two separate CASes.
//! x.compare_and_swap(0, 5, &guard);
//! let ts = camera.take_snapshot();
//! y.compare_and_swap(0, 7, &guard);
//!
//! // The snapshot sees the state between the two updates, no matter when it is read.
//! assert_eq!(x.read_snapshot(ts, &guard), 5);
//! assert_eq!(y.read_snapshot(ts, &guard), 0);
//! assert_eq!(y.read(&guard), 7);
//! ```

#![warn(missing_docs)]

/// Synchronization facade (`vcas-sync`): std atomics normally, the deterministic model
/// checker's instrumented types under `--cfg vcas_model`.
pub use vcas_sync as sync;

pub mod camera;
pub mod cell;
pub mod reclaim;
pub mod snapshot;
pub mod versioned;
pub mod versioned_ptr;
pub mod vnode;
pub(crate) mod vpool;

pub use camera::Camera;
pub use cell::{Mode, Plain, PointerCell, Versioned};
pub use reclaim::{CollectStats, Collectible, Collector, ReclaimPolicy, VersionStats};
pub use snapshot::{PinnedSnapshot, RetentionError, SnapshotHandle, Timestamp};
pub use versioned::{ValueHook, VersionedCas, VersionedCell};
pub use versioned_ptr::{
    acquire_node_ref, release_node_ref, Managed, ManagedPtr, PtrCell, VersionReferenced,
    VersionedPtr,
};
pub use vnode::{VersionSlot, VersionValue};

/// The placeholder timestamp stored in a freshly created version node before `initTS` stamps
/// it with a value read from the camera ("to-be-decided" in the paper).
pub const TBD: u64 = u64::MAX;
