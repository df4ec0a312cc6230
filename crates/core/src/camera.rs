//! The [`Camera`] object: a global timestamp plus a registry of pinned snapshots.

use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

use vcas_ebr::Guard;

use crate::sync::{AtomicBool, AtomicU64, Mutex, Ordering};

use crate::reclaim::{CollectStats, Collectible, ReclaimState};
use crate::retention::{Anchor, RetentionError, RetentionPolicy};
use crate::snapshot::{PinnedSnapshot, SnapshotHandle};

/// A camera object (paper §3, Algorithm 1 lines 1–7).
///
/// The camera is a shared counter. [`Camera::take_snapshot`] reads the counter, attempts a
/// single CAS to increment it, and returns the value read as the snapshot handle — a constant
/// number of steps regardless of how many versioned CAS objects are associated with the
/// camera. If the CAS fails, a concurrent `take_snapshot` already incremented the counter, so
/// there is nothing left to do.
///
/// Beyond the paper's interface the camera also keeps a small registry of *pinned* snapshots
/// ([`Camera::pin_snapshot`]). Pinned snapshots make version-list truncation possible:
/// [`Camera::min_active`] is a timestamp below which no pinned reader can ever ask for a
/// version, so versions older than the newest one at-or-below it may be reclaimed
/// (see [`crate::VersionedCell::collect_before`]). The registry is only touched by the pinned
/// path; the raw `take_snapshot` stays lock-free and constant-time exactly as in the paper.
pub struct Camera {
    timestamp: AtomicU64,
    /// Reference counts of active pinned snapshot handles, keyed by handle value.
    active: Mutex<BTreeMap<u64, usize>>,
    /// Number of take_snapshot calls (diagnostics only).
    snapshots_taken: AtomicU64,
    /// Automatic version-list reclamation: the collectible registry, amortized-hook knobs,
    /// and version counters (see [`crate::reclaim`]).
    reclaim: ReclaimState,
    /// Named anchor registry, `(name, timestamp)` per live [`Anchor`] clone — diagnostic
    /// only; the pins that actually hold versions live in `active`.
    anchors: Mutex<Vec<(Arc<str>, u64)>>,
    /// The installed retention policy (returned by [`Camera::retention`]).
    retention: Mutex<RetentionPolicy>,
    /// The installed policy's [`RetentionPolicy::floor`], kept beside it so that
    /// `Camera::unpin` can compute the watermark without taking a second lock.
    policy_floor: AtomicU64,
    /// Monotone retention watermark: the highest cut any collection pass or pin release
    /// has computed. Never above a live pin; timestamps below it are permanently
    /// unaddressable ([`Camera::pin_snapshot_at`] returns [`RetentionError::Truncated`]),
    /// and a vCAS displacing a head stamped at or below it prunes its own cell (see
    /// [`crate::VersionedCell::compare_and_swap`]).
    oldest_retained: AtomicU64,
    /// Whether same-timestamp version elision is enabled (see
    /// [`crate::VersionedCell::compare_and_swap`]). Defaults to on; the `vcas_no_elide`
    /// build flag flips the default, and [`Camera::set_elision_enabled`] toggles it at
    /// runtime (used by the elision-equivalence proptest).
    elide: AtomicBool,
    /// Whether the cells on this camera run the `vcas_weaken_gate` mutation (see
    /// [`Camera::with_weakened_gate`]).
    #[cfg(vcas_weaken_gate)]
    weakened_gate: bool,
}

impl Camera {
    /// Creates a camera with its counter at zero.
    pub fn new() -> Arc<Camera> {
        Arc::new(Camera::unshared())
    }

    /// A camera whose cells run the `vcas_weaken_gate` mutation: their publication CAS
    /// drops the gate bit it observed. The mutation is scoped to such cameras because it
    /// lets two threads restructure one version list at once, which double-retires nodes;
    /// model builds free them for real, so an unscoped mutation would turn every other
    /// scenario of the combined mutation run into a double free instead of a report.
    /// Exists only under the cfg, for the model checks in `crates/analysis/tests/model.rs`.
    #[cfg(vcas_weaken_gate)]
    pub fn with_weakened_gate() -> Arc<Camera> {
        Arc::new(Camera { weakened_gate: true, ..Camera::unshared() })
    }

    #[cfg(vcas_weaken_gate)]
    pub(crate) fn gate_weakened(&self) -> bool {
        self.weakened_gate
    }

    fn unshared() -> Camera {
        Camera {
            timestamp: AtomicU64::new(0),
            active: Mutex::new(BTreeMap::new()),
            snapshots_taken: AtomicU64::new(0),
            reclaim: ReclaimState::new(),
            anchors: Mutex::new(Vec::new()),
            retention: Mutex::new(RetentionPolicy::default()),
            policy_floor: AtomicU64::new(RetentionPolicy::default().floor()),
            oldest_retained: AtomicU64::new(0),
            elide: AtomicBool::new(!cfg!(vcas_no_elide)),
            #[cfg(vcas_weaken_gate)]
            weakened_gate: false,
        }
    }

    /// Whether same-timestamp version elision is currently enabled on this camera.
    pub fn elision_enabled(&self) -> bool {
        // ORDERING: elision-knob — a policy toggle, not a publication: elision that runs
        // under a stale read is still sound (the eligibility check is timestamp equality,
        // re-validated structurally under the truncation gate), it is only more or less
        // eager than requested for a moment.
        self.elide.load(Ordering::Relaxed)
    }

    /// Enables or disables same-timestamp version elision at runtime. Disabling restores
    /// the one-node-per-successful-CAS lifecycle (every displaced version stays linked
    /// until the lazy collection reaps it) — used by the elision-equivalence proptest and
    /// by tests that exercise the lazy path deliberately.
    pub fn set_elision_enabled(&self, enabled: bool) {
        // ORDERING: elision-knob — see `elision_enabled`.
        self.elide.store(enabled, Ordering::Relaxed);
    }

    /// Takes a snapshot of every versioned CAS object associated with this camera and returns
    /// a handle to it, in a constant number of steps (Algorithm 1, `takeSnapshot`).
    pub fn take_snapshot(&self) -> SnapshotHandle {
        // ORDERING: diag-counter — monitoring only; no other data is published under it.
        self.snapshots_taken.fetch_add(1, Ordering::Relaxed);
        let ts = self.timestamp.load(Ordering::SeqCst);
        // If this CAS fails another takeSnapshot has already incremented the counter, which
        // is just as good: the returned handle still names a unique cut of the history.
        let _ = self.timestamp.compare_exchange(ts, ts + 1, Ordering::SeqCst, Ordering::SeqCst);
        SnapshotHandle::from_raw(ts)
    }

    /// Takes a snapshot *and registers it* so that version-list truncation will preserve
    /// every version the snapshot may need until the returned [`PinnedSnapshot`] is dropped.
    pub fn pin_snapshot(self: &Arc<Self>) -> PinnedSnapshot {
        let ts = {
            let mut active = self.active.lock();
            // Taking the snapshot while holding the registry lock closes the race between
            // handing out a handle and making it visible to `min_active`.
            let handle = self.take_snapshot();
            *active.entry(handle.raw()).or_insert(0) += 1;
            handle
        };
        PinnedSnapshot::new(self.clone(), ts)
    }

    /// Pins a snapshot at an **arbitrary retained timestamp**, not just one being taken
    /// right now — the camera-level primitive behind the structure layer's `view_at(ts)`.
    ///
    /// Succeeds for any `ts` between the retention watermark
    /// ([`Camera::oldest_retained`]) and the camera's current time, inclusive. Asking for
    /// the current (still-open) instant closes it first by taking a fresh snapshot under
    /// the registry lock, so the returned pin's timestamp may exceed `ts` by the
    /// concurrent-snapshot slack; every strictly-past timestamp pins exactly at `ts`.
    ///
    /// The check-then-pin is race-free against truncation: the watermark is read and the
    /// pin registered under the same lock that collection passes use to compute their cut
    /// ([`Camera::retention_floor`]), so a successful past-pin is visible to every later
    /// pass and its history can no longer be reclaimed.
    pub fn pin_snapshot_at(self: &Arc<Self>, ts: u64) -> Result<PinnedSnapshot, RetentionError> {
        let mut active = self.active.lock();
        let now = self.timestamp.load(Ordering::SeqCst);
        if ts > now {
            return Err(RetentionError::InFuture { requested: ts, now });
        }
        if ts == now {
            // The instant `ts` is still open: a later write could still stamp a version
            // at `ts`. Take a fresh snapshot (advancing the counter past `ts`) so the
            // pinned instant is closed and therefore frozen.
            let handle = self.take_snapshot();
            *active.entry(handle.raw()).or_insert(0) += 1;
            return Ok(PinnedSnapshot::new(self.clone(), handle));
        }
        let watermark = self.oldest_retained.load(Ordering::SeqCst);
        if ts < watermark {
            return Err(RetentionError::Truncated { requested: ts, oldest_retained: watermark });
        }
        *active.entry(ts).or_insert(0) += 1;
        Ok(PinnedSnapshot::new(self.clone(), SnapshotHandle::from_raw(ts)))
    }

    /// Creates a **named persistent anchor** at the present: pins a fresh snapshot and
    /// registers it under `name`. The anchored timestamp stays exactly readable
    /// (`view_at`, `read_snapshot`) until the last clone of the returned [`Anchor`]
    /// drops, regardless of reclamation policy.
    pub fn anchor(self: &Arc<Self>, name: &str) -> Anchor {
        Anchor::new(name, self.pin_snapshot())
    }

    /// Creates a named anchor at an arbitrary retained timestamp
    /// (see [`Camera::pin_snapshot_at`] for the addressability rules).
    pub fn anchor_at(self: &Arc<Self>, name: &str, ts: u64) -> Result<Anchor, RetentionError> {
        Ok(Anchor::new(name, self.pin_snapshot_at(ts)?))
    }

    /// Re-pins an already-pinned handle (`Anchor::clone`): bumps the active count at the
    /// same timestamp, so clones are independently droppable.
    pub(crate) fn repin(self: &Arc<Self>, handle: SnapshotHandle) -> PinnedSnapshot {
        let mut active = self.active.lock();
        let count = active.entry(handle.raw()).or_insert(0);
        debug_assert!(*count > 0, "repin of handle {} with no live pin", handle.raw());
        *count += 1;
        drop(active);
        PinnedSnapshot::new(self.clone(), handle)
    }

    pub(crate) fn register_anchor(&self, name: &Arc<str>, ts: u64) {
        self.anchors.lock().push((name.clone(), ts));
    }

    pub(crate) fn deregister_anchor(&self, name: &str, ts: u64) {
        let mut anchors = self.anchors.lock();
        if let Some(i) = anchors.iter().position(|(n, t)| &**n == name && *t == ts) {
            anchors.swap_remove(i);
        }
    }

    /// The currently live named anchors as `(name, timestamp)` pairs (diagnostic; one
    /// entry per live [`Anchor`] clone, in no particular order).
    pub fn anchors(&self) -> Vec<(String, u64)> {
        self.anchors.lock().iter().map(|(n, t)| (n.to_string(), *t)).collect()
    }

    /// Installs a [`RetentionPolicy`]; it takes effect on the next collection pass or pin
    /// release. Loosening a policy (raising its floor) lets the next pass reclaim the newly
    /// unprotected history; tightening one cannot resurrect what a past cut already
    /// released ([`Camera::oldest_retained`] is monotone).
    pub fn set_retention(&self, policy: RetentionPolicy) {
        let mut retention = self.retention.lock();
        // ORDERING: policy-floor — a configuration word; see `advance_watermark`.
        self.policy_floor.store(policy.floor(), Ordering::Relaxed);
        *retention = policy;
    }

    /// The currently installed retention policy.
    pub fn retention(&self) -> RetentionPolicy {
        self.retention.lock().clone()
    }

    /// The retention watermark: the oldest timestamp still guaranteed exactly readable.
    /// Advances to every truncation cut a collection pass enforces, and to the new cut
    /// whenever a timestamp's last pin is released; never retreats and never passes a
    /// live pin. `view_at(ts)` / [`Camera::pin_snapshot_at`] fail with
    /// [`RetentionError::Truncated`] below it.
    pub fn oldest_retained(&self) -> u64 {
        self.oldest_retained.load(Ordering::SeqCst)
    }

    /// Computes the truncation cut collection passes enforce — the oldest timestamp that
    /// must stay exactly readable — and advances the retention watermark to it.
    ///
    /// The cut is `min(oldest live pin or anchor, retention-policy floor)`: pins and
    /// anchors always hold their timestamp alive, and the installed [`RetentionPolicy`]
    /// can only extend retention further back, never cut below a live reader.
    pub fn retention_floor(&self) -> u64 {
        let active = self.active.lock();
        self.advance_watermark(active.keys().next().copied())
    }

    /// The one computation of the cut, `min(oldest_pin or now, policy floor)`, which it
    /// publishes as the new watermark (monotone: a cut below the current watermark leaves
    /// it unchanged). Callers hold the registry lock, so a `pin_snapshot_at` serialized
    /// after this call observes the watermark, and every pin registered before it is
    /// `oldest_pin` or above it: the watermark never passes a live pin.
    fn advance_watermark(&self, oldest_pin: Option<u64>) -> u64 {
        let pin_floor = oldest_pin.unwrap_or_else(|| self.timestamp.load(Ordering::SeqCst));
        // ORDERING: policy-floor — a configuration word written under the retention lock;
        // an install that happens-before this call is seen (coherence), and one racing it
        // applies from the next call on.
        let cut = pin_floor.min(self.policy_floor.load(Ordering::Relaxed));
        self.oldest_retained.fetch_max(cut, Ordering::SeqCst);
        cut
    }

    /// Whether any live pin (or anchor) sits at or below `ts` — used by the
    /// `read_snapshot` debug assertion that an anchored read never hits the
    /// oldest-retained fallback.
    pub(crate) fn has_pin_at_or_below(&self, ts: u64) -> bool {
        self.active.lock().keys().next().is_some_and(|&first| first <= ts)
    }

    /// Releases one pin on `handle`. When it was the timestamp's last pin the watermark
    /// advances to the new cut at once, under the same lock, so the next vCAS on any cell
    /// can prune the history only that pin needed (write-time pruning, see
    /// `docs/reclamation.md`) without waiting for a collection pass.
    pub(crate) fn unpin(&self, handle: SnapshotHandle) {
        let mut active = self.active.lock();
        match active.get_mut(&handle.raw()) {
            Some(count) => {
                *count -= 1;
                if *count == 0 {
                    active.remove(&handle.raw());
                    self.advance_watermark(remaining_pin_floor(&active));
                }
            }
            // An unpin with no matching registry entry means pin/unpin accounting went
            // wrong somewhere (e.g. a double unpin): silently ignoring it would let
            // `min_active` advance past a snapshot a reader still holds. Loudly reject it
            // in debug builds; in release the unpin is dropped, which can only *delay*
            // truncation, never unleash it early.
            None => debug_assert!(
                false,
                "unpin of unregistered snapshot handle {} (double unpin?)",
                handle.raw()
            ),
        }
    }

    /// Returns a timestamp such that no currently pinned snapshot (and no pinned snapshot
    /// created in the future) will ever need a version older than the newest version with
    /// timestamp at or below it.
    pub fn min_active(&self) -> u64 {
        let active = self.active.lock();
        match active.keys().next() {
            Some(&ts) => ts,
            None => self.timestamp.load(Ordering::SeqCst),
        }
    }

    /// Number of pinned snapshots currently registered.
    pub fn pinned_count(&self) -> usize {
        self.active.lock().values().sum()
    }

    /// Current value of the camera's counter (the handle the next `take_snapshot` would
    /// return, absent concurrent increments).
    pub fn current_timestamp(&self) -> u64 {
        self.timestamp.load(Ordering::SeqCst)
    }

    /// Total number of `take_snapshot` calls made on this camera (diagnostic).
    pub fn snapshots_taken(&self) -> u64 {
        // ORDERING: diag-counter — monitoring only.
        self.snapshots_taken.load(Ordering::Relaxed)
    }

    // ----- automatic version-list reclamation (see [`crate::reclaim`]) -----------------

    /// Registers `member` with this camera's reclamation registry. Registration holds only
    /// a `Weak` reference: dropping the structure unregisters it automatically.
    pub fn register_collectible<C: Collectible + 'static>(&self, member: &Arc<C>) {
        self.reclaim.register(Arc::downgrade(member) as Weak<dyn Collectible>);
    }

    /// Number of live structures currently registered for reclamation.
    pub fn registered_collectibles(&self) -> usize {
        self.reclaim.registered_count()
    }

    /// The amortized reclamation hook: data structures call this after every successful
    /// update. Every `every_n_updates`-th call (per the installed
    /// [`crate::ReclaimPolicy::Amortized`] policy) truncates a bounded slice of the next
    /// registered structure under the current [`Camera::retention_floor`]; all other
    /// calls are two relaxed atomic operations. A no-op unless an amortized policy is
    /// installed.
    pub fn reclaim_tick(&self, guard: &Guard) {
        if let Some(budget) = self.reclaim.tick() {
            self.collect_slice(budget, guard);
        }
    }

    /// Truncates up to `budget` cells of the *next* registered structure (round-robin)
    /// under the current [`Camera::retention_floor`]. Returns what the slice
    /// accomplished; a pass already in flight on another thread makes this call a no-op.
    pub fn collect_slice(&self, budget: usize, guard: &Guard) -> CollectStats {
        self.reclaim.collect_slice(self.retention_floor(), budget, guard)
    }

    /// Truncates up to `budget_per_member` cells of *every* registered structure under
    /// the current [`Camera::retention_floor`] (one sweep of the background collector).
    /// A pass already in flight on another thread makes this call a no-op.
    pub fn collect_all(&self, budget_per_member: usize, guard: &Guard) -> CollectStats {
        self.reclaim.collect_all(self.retention_floor(), budget_per_member, guard)
    }

    /// Repeatedly runs [`Camera::collect_all`] until one *fresh* full pass retires nothing
    /// — i.e. every version list is as short as the current pin set allows — or
    /// `max_rounds` passes have run. The returned aggregate's
    /// [`CollectStats::completed_cycle`] is `true` exactly when quiescence was reached.
    /// (Stop any background [`crate::Collector`] first: a pass it has in flight makes this
    /// camera's passes skip.)
    pub fn collect_to_quiescence(
        &self,
        budget_per_member: usize,
        max_rounds: usize,
        guard: &Guard,
    ) -> CollectStats {
        let mut total = CollectStats::default();
        // A zero-retirement pass only proves quiescence if it swept the *whole* structure
        // set — and earlier drivers (hooks, a collector) may have parked resume cursors
        // mid-structure, making the first pass a tail sweep. A completed pass wraps every
        // cursor back to the start, so require the zero pass to follow one.
        let mut fresh_cycle = false;
        for _ in 0..max_rounds {
            let pass = self.collect_all(budget_per_member, guard);
            total.cells_visited += pass.cells_visited;
            total.versions_retired += pass.versions_retired;
            if fresh_cycle && pass.completed_cycle && pass.versions_retired == 0 {
                total.completed_cycle = true;
                return total;
            }
            fresh_cycle = pass.completed_cycle;
        }
        total
    }

    /// Total version nodes retired through truncation on this camera
    /// ([`crate::VersionedCell::collect_before`]) — a pure signal of the reclamation
    /// drivers (hooks, collector, manual sweeps); versions freed with their cell are
    /// counted separately ([`Camera::versions_dropped`]).
    pub fn versions_retired(&self) -> u64 {
        self.reclaim.retired()
    }

    /// Total version nodes freed because their cell was destroyed: an unlinked node
    /// reclaimed by its structure, a node never published after a failed CAS, or a whole
    /// structure dropped.
    pub fn versions_dropped(&self) -> u64 {
        self.reclaim.dropped()
    }

    /// Total version nodes ever created on this camera: initial versions plus successful
    /// CASes **that lengthened a version list**. An elided or pruned update (see
    /// [`Camera::versions_elided`], [`Camera::versions_pruned`]) reuses the slot of a node
    /// it freed and is deliberately not counted here, so this counter measures real
    /// version production.
    pub fn versions_created(&self) -> u64 {
        self.reclaim.created()
    }

    /// Total successful CASes whose displaced head was elided (unlinked and recycled at
    /// publication time because the camera timestamp had not advanced). Each elision is an
    /// allocation-free update: `versions_created` does not move for it.
    pub fn versions_elided(&self) -> u64 {
        self.reclaim.elided()
    }

    /// Total successful CASes that pruned their own cell at publication time: the displaced
    /// head was stamped at or below the retention watermark, so the vCAS cut the list
    /// below its newest version at or below it (see
    /// [`crate::VersionedCell::compare_and_swap`]). Each is a slot transfer like an elision:
    /// `versions_created` does not move for it, and of the nodes it cut all but one count
    /// as retired.
    pub fn versions_pruned(&self) -> u64 {
        self.reclaim.pruned()
    }

    /// Approximate number of live (retained) versions across every versioned CAS object on
    /// this camera: versions created minus versions retired minus versions dropped. The
    /// counters are relaxed and cell destruction is counted when the (possibly
    /// epoch-deferred) destructor actually runs, so use it for monitoring and boundedness
    /// checks, not exact accounting.
    pub fn approx_live_versions(&self) -> u64 {
        self.reclaim
            .created()
            .saturating_sub(self.reclaim.retired())
            .saturating_sub(self.reclaim.dropped())
    }

    /// Total data-structure nodes allocated by structures on this camera. Called by the
    /// data-structure implementations at allocation sites; read it for monitoring.
    pub fn nodes_created(&self) -> u64 {
        self.reclaim.nodes_created()
    }

    /// Total data-structure nodes retired because their version-held reference count hit
    /// zero — the node-reclamation analogue of [`Camera::versions_retired`]
    /// (see [`crate::versioned_ptr::VersionReferenced`]).
    pub fn nodes_retired(&self) -> u64 {
        self.reclaim.nodes_retired()
    }

    /// Total data-structure nodes freed directly by a structure: a node that lost its
    /// publication race, or a BST or skip-list sentinel freed by the structure's
    /// destructor.
    pub fn nodes_dropped(&self) -> u64 {
        self.reclaim.nodes_dropped()
    }

    /// Approximate number of live data-structure nodes across every structure on this
    /// camera: created − retired − dropped. With reclamation quiesced and EBR drained
    /// this equals the nodes reachable from the structures' current states; a steadily
    /// growing value under a steady-state workload is the signature of a leak.
    pub fn approx_live_nodes(&self) -> u64 {
        self.reclaim
            .nodes_created()
            .saturating_sub(self.reclaim.nodes_retired())
            .saturating_sub(self.reclaim.nodes_dropped())
    }

    /// Records `n` data-structure node allocations (called by structure implementations;
    /// see [`Camera::nodes_created`]).
    pub fn note_nodes_created(&self, n: u64) {
        self.reclaim.note_nodes_created(n);
    }

    /// Records `n` data-structure nodes freed directly by a structure (failed publication,
    /// BST or skip-list sentinel teardown; see [`Camera::nodes_dropped`]).
    pub fn note_nodes_dropped(&self, n: u64) {
        self.reclaim.note_nodes_dropped(n);
    }

    pub(crate) fn note_nodes_retired(&self, n: u64) {
        self.reclaim.note_nodes_retired(n);
    }

    pub(crate) fn set_amortized_reclaim(&self, every_n_updates: u64, budget: usize) {
        self.reclaim.set_amortized(every_n_updates, budget);
    }

    pub(crate) fn note_initial_version(&self) {
        self.reclaim.note_initial();
    }

    pub(crate) fn note_version_pushed(&self) {
        self.reclaim.note_pushed();
    }

    pub(crate) fn note_versions_retired(&self, n: u64) {
        self.reclaim.note_retired(n);
    }

    pub(crate) fn note_versions_dropped(&self, n: u64) {
        self.reclaim.note_dropped(n);
    }

    pub(crate) fn note_versions_elided(&self, n: u64) {
        self.reclaim.note_elided(n);
    }

    pub(crate) fn note_version_pruned(&self) {
        self.reclaim.note_pruned();
    }
}

/// The oldest pin left after an unpin, which bounds the watermark that unpin publishes.
#[cfg(not(vcas_weaken_prune))]
fn remaining_pin_floor(active: &BTreeMap<u64, usize>) -> Option<u64> {
    active.keys().next().copied()
}
/// Mutated (deliberately wrong) unpin floor: ignores the pins that remain, so releasing
/// one pin raises the watermark to the present and the next vCAS prunes history an older
/// live pin still reads. Exists solely for the mutation twin in
/// `crates/analysis/tests/model.rs`, which proves the model checker catches the moved
/// pinned read (stock builds never set the cfg).
#[cfg(vcas_weaken_prune)]
fn remaining_pin_floor(_: &BTreeMap<u64, usize>) -> Option<u64> {
    None
}

impl std::fmt::Debug for Camera {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Camera")
            .field("timestamp", &self.current_timestamp())
            .field("pinned", &self.pinned_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_snapshot_advances_counter() {
        let cam = Camera::new();
        let a = cam.take_snapshot();
        let b = cam.take_snapshot();
        let c = cam.take_snapshot();
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw(), 1);
        assert_eq!(c.raw(), 2);
        assert_eq!(cam.current_timestamp(), 3);
    }

    #[test]
    fn min_active_tracks_pins() {
        let cam = Camera::new();
        assert_eq!(cam.min_active(), 0);
        let p0 = cam.pin_snapshot();
        let _later = cam.take_snapshot();
        let p1 = cam.pin_snapshot();
        assert_eq!(cam.min_active(), p0.handle().raw());
        drop(p0);
        assert_eq!(cam.min_active(), p1.handle().raw());
        drop(p1);
        // With nothing pinned, min_active falls back to the current counter.
        assert_eq!(cam.min_active(), cam.current_timestamp());
    }

    #[test]
    fn pinned_count_reference_counts_duplicates() {
        let cam = Camera::new();
        let a = cam.pin_snapshot();
        let b = cam.pin_snapshot();
        assert_eq!(cam.pinned_count(), 2);
        drop(a);
        assert_eq!(cam.pinned_count(), 1);
        drop(b);
        assert_eq!(cam.pinned_count(), 0);
    }

    /// Regression test for the silent-unpin bug: interleaved pins (including duplicates on
    /// one timestamp) and drops must conserve the pin count exactly — every pin is matched
    /// by one unpin, and the registry ends empty with `min_active` released.
    #[test]
    fn pin_unpin_counts_stay_conserved() {
        let cam = Camera::new();
        let mut pins = Vec::new();
        for round in 0..4 {
            // Two pins land on the same handle (no snapshot taken in between the lock is
            // released), plus one on a later timestamp.
            pins.push(cam.pin_snapshot());
            pins.push(cam.pin_snapshot());
            let _ = cam.take_snapshot();
            pins.push(cam.pin_snapshot());
            assert_eq!(cam.pinned_count(), 3 * (round + 1));
        }
        // Drop in an order that interleaves duplicate and unique handles.
        while let Some(pin) = pins.pop() {
            let before = cam.pinned_count();
            drop(pin);
            assert_eq!(cam.pinned_count(), before - 1, "each unpin releases exactly one pin");
        }
        assert_eq!(cam.pinned_count(), 0);
        assert_eq!(cam.min_active(), cam.current_timestamp(), "registry fully drained");
    }

    /// Releasing a timestamp's last pin advances the watermark at once, to the oldest
    /// remaining pin or, with none left, to the present — capped by the retention policy
    /// — and `pin_snapshot_at` below it then fails.
    #[test]
    fn unpin_advances_the_watermark_to_the_remaining_floor() {
        let cam = Camera::new();
        let p0 = cam.pin_snapshot();
        let p0_dup = cam.pin_snapshot();
        let _ = cam.take_snapshot();
        let p1 = cam.pin_snapshot();
        drop(p0_dup);
        assert_eq!(cam.oldest_retained(), 0, "a duplicate pin keeps its timestamp live");
        let p0_ts = p0.handle().raw();
        drop(p0);
        assert_eq!(cam.oldest_retained(), p1.handle().raw(), "the remaining pin caps it");
        assert!(matches!(cam.pin_snapshot_at(p0_ts), Err(RetentionError::Truncated { .. })));
        drop(p1);
        assert_eq!(cam.oldest_retained(), cam.current_timestamp(), "no pins: the present");

        let kept = cam.current_timestamp();
        cam.set_retention(RetentionPolicy::KeepNewerThan(kept));
        for _ in 0..3 {
            drop(cam.pin_snapshot());
        }
        assert_eq!(cam.oldest_retained(), kept, "the policy floor caps the advance");
        assert!(cam.pin_snapshot_at(kept).is_ok());
    }

    #[test]
    fn concurrent_take_snapshot_handles_are_monotone_per_thread() {
        let cam = Camera::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cam = cam.clone();
            handles.push(std::thread::spawn(move || {
                let mut last = 0;
                for _ in 0..1000 {
                    let ts = cam.take_snapshot().raw();
                    assert!(ts >= last, "snapshot handles must never go backwards");
                    last = ts;
                }
                last
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // The counter only moves by increments of one, so it can never exceed the number of
        // takeSnapshot calls.
        assert!(cam.current_timestamp() <= 4 * 1000);
        assert!(cam.current_timestamp() >= 1);
    }
}
