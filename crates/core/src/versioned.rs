//! The versioned CAS object (paper §3.1, Algorithm 1).

use std::marker::PhantomData;
use std::sync::Arc;

use crate::sync::{AtomicBool, Ordering};

use vcas_ebr::{Atomic, Guard, Shared};

use crate::camera::Camera;
use crate::snapshot::SnapshotHandle;
use crate::vnode::{VNode, VersionValue};
use crate::vpool;
use crate::TBD;

/// A CAS object whose entire history of values can be read through snapshot handles.
///
/// `VersionedCas<T>` supports the paper's three operations:
///
/// * [`read`](VersionedCas::read) (`vRead`) — constant time;
/// * [`compare_and_swap`](VersionedCas::compare_and_swap) (`vCAS`) — constant time;
/// * [`read_snapshot`](VersionedCas::read_snapshot) — wait-free, taking time proportional to
///   the number of successful CASes on this object since the snapshot was taken.
///
/// The object keeps a singly linked *version list*, newest first. The head node's timestamp
/// may transiently be the `TBD` placeholder; every operation that observes this helps stamp
/// it (`initTS`) before proceeding, which is what makes "append node + read global timestamp
/// + record it" appear atomic and gives the linearization points proven in the paper.
///
/// **Version lifecycle** (see `docs/reclamation.md`): nodes are born from the per-thread
/// pool (`vpool`), published by the vCAS, possibly *elided* right after publication when
/// the camera has not advanced (the paper's recommended same-timestamp optimization — see
/// [`VersionedCas::compare_and_swap`]), and die back into the pool via truncation, elision,
/// a lost publication race, or the cell's destructor.
///
/// `T` must implement [`VersionValue`]: values are small words (integers, packed pointers)
/// stored in non-generic, poolable nodes. For versioned *pointers* to data-structure nodes
/// use the typed wrapper [`crate::VersionedPtr`].
pub struct VersionedCas<T: VersionValue, H: ValueHook<T> = ()> {
    head: Atomic<VNode>,
    camera: Arc<Camera>,
    /// Serializes version-list restructuring: truncation cuts, dead same-timestamp
    /// unlinks, and the elision unlink (never touched by reads or by the publication CAS).
    truncating: AtomicBool,
    /// The value lifecycle hook, a type only: invoked once per version node holding a
    /// value (acquire at creation, release at destruction). This is how managed pointer
    /// cells ([`crate::Managed`]) thread data-node reference counting through the version
    /// list — see [`ValueHook`].
    _hook: PhantomData<fn(T) -> H>,
}

/// Per-value lifecycle callbacks of a versioned CAS object, chosen at compile time: the
/// hook is the cell's second type parameter, so it occupies no space in the cell (a
/// hooked cell is the same three words as an unhooked one) and its calls are static, not
/// through function pointers. `()` is the no-op hook of unmanaged cells.
///
/// The contract: `acquire(v)` is called once for every version node about to be created
/// with value `v` (before the node is published). It may *refuse* by returning `false` —
/// the value names something that can no longer be referenced — and then no version node
/// is created: the construction or vCAS fails and `release` is never called for it.
/// After an accepted `acquire`, `release(v, camera, guard)` is called exactly once when
/// that version node is destroyed — by truncation, by elision of a displaced head, by a
/// failed publication, or by the cell's destructor. Releases triggered by truncation or
/// elision run under the calling thread's guard, so a release that frees memory must defer
/// through the guard (epoch-based reclamation), never free immediately.
pub trait ValueHook<T>: 'static {
    /// `false` only for a hook whose callbacks do nothing; the cell's destructor then
    /// skips pinning the guard it would release values under.
    const ACTIVE: bool = true;
    /// Called when a version node holding the value is about to be created
    /// (pre-publication); `false` refuses the value.
    fn acquire(value: T) -> bool;
    /// Called when a version node holding the value is destroyed.
    fn release(value: T, camera: &Arc<Camera>, guard: &Guard);
}

/// The no-op hook of unmanaged cells: accepts every value, releases nothing.
impl<T> ValueHook<T> for () {
    const ACTIVE: bool = false;
    #[inline]
    fn acquire(_: T) -> bool {
        true
    }
    #[inline]
    fn release(_: T, _: &Arc<Camera>, _: &Guard) {}
}

// SAFETY: the cell owns its version list; all shared access goes through atomics and
// epoch guards, so it may move between threads (`VersionValue` requires `Send + Sync`).
unsafe impl<T: VersionValue, H: ValueHook<T>> Send for VersionedCas<T, H> {}
// SAFETY: reads, CASes, truncation and elision are all safe for concurrent callers (list
// restructuring is self-serializing via `truncating`); `&VersionedCas<T, H>` is shareable.
unsafe impl<T: VersionValue, H: ValueHook<T>> Sync for VersionedCas<T, H> {}

/// Success ordering of the publication CAS in [`VersionedCas::compare_and_swap`].
///
/// The protocol requires `SeqCst`: publishing a version node must be totally ordered with
/// the camera's timestamp reads so that `initTS` helping sees a frozen head. The
/// `vcas_weaken_publish` cfg exists solely for the mutation regression test in
/// `crates/analysis/tests/mutation.rs`, which proves the model checker catches the bug
/// this weakening introduces (stock builds never set the cfg).
#[cfg(not(vcas_weaken_publish))]
pub const PUBLISH_CAS_ORDERING: Ordering = Ordering::SeqCst;
/// Mutated (deliberately wrong) publication ordering — see the stock-build docs above.
// ORDERING: mutation-test — test-only deliberate weakening; never compiled into stock
// builds (guarded by `--cfg vcas_weaken_publish`).
#[cfg(vcas_weaken_publish)]
pub const PUBLISH_CAS_ORDERING: Ordering = Ordering::Relaxed;

/// Ordering of a standalone *publication fence*: a `fence(Release)` between a data write
/// and the relaxed store that makes it reachable, the fence-based variant of the
/// publication idiom above (the paper's C++ artifact publishes version nodes this way;
/// the Rust port folds the release into the CAS, but the model checker proves both
/// shapes). A `Release` fence makes every prior store visible to any thread whose later
/// `Acquire` fence (or acquire load) observes a store sequenced after it.
///
/// The `vcas_weaken_fence` cfg downgrades it to `Acquire` — a fence that publishes
/// nothing — solely for the mutation regression test in
/// `crates/analysis/tests/mutation.rs` (stock builds never set the cfg; `Relaxed` is not
/// used because `std::sync::atomic::fence(Relaxed)` panics).
#[cfg(not(vcas_weaken_fence))]
pub const PUBLISH_FENCE_ORDERING: Ordering = Ordering::Release;
/// Mutated (deliberately wrong) publication-fence ordering — see the stock-build docs.
// ORDERING: mutation-test — test-only deliberate weakening; never compiled into stock
// builds (guarded by `--cfg vcas_weaken_fence`).
#[cfg(vcas_weaken_fence)]
pub const PUBLISH_FENCE_ORDERING: Ordering = Ordering::Acquire;

/// Eligibility check of the `elide_cas` path: a displaced head may be unlinked only when
/// the new head carries the **same** timestamp — then (and only then) the displaced
/// version is shadowed for every possible snapshot handle. Timestamp equality is a pure
/// fact about two immutable stamps, so this check has no TOCTOU window; the structural
/// race (is the displaced node still linked right below the new head?) is re-validated
/// under the `truncating` gate inside [`VersionedCas::compare_and_swap`]'s elision step.
#[cfg(not(vcas_weaken_elide))]
#[inline]
fn elide_match(new_ts: u64, displaced_ts: u64) -> bool {
    new_ts == displaced_ts
}
/// Mutated (deliberately wrong) elision guard: `>=` instead of `==` accepts *every*
/// displaced head (stamps are monotone), so elision erases genuinely distinct versions —
/// exactly the history a pinned snapshot may still need. Exists solely for the mutation
/// regression in `crates/analysis/tests/model_structures.rs`, which proves the model
/// checker catches the frozen-read violation this introduces (stock builds never set the
/// cfg).
#[cfg(vcas_weaken_elide)]
#[inline]
fn elide_match(new_ts: u64, displaced_ts: u64) -> bool {
    new_ts >= displaced_ts
}

impl<T: VersionValue> VersionedCas<T> {
    /// Creates a versioned CAS object holding `initial`, associated with `camera`.
    pub fn new(initial: T, camera: &Arc<Camera>) -> Self {
        Self::build(initial, camera)
    }
}

impl<T: VersionValue, H: ValueHook<T>> VersionedCas<T, H> {
    /// Creates a versioned CAS object whose values go through the hook `H` (see
    /// [`ValueHook`]). `H::acquire` is invoked for `initial` first; `None` when it refuses
    /// the value.
    pub(crate) fn with_hook(initial: T, camera: &Arc<Camera>) -> Option<Self> {
        H::acquire(initial).then(|| Self::build(initial, camera))
    }

    fn build(initial: T, camera: &Arc<Camera>) -> Self {
        let node = vpool::alloc(VNode::initial(initial.into_word()));
        // Stamp the initial version immediately (constructor runs before any concurrent
        // access, so a plain store of the current timestamp is the paper's initTS).
        node.as_ref().ts.store(camera.current_timestamp(), Ordering::SeqCst);
        camera.note_initial_version();
        VersionedCas {
            head: Atomic::from_owned(node),
            camera: camera.clone(),
            truncating: AtomicBool::new(false),
            _hook: PhantomData,
        }
    }

    /// The camera this object is associated with.
    pub fn camera(&self) -> &Arc<Camera> {
        &self.camera
    }

    /// `initTS`: if `node`'s timestamp is still TBD, stamp it with the camera's current
    /// counter value. Any thread may perform this helping step; the CAS guarantees the
    /// timestamp is written at most once. Returns the node's final (stamped) timestamp.
    #[inline]
    fn init_ts(&self, node: &VNode) -> u64 {
        let ts = node.ts.load(Ordering::SeqCst);
        if ts != TBD {
            return ts;
        }
        let cur = self.camera.current_timestamp();
        match node.ts.compare_exchange(TBD, cur, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => cur,
            Err(actual) => actual,
        }
    }

    /// `vRead`: returns the current value. Constant time.
    pub fn read(&self, guard: &Guard) -> T {
        let head = self.head.load(Ordering::SeqCst, guard);
        // SAFETY: the head pointer is never null and `guard` pins the epoch.
        let node = unsafe { head.deref() };
        self.init_ts(node);
        T::from_word(node.word)
    }

    /// `vCAS(old, new)`: if the current value equals `old`, replace it with `new` and return
    /// `true`; otherwise return `false`. Constant time. A cell with a value lifecycle hook
    /// also returns `false`, changing nothing, when the hook refuses `new` (a managed
    /// pointer cell refuses a retired node; see [`crate::VersionReferenced`]).
    ///
    /// When the successful publication is stamped with the **same** timestamp as the head
    /// it displaced — i.e. the camera has not advanced since the previous update — the
    /// displaced version is dead on arrival: `read_snapshot` walks newest-first and stops
    /// at the first version with `ts <= handle`, so no handle can ever return a version
    /// shadowed by a strictly newer one at the same timestamp. The `elide_cas` step then
    /// unlinks the displaced node immediately and recycles it through the pool, so an
    /// update burst between two camera advances keeps the list at one node instead of
    /// growing per CAS (the paper's recommended elision, §4).
    pub fn compare_and_swap(&self, old: T, new: T, guard: &Guard) -> bool {
        let head = self.head.load(Ordering::SeqCst, guard);
        // SAFETY: the head pointer is never null and `guard` pins the epoch.
        let head_ref = unsafe { head.deref() };
        let displaced_ts = self.init_ts(head_ref);
        if head_ref.word != old.into_word() {
            return false;
        }
        if new == old {
            return true;
        }
        // Acquire before the node can become visible, so a concurrent truncation that
        // destroys the (published) node always finds the reference already counted. A
        // refused value fails the vCAS before anything was allocated or published.
        if !H::acquire(new) {
            return false;
        }
        let new_node = vpool::alloc(VNode::new(new.into_word(), head)).into_shared(guard);
        match self.head.compare_exchange(
            head,
            new_node,
            PUBLISH_CAS_ORDERING,
            Ordering::SeqCst,
            guard,
        ) {
            Ok(_) => {
                // SAFETY: we just published `new_node`; it is non-null and epoch-protected.
                let new_ref = unsafe { new_node.deref() };
                let new_ts = self.init_ts(new_ref);
                if !self.elide_cas(new_node, new_ts, head, displaced_ts, guard) {
                    self.camera.note_version_pushed();
                }
                true
            }
            Err(err) => {
                // SAFETY: the CAS failed, so the node was never published and this thread
                // still owns it exclusively; recycle immediately (Algorithm 1 line 50).
                unsafe { vpool::recycle(err.new.as_raw()) };
                H::release(new, &self.camera, guard);
                // Help the vCAS that beat us stamp its node before we report failure.
                let current = self.head.load(Ordering::SeqCst, guard);
                // SAFETY: the head pointer is never null and `guard` pins the epoch.
                self.init_ts(unsafe { current.deref() });
                false
            }
        }
    }

    /// The elision step of [`VersionedCas::compare_and_swap`]: after `new_node` displaced
    /// `displaced` at the head, unlink and recycle `displaced` when both carry the same
    /// timestamp. Returns `true` when the displaced node was elided.
    ///
    /// **Why this is a separate post-publication step and not an in-place payload CAS:**
    /// replacing the head's payload in place requires "camera still equals the head's
    /// stamp" and "payload swapped" to be one atomic event. They are two words, so any
    /// check-then-CAS has a stall window in which the camera advances and another cell
    /// accepts an update at the *new* timestamp — the late in-place write would then be
    /// visible at the old timestamp while real-time-earlier updates are not: an
    /// inconsistent cut no recheck can repair (readers may already have returned it).
    /// Publishing through the normal vCAS first makes the timestamp comparison a pure
    /// fact about two immutable stamps; the unlink is then the PR 5 dead same-timestamp
    /// collection performed eagerly, whose safety argument is structural, not temporal.
    ///
    /// **Structural revalidation under the gate.** Between our publication and acquiring
    /// the `truncating` gate, a concurrent truncation may already have retired
    /// `displaced`, or a later vCAS may have displaced *and elided* `new_node` itself
    /// (leaving `displaced` linked below the newer head — unlinking it from our off-list
    /// node would orphan nothing but releasing it would double-free). Both are excluded
    /// by re-checking, under the gate, that `new_node` is still the head *and* that
    /// `displaced` is still its direct successor; on any mismatch the elision is skipped
    /// and the lazy collection in [`VersionedCas::collect_before`] reaps the node later.
    /// ABA on these pointer comparisons is impossible while we hold `guard`: a recycled
    /// address can only reappear after a grace period our own pin forbids.
    ///
    /// **Accounting** is slot-based so `created == retired + dropped` stays exact: an
    /// elided publication transfers the displaced node's "created" identity to the new
    /// head (the pair counts once as `versions_elided`, never again as created), and the
    /// recycled node is counted neither retired nor dropped — every *linked* node still
    /// dies exactly once.
    fn elide_cas(
        &self,
        new_node: Shared<'_, VNode>,
        new_ts: u64,
        displaced: Shared<'_, VNode>,
        displaced_ts: u64,
        guard: &Guard,
    ) -> bool {
        if !elide_match(new_ts, displaced_ts) || !self.camera.elision_enabled() {
            return false;
        }
        if self
            .truncating
            // ORDERING: elide-gate — failure means "a truncation or another elision is
            // restructuring the list, skip the optimization"; no data is read under the
            // failed CAS, so its load can be relaxed.
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        // Revalidate the structure under the gate (see the method docs): we may unlink
        // only if the list still reads `head -> new_node -> displaced`.
        let still_head = self.head.load(Ordering::SeqCst, guard);
        // SAFETY: `new_node` was published by us and cannot be freed before `guard` drops.
        let new_ref = unsafe { new_node.deref() };
        let still_next = new_ref.nextv.load(Ordering::SeqCst, guard);
        let elide =
            still_head.as_raw() == new_node.as_raw() && still_next.as_raw() == displaced.as_raw();
        if elide {
            // SAFETY: `displaced` is epoch-protected while `guard` is live (even if a
            // concurrent truncation had unlinked it, which the check above excludes).
            let displaced_ref = unsafe { displaced.deref() };
            let after = displaced_ref.nextv.load(Ordering::SeqCst, guard);
            new_ref.nextv.store(after, Ordering::SeqCst);
        }
        self.truncating.store(false, Ordering::Release);
        if elide {
            // SAFETY: as above — unlinked under the gate, epoch-protected.
            let displaced_ref = unsafe { displaced.deref() };
            H::release(T::from_word(displaced_ref.word), &self.camera, guard);
            let raw = displaced.as_raw();
            // SAFETY: the node was unlinked while we held the gate, so it is retired
            // exactly once; deferring through the guard returns it to the pool only
            // after every in-flight reader's grace period.
            unsafe { guard.defer_unchecked(move || vpool::recycle(raw)) };
            self.camera.note_versions_elided(1);
        }
        elide
    }

    /// `readSnapshot(ts)`: returns the value this object had when the snapshot identified by
    /// `handle` was taken.
    ///
    /// Wait-free; the number of steps is proportional to the number of successful CASes on
    /// this object whose timestamps exceed `handle`.
    ///
    /// The paper's precondition is that this object existed before the snapshot was taken
    /// and that no version the snapshot needs has been truncated away (guaranteed when the
    /// handle is *pinned*, [`Camera::pin_snapshot`]). If the precondition is violated —
    /// a raw, unpinned handle older than a [`VersionedCas::collect_before`] cut, or an
    /// object created after the snapshot — this convenience wrapper falls back to the
    /// **oldest retained value**. Callers that need to distinguish the fallback use
    /// [`VersionedCas::read_snapshot_checked`]; see `docs/snapshot_views.md` for the
    /// raw-vs-pinned handle contract.
    pub fn read_snapshot(&self, handle: SnapshotHandle, guard: &Guard) -> T {
        match self.read_snapshot_impl(handle, guard) {
            Ok(exact) => exact,
            Err((oldest_ts, fallback)) => {
                // The fallback must be unreachable for anchored/pinned timestamps: if a
                // pin at-or-below the handle is live and accounting is correct, every
                // truncation cut was <= that pin, so the cut version (ts <= watermark
                // <= pin <= handle) survives and the walk finds it. Bottoming out with
                // the oldest retained version *above* the watermark only happens for
                // born-later objects or raw unpinned handles — both outside the anchored
                // contract. The conjunction below is exactly "a pinned timestamp lost
                // retained history": a retention bug.
                debug_assert!(
                    !(oldest_ts <= self.camera.oldest_retained()
                        && self.camera.has_pin_at_or_below(handle.raw())),
                    "read_snapshot fallback hit for pinned/anchored handle {} \
                     (oldest retained version ts={}, watermark={})",
                    handle.raw(),
                    oldest_ts,
                    self.camera.oldest_retained()
                );
                fallback
            }
        }
    }

    /// `readSnapshot(ts)` with a defined out-of-history result: returns `Some(value)` when
    /// a version with timestamp at or below `handle` is still retained, and `None` when it
    /// is not — either because the object was created after the snapshot was taken, or
    /// because the needed version was truncated away while the handle was not pinned.
    ///
    /// With a pinned handle ([`Camera::pin_snapshot`]) on an object that predates it, this
    /// always returns `Some`.
    pub fn read_snapshot_checked(&self, handle: SnapshotHandle, guard: &Guard) -> Option<T> {
        self.read_snapshot_impl(handle, guard).ok()
    }

    /// Walks the version list for the newest version with timestamp `<= handle`:
    /// `Ok(value)` if found, `Err((oldest_ts, oldest_retained_value))` if the list
    /// bottoms out first (the pair feeds the anchored-fallback debug assertion in
    /// [`VersionedCas::read_snapshot`]).
    fn read_snapshot_impl(&self, handle: SnapshotHandle, guard: &Guard) -> Result<T, (u64, T)> {
        let ts = handle.raw();
        let head = self.head.load(Ordering::SeqCst, guard);
        // SAFETY: the head pointer is never null and `guard` pins the epoch.
        let mut node = unsafe { head.deref() };
        self.init_ts(node);
        loop {
            let node_ts = node.ts.load(Ordering::SeqCst);
            if node_ts <= ts {
                return Ok(T::from_word(node.word));
            }
            let next = node.nextv.load(Ordering::SeqCst, guard);
            // SAFETY: version-list links are epoch-protected while `guard` is live.
            match unsafe { next.as_ref() } {
                Some(older) => node = older,
                None => return Err((node_ts, T::from_word(node.word))),
            }
        }
    }

    /// Returns the retained history of this object as `(timestamp, value)` pairs, newest
    /// first (diagnostic / test helper; not constant time).
    pub fn versions(&self, guard: &Guard) -> Vec<(u64, T)> {
        let mut out = Vec::new();
        let mut cur = self.head.load(Ordering::SeqCst, guard);
        // SAFETY: version-list links are epoch-protected while `guard` is live.
        while let Some(node) = unsafe { cur.as_ref() } {
            out.push((node.ts.load(Ordering::SeqCst), T::from_word(node.word)));
            cur = node.nextv.load(Ordering::SeqCst, guard);
        }
        out
    }

    /// Number of versions currently in the list (diagnostic / test helper; not constant time).
    pub fn version_count(&self, guard: &Guard) -> usize {
        let mut count = 0;
        let mut cur = self.head.load(Ordering::SeqCst, guard);
        // SAFETY: version-list links are epoch-protected while `guard` is live.
        while let Some(node) = unsafe { cur.as_ref() } {
            count += 1;
            cur = node.nextv.load(Ordering::SeqCst, guard);
        }
        count
    }

    /// Truncates the version list, retiring through epoch-based reclamation:
    ///
    /// 1. every version strictly older than the newest version with timestamp
    ///    `<= min_active` (invisible to every pinned and future snapshot), and
    /// 2. every *dead same-timestamp intermediate* above `min_active`: a version shadowed
    ///    by a strictly newer version carrying the **same** timestamp. `read_snapshot`
    ///    walks newest-first and stops at the first version with `ts <= handle`, so the
    ///    shadowed one can never be returned for any handle — collecting it bounds the
    ///    list's length by the number of *distinct* retained timestamps (+1 for the cut
    ///    version), even under a long-lived pin. (The elision step of
    ///    [`VersionedCas::compare_and_swap`] usually recycles these at publication time;
    ///    this lazy walk is the fallback for elisions skipped under gate contention or
    ///    with elision disabled.)
    ///
    /// `min_active` should come from [`Camera::min_active`]; versions that a pinned snapshot
    /// may still need are never reclaimed. Returns the number of versions retired.
    pub fn collect_before(&self, min_active: u64, guard: &Guard) -> usize {
        // Only one truncation at a time per object; contention here just skips the work.
        // (Serialization also means `nextv` is only ever rewritten by one thread at a time:
        // interior unlinks below race only with readers, which see either the old chain —
        // the unlinked node stays intact until its grace period — or the new one.)
        if self
            .truncating
            // ORDERING: truncation-gate — failure means "someone else is truncating,
            // skip"; no data is read under the failed CAS, so its load can be relaxed.
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return 0;
        }
        let mut retired = 0;
        let head = self.head.load(Ordering::SeqCst, guard);
        // SAFETY: the head pointer is never null and `guard` pins the epoch.
        let mut node = unsafe { head.deref() };
        self.init_ts(node);
        // Walk toward the newest version with ts <= min_active, unlinking dead
        // same-timestamp intermediates on the way; everything *after* the cut version is
        // invisible to every pinned snapshot and to all future snapshots.
        loop {
            let ts = node.ts.load(Ordering::SeqCst);
            let next = node.nextv.load(Ordering::SeqCst, guard);
            if ts != TBD && ts <= min_active {
                // Cut here. Detach the suffix and retire it.
                if !next.is_null() {
                    node.nextv.store(Shared::null(), Ordering::SeqCst);
                    let mut cur = next;
                    // SAFETY: the detached suffix stays epoch-protected under `guard`.
                    while let Some(n) = unsafe { cur.as_ref() } {
                        let after = n.nextv.load(Ordering::SeqCst, guard);
                        H::release(T::from_word(n.word), &self.camera, guard);
                        let raw = cur.as_raw();
                        // SAFETY: the suffix was detached above, so no new reader can reach
                        // `cur`; each suffix node is retired exactly once, and the deferred
                        // recycle returns it to the pool only after grace.
                        unsafe { guard.defer_unchecked(move || vpool::recycle(raw)) };
                        retired += 1;
                        cur = after;
                    }
                }
                break;
            }
            // SAFETY: version-list links are epoch-protected while `guard` is live.
            let Some(older) = (unsafe { next.as_ref() }) else { break };
            // Only the head can still be TBD, and `init_ts` above stamped it, so every
            // node on this walk has a valid timestamp; the checks are belt-and-braces.
            if ts != TBD && older.ts.load(Ordering::SeqCst) == ts {
                // `older` is shadowed by `node` at the same timestamp: unreadable by any
                // handle (a reader that got past `node` has handle < ts and skips `older`
                // too), so unlink it in place and keep examining `node`'s new successor.
                let after = older.nextv.load(Ordering::SeqCst, guard);
                node.nextv.store(after, Ordering::SeqCst);
                H::release(T::from_word(older.word), &self.camera, guard);
                let raw = next.as_raw();
                // SAFETY: `older` was just unlinked and restructuring is serialized, so it
                // is retired exactly once; in-flight readers are epoch-protected, and the
                // deferred recycle returns it to the pool only after grace.
                unsafe { guard.defer_unchecked(move || vpool::recycle(raw)) };
                retired += 1;
                continue;
            }
            node = older;
        }
        self.truncating.store(false, Ordering::Release);
        if retired > 0 {
            self.camera.note_versions_retired(retired as u64);
        }
        retired
    }
}

impl<T: VersionValue, H: ValueHook<T>> Drop for VersionedCas<T, H> {
    fn drop(&mut self) {
        // Exclusive access: walk the version list and recycle every node. The freed
        // versions count toward the camera's dropped total — without this, every cell
        // destroyed through node unlinking (list/BST removes) would leave
        // `approx_live_versions` drifting upward forever.
        //
        // A hooked cell releases each freed version's value: this is the link that makes
        // data-node reclamation cascade — destroying a node's cell drops the version-held
        // references it was keeping, retiring any child node whose count hits zero. The
        // releases defer through a fresh guard (this destructor may itself be running as
        // deferred work; guards nest).
        let guard = H::ACTIVE.then(vcas_ebr::pin);
        let mut freed = 0u64;
        // SAFETY: `&mut self` in `drop` means no concurrent access; the list is walked and
        // recycled exactly once.
        unsafe {
            // ORDERING: drop-exclusive — destructor holds `&mut self`; there is no
            // concurrent observer to order against.
            let mut cur = self.head.load_unprotected(Ordering::Relaxed);
            while !cur.is_null() {
                let node = cur.deref();
                // ORDERING: drop-exclusive — see the load above.
                let next = node.nextv.load_unprotected(Ordering::Relaxed);
                if let Some(g) = &guard {
                    H::release(T::from_word(node.word), &self.camera, g);
                }
                vpool::recycle(cur.as_raw());
                freed += 1;
                cur = next;
            }
        }
        if freed > 0 {
            self.camera.note_versions_dropped(freed);
        }
    }
}

impl<T: VersionValue + std::fmt::Debug, H: ValueHook<T>> std::fmt::Debug for VersionedCas<T, H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let guard = vcas_ebr::pin();
        f.debug_struct("VersionedCas")
            .field("value", &self.read(&guard))
            .field("versions", &self.version_count(&guard))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcas_ebr::pin;

    #[test]
    fn read_returns_initial_value() {
        let cam = Camera::new();
        let v = VersionedCas::new(7u64, &cam);
        let g = pin();
        assert_eq!(v.read(&g), 7);
        assert_eq!(v.version_count(&g), 1);
    }

    #[test]
    fn cas_semantics_match_plain_cas() {
        let cam = Camera::new();
        let v = VersionedCas::new(1u64, &cam);
        let g = pin();
        assert!(!v.compare_and_swap(2, 3, &g), "wrong expected value must fail");
        assert_eq!(v.read(&g), 1);
        assert!(v.compare_and_swap(1, 2, &g));
        assert_eq!(v.read(&g), 2);
        assert!(v.compare_and_swap(2, 2, &g), "no-op CAS with equal values succeeds");
        // The camera never advanced, so the successful CAS elided the displaced version:
        // the list stays at one node and the no-op CAS adds nothing either.
        assert_eq!(v.version_count(&g), 1, "same-timestamp update must elide, not grow");
        assert_eq!(cam.versions_elided(), 1);
    }

    /// The elision tentpole in one picture: an update burst with no snapshot in between
    /// keeps the version list at a single node, every displaced version recycled at
    /// publication time, while slot accounting stays exact.
    #[test]
    fn same_timestamp_burst_elides_to_one_version() {
        let cam = Camera::new();
        let v = VersionedCas::new(0u64, &cam);
        let g = pin();
        for i in 0..100u64 {
            assert!(v.compare_and_swap(i, i + 1, &g));
        }
        assert_eq!(v.read(&g), 100);
        assert_eq!(v.version_count(&g), 1, "burst must not grow the list");
        assert_eq!(cam.versions_elided(), 100);
        assert_eq!(cam.versions_created(), 1, "only the initial version's slot was created");
        drop(g);
        drop(v);
        assert_eq!(
            cam.versions_created(),
            cam.versions_retired() + cam.versions_dropped(),
            "slot conservation must hold after an elision burst"
        );
    }

    /// Elision never crosses a camera advance: each snapshot boundary pins one version.
    #[test]
    fn elision_stops_at_snapshot_boundaries() {
        let cam = Camera::new();
        let v = VersionedCas::new(0u64, &cam);
        let g = pin();
        let mut handles = Vec::new();
        for burst in 0..4u64 {
            handles.push(cam.take_snapshot());
            for i in 0..5 {
                let cur = burst * 5 + i;
                assert!(v.compare_and_swap(cur, cur + 1, &g));
            }
        }
        // One retained version per burst timestamp, plus the initial version.
        assert_eq!(v.version_count(&g), 5);
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(v.read_snapshot(*h, &g), 5 * i as u64, "handle {i} is frozen");
        }
        assert_eq!(cam.versions_elided(), 16, "4 of each burst's 5 updates elide");
    }

    #[test]
    fn disabling_elision_restores_per_cas_versions() {
        let cam = Camera::new();
        cam.set_elision_enabled(false);
        let v = VersionedCas::new(0u64, &cam);
        let g = pin();
        for i in 0..10u64 {
            assert!(v.compare_and_swap(i, i + 1, &g));
        }
        assert_eq!(v.version_count(&g), 11, "with elision off every CAS links a node");
        assert_eq!(cam.versions_elided(), 0);
        cam.set_elision_enabled(true);
        assert!(v.compare_and_swap(10, 11, &g));
        assert_eq!(v.version_count(&g), 11, "re-enabled elision recycles the displaced head");
    }

    #[test]
    fn snapshot_reads_historic_values() {
        let cam = Camera::new();
        let v = VersionedCas::new(0u64, &cam);
        let g = pin();
        let mut handles = Vec::new();
        for i in 0..10u64 {
            handles.push(cam.take_snapshot());
            assert!(v.compare_and_swap(i, i + 1, &g));
        }
        let final_handle = cam.take_snapshot();
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(v.read_snapshot(*h, &g), i as u64, "snapshot {i} sees pre-update value");
        }
        assert_eq!(v.read_snapshot(final_handle, &g), 10);
        assert_eq!(v.read(&g), 10);
    }

    #[test]
    fn snapshot_is_stable_under_later_updates() {
        let cam = Camera::new();
        let v = VersionedCas::new(100u64, &cam);
        let g = pin();
        let h = cam.take_snapshot();
        for i in 0..50u64 {
            assert!(v.compare_and_swap(100 + i, 100 + i + 1, &g));
        }
        for _ in 0..5 {
            assert_eq!(v.read_snapshot(h, &g), 100, "repeated reads of one handle agree");
        }
    }

    #[test]
    fn two_objects_one_camera_are_mutually_consistent() {
        let cam = Camera::new();
        let x = VersionedCas::new(0u64, &cam);
        let y = VersionedCas::new(0u64, &cam);
        let g = pin();
        x.compare_and_swap(0, 1, &g);
        let h = cam.take_snapshot();
        y.compare_and_swap(0, 1, &g);
        assert_eq!((x.read_snapshot(h, &g), y.read_snapshot(h, &g)), (1, 0));
    }

    #[test]
    fn version_count_grows_only_on_successful_cas() {
        let cam = Camera::new();
        let v = VersionedCas::new(0u64, &cam);
        let g = pin();
        for _ in 0..5 {
            assert!(!v.compare_and_swap(99, 1, &g));
        }
        assert_eq!(v.version_count(&g), 1);
        // Advance the camera so the success below cannot elide: the list must grow.
        cam.take_snapshot();
        assert!(v.compare_and_swap(0, 1, &g));
        assert_eq!(v.version_count(&g), 2);
    }

    #[test]
    fn collect_before_truncates_old_versions() {
        let cam = Camera::new();
        let v = VersionedCas::new(0u64, &cam);
        let g = pin();
        for i in 0..20u64 {
            cam.take_snapshot();
            assert!(v.compare_and_swap(i, i + 1, &g));
        }
        assert_eq!(v.version_count(&g), 21);

        // Pin a snapshot in the middle of the history via the registry, then truncate.
        let pinned = cam.pin_snapshot();
        for i in 20..30u64 {
            cam.take_snapshot();
            assert!(v.compare_and_swap(i, i + 1, &g));
        }
        let before = v.read_snapshot(pinned.handle(), &g);
        let retired = v.collect_before(cam.min_active(), &g);
        assert!(retired > 0, "old versions must be reclaimed");
        // The pinned snapshot still reads the same value after truncation.
        assert_eq!(v.read_snapshot(pinned.handle(), &g), before);
        assert_eq!(v.read(&g), 30);
        drop(pinned);

        let retired2 = v.collect_before(cam.min_active(), &g);
        assert!(retired2 > 0);
        assert_eq!(v.version_count(&g), 1, "only the newest version remains");
        assert_eq!(v.read(&g), 30);
    }

    /// PR 10 keeps the *lazy* dead same-timestamp collection: it is the fallback for
    /// elisions skipped under gate contention (and the only collector when elision is
    /// disabled). Tested with elision off so the intermediates actually accumulate.
    #[test]
    fn collect_before_unlinks_dead_same_timestamp_intermediates() {
        let cam = Camera::new();
        cam.set_elision_enabled(false);
        let v = VersionedCas::new(0u64, &cam);
        let g = pin();
        // Pin at the very start: min_active stays at the pin for the whole test, so plain
        // truncation could reclaim nothing but the pre-pin history.
        let pinned = cam.pin_snapshot();
        // Two bursts of CASes with no snapshot inside a burst: each burst shares one
        // timestamp, so all but the newest version of each burst are unreadable.
        for i in 0..10u64 {
            assert!(v.compare_and_swap(i, i + 1, &g));
        }
        cam.take_snapshot();
        for i in 10..20u64 {
            assert!(v.compare_and_swap(i, i + 1, &g));
        }
        assert_eq!(v.version_count(&g), 21);
        let frozen = v.read_snapshot(pinned.handle(), &g);

        let retired = v.collect_before(cam.min_active(), &g);
        assert_eq!(retired, 18, "9 shadowed intermediates per burst must be unlinked");
        // What remains: the newest version of each burst plus the pinned-era version, all
        // with pairwise-distinct timestamps above the cut.
        let versions = v.versions(&g);
        assert_eq!(versions.len(), 3);
        for pair in versions.windows(2) {
            assert_ne!(pair[0].0, pair[1].0, "no same-timestamp pair survives: {versions:?}");
        }
        assert_eq!(v.read_snapshot(pinned.handle(), &g), frozen, "pinned read must not move");
        assert_eq!(v.read(&g), 20);
        drop(pinned);
        // With the pin gone a full truncation collapses the list to the current version.
        assert!(v.collect_before(cam.min_active(), &g) > 0);
        assert_eq!(v.version_count(&g), 1);
        assert_eq!(v.read(&g), 20);
    }

    /// Eager elision and a pinned snapshot coexist: elision only ever recycles versions
    /// shadowed at the same timestamp, which a pin by construction cannot address (a pin
    /// at `t` forces the camera past `t`, so later publications stamp `> t`).
    #[test]
    fn elision_never_moves_a_pinned_read() {
        let cam = Camera::new();
        let v = VersionedCas::new(0u64, &cam);
        let g = pin();
        for i in 0..5u64 {
            assert!(v.compare_and_swap(i, i + 1, &g));
        }
        let pinned = cam.pin_snapshot();
        let frozen = v.read_snapshot(pinned.handle(), &g);
        assert_eq!(frozen, 5);
        for i in 5..50u64 {
            assert!(v.compare_and_swap(i, i + 1, &g));
        }
        assert!(cam.versions_elided() >= 40, "the post-pin burst elides");
        assert_eq!(v.read_snapshot(pinned.handle(), &g), frozen, "pinned read must not move");
        assert_eq!(v.read(&g), 50);
        assert_eq!(
            v.version_count(&g),
            2,
            "pinned-era version plus the eliding head are all that remain"
        );
    }

    /// Satellite regression: a raw (unpinned) handle whose versions were truncated away
    /// gets a *defined* `None` from the checked read, while a pinned handle keeps reading
    /// its exact value; the unchecked read documents its fallback to the oldest retained
    /// value.
    #[test]
    fn checked_snapshot_read_detects_truncated_history() {
        let cam = Camera::new();
        let v = VersionedCas::new(0u64, &cam);
        let g = pin();
        // Build history 0..=10, remembering a raw handle at value 3.
        let mut raw_at_3 = None;
        for i in 0..10u64 {
            let h = cam.take_snapshot();
            if i == 3 {
                raw_at_3 = Some(h);
            }
            assert!(v.compare_and_swap(i, i + 1, &g));
        }
        let raw_at_3 = raw_at_3.unwrap();
        assert_eq!(v.read_snapshot_checked(raw_at_3, &g), Some(3));

        // Pin now, keep mutating, then truncate below the pin: the raw handle's versions
        // are collectible, the pinned handle's are not.
        let pinned = cam.pin_snapshot();
        for i in 10..15u64 {
            cam.take_snapshot();
            assert!(v.compare_and_swap(i, i + 1, &g));
        }
        assert!(v.collect_before(cam.min_active(), &g) > 0);

        assert_eq!(v.read_snapshot_checked(raw_at_3, &g), None, "truncated history is None");
        assert_eq!(v.read_snapshot_checked(pinned.handle(), &g), Some(10), "pins stay exact");
        assert_eq!(v.read_snapshot(pinned.handle(), &g), 10);
        // The unchecked convenience falls back to the oldest retained value, which is the
        // version the pin preserves.
        assert_eq!(v.read_snapshot(raw_at_3, &g), 10);

        // An object born after a snapshot also reads as None under that handle.
        let late = VersionedCas::new(99u64, &cam);
        assert_eq!(late.read_snapshot_checked(raw_at_3, &g), None);
        assert_eq!(late.read_snapshot(raw_at_3, &g), 99);
    }

    #[test]
    fn concurrent_cas_total_equals_successes() {
        // Counter incremented via vCAS by several threads: the final value equals the number
        // of successful CASes, and snapshots taken along the way are monotone.
        let cam = Camera::new();
        let v = Arc::new(VersionedCas::new(0u64, &cam));
        let successes = Arc::new(crate::sync::AtomicU64::new(0));
        let mut threads = Vec::new();
        for _ in 0..4 {
            let v = v.clone();
            let cam = cam.clone();
            let successes = successes.clone();
            threads.push(std::thread::spawn(move || {
                let mut last_seen = 0u64;
                for _ in 0..2000 {
                    let g = pin();
                    let cur = v.read(&g);
                    if v.compare_and_swap(cur, cur + 1, &g) {
                        successes.fetch_add(1, Ordering::SeqCst);
                    }
                    let h = cam.take_snapshot();
                    let snap = v.read_snapshot(h, &g);
                    assert!(snap >= last_seen, "snapshots of a monotone counter are monotone");
                    last_seen = snap;
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let g = pin();
        assert_eq!(v.read(&g), successes.load(Ordering::SeqCst));
    }

    #[test]
    fn concurrent_snapshot_reader_sees_consistent_pair() {
        // A single writer increments x, then y, over and over. At every instant of real time
        // the pair satisfies x == y or x == y + 1, so every atomic snapshot must observe one
        // of those two states, no matter how the reader's traversal interleaves with updates.
        let cam = Camera::new();
        let x = Arc::new(VersionedCas::new(0u64, &cam));
        let y = Arc::new(VersionedCas::new(0u64, &cam));
        let stop = Arc::new(AtomicBool::new(false));

        let writer = {
            let (x, y, stop) = (x.clone(), y.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::SeqCst) && i < 200_000 {
                    let g = pin();
                    let xv = x.read(&g);
                    x.compare_and_swap(xv, xv + 1, &g);
                    let yv = y.read(&g);
                    y.compare_and_swap(yv, yv + 1, &g);
                    i += 1;
                }
            })
        };

        let cam_r = cam.clone();
        let (xr, yr) = (x.clone(), y.clone());
        let reader = std::thread::spawn(move || {
            for _ in 0..5_000 {
                let g = pin();
                let h = cam_r.take_snapshot();
                let xs = xr.read_snapshot(h, &g);
                let ys = yr.read_snapshot(h, &g);
                assert!(
                    xs == ys || xs == ys + 1,
                    "snapshot must observe a state between two writer steps, got x={xs} y={ys}"
                );
            }
        });

        reader.join().unwrap();
        stop.store(true, Ordering::SeqCst);
        writer.join().unwrap();
    }
}
