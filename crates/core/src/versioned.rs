//! The versioned CAS object (paper §3.1, Algorithm 1).
//!
//! [`VersionedCell`] is the object itself: one word, the head of its version list, as in
//! the paper. It does not hold its camera; every operation receives it from the caller (a
//! structure passes the camera of its [`crate::Versioned`] mode), so a structure's
//! versioned pointers cost what plain ones do. [`VersionedCas`] is the standalone form: a
//! cell that owns a camera handle and supplies it, for code that versions a few words
//! rather than a structure's pointers.
//!
//! **Indirection on need.** The paper's general vCAS puts a version node between the
//! object and its value, one extra cache miss per access (§5). Here a version record
//! exists only where a value must be kept beside another:
//!
//! 1. A structure cell ([`VersionedCell::fresh`], the cell [`crate::Mode::cell`] builds
//!    for a node that is not yet published) holds its initial value in the head word
//!    itself, tagged `DIRECT`. A read returns it without a hop, and a snapshot read
//!    returns it for every handle: a snapshot reaches the cell only through a link stamped
//!    after the cell was built. The first vCAS links the direct word below its new version
//!    as the oldest one, stamped 0.
//! 2. A publication whose new value names a node with an embedded
//!    [`crate::vnode::VersionSlot`] ([`ValueHook::slot`]) claims that slot and publishes it
//!    in place of a pooled record, so reading the cell lands in the node the search visits
//!    next.
//! 3. Every other version (a relink of a node whose slot is taken, a node type without a
//!    slot) comes from the per-thread pool (`vpool`).
//!
//! Standalone cells ([`VersionedCell::new`]) keep a stamped initial version node: they can
//! be read under snapshots older than themselves, which
//! [`VersionedCell::read_snapshot_checked`] reports as `None`.

use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ptr::NonNull;
use std::sync::Arc;

use crate::sync::Ordering;

use vcas_ebr::{Atomic, Guard, Shared};

use crate::camera::Camera;
use crate::snapshot::SnapshotHandle;
use crate::vnode::{VNode, VersionSlot, VersionValue};
use crate::vpool;
use crate::TBD;

/// Tag bit of the head word: the restructuring gate. Truncation cuts, dead same-timestamp
/// unlinks and the elision unlink rewrite `nextv` links only while holding it, so at most
/// one thread restructures a list at a time. Reads mask it; the publication CAS carries
/// it over to the new head (see [`VersionedCell::compare_and_swap`]). `VNode`s are
/// 8-aligned, so the bit is free.
const GATE: usize = 1;

/// Tag bit of a link — the head word or a `nextv` — that holds a value in place instead of
/// pointing at a version node: a structure cell's direct initial value (see the module
/// docs). The low bits below it belong to the value (a structure's pointer tags), so a
/// direct word is never masked with [`GATE`], and the gate is never taken on one: a cell
/// leaves the direct state at its first publication and never returns to it. Structure
/// nodes are 8-aligned, so the bit is free in their pointer words.
pub(crate) const DIRECT: usize = 4;

/// Does `link` hold a direct value rather than point at a version node?
#[inline]
fn is_direct(link: Shared<'_, VNode>) -> bool {
    link.into_data() & DIRECT != 0
}

/// The value word a direct link holds.
#[inline]
fn direct_word(link: Shared<'_, VNode>) -> u64 {
    (link.into_data() & !DIRECT) as u64
}

/// Is there a version at `link` (a node or a direct value)? A direct null pointer is a
/// version whose untagged address is zero, so `Shared::is_null` cannot tell.
#[inline]
fn is_end(link: Shared<'_, VNode>) -> bool {
    link.into_data() == 0
}

/// A CAS object whose entire history of values can be read through snapshot handles: the
/// paper's vCAS object, one word wide.
///
/// `VersionedCell<T>` supports the paper's three operations:
///
/// * [`read`](VersionedCell::read) (`vRead`) — constant time;
/// * [`compare_and_swap`](VersionedCell::compare_and_swap) (`vCAS`) — constant time;
/// * [`read_snapshot`](VersionedCell::read_snapshot) — wait-free, taking time proportional
///   to the number of successful CASes on this object since the snapshot was taken.
///
/// Each takes the camera the cell is associated with; passing a different camera to one
/// cell is a logic error (its timestamps would not be comparable).
///
/// The object keeps a singly linked *version list*, newest first, whose head pointer is
/// the cell's only word. The head node's timestamp may transiently be the `TBD`
/// placeholder; every operation that observes this helps stamp it (`initTS`) before
/// proceeding, which is what makes "append node + read global timestamp + record it"
/// appear atomic and gives the linearization points proven in the paper. The head word's
/// low bit is the restructuring gate (see `compare_and_swap`).
///
/// **Version lifecycle** (see `docs/reclamation.md`): a version is a direct value, a
/// claimed slot, or a node from the per-thread pool (`vpool`; see the module docs). It is
/// published by the vCAS, possibly *elided* right after publication when the camera has
/// not advanced (the paper's recommended same-timestamp optimization — see
/// [`VersionedCell::compare_and_swap`]), and dies by truncation, elision, a lost
/// publication race, or [`VersionedCell::destroy`]. Only pooled nodes go back to the
/// pool; a slot stays in its node and a direct value has no record.
///
/// A cell is torn down by [`VersionedCell::destroy`], which takes the camera: dropping one
/// without it leaks its versions (debug builds assert).
///
/// `T` must implement [`VersionValue`]: values are small words (integers, packed pointers)
/// stored in non-generic, poolable nodes. Data structures version pointers through the
/// typed [`crate::PtrCell`].
pub struct VersionedCell<T: VersionValue, H: ValueHook<T> = ()> {
    head: Atomic<VNode>,
    /// The value lifecycle hook, a type only: invoked once per version node holding a
    /// value (acquire at creation, release at destruction). This is how managed pointer
    /// cells ([`crate::Managed`]) thread data-node reference counting through the version
    /// list — see [`ValueHook`].
    _hook: PhantomData<fn(T) -> H>,
}

/// Per-value lifecycle callbacks of a versioned CAS object, chosen at compile time: the
/// hook is the cell's second type parameter, so it occupies no space in the cell (a
/// hooked cell is the same one word as an unhooked one) and its calls are static, not
/// through function pointers. `()` is the no-op hook of unmanaged cells.
///
/// The contract: `acquire(v)` is called once for every version node about to be created
/// with value `v` (before the node is published). It may *refuse* by returning `false` —
/// the value names something that can no longer be referenced — and then no version node
/// is created: the construction or vCAS fails and `release` is never called for it.
/// After an accepted `acquire`, `release(v, camera, guard)` is called exactly once when
/// that version node is destroyed — by truncation, by elision of a displaced head, by a
/// failed publication, or by the cell's destruction. Releases triggered by truncation or
/// elision run under the calling thread's guard, so a release that frees memory must defer
/// through the guard (epoch-based reclamation), never free immediately.
pub trait ValueHook<T>: 'static {
    /// `false` only for a hook whose callbacks do nothing; the cell's destruction then
    /// skips pinning the guard it would release values under.
    const ACTIVE: bool = true;
    /// Called when a version node holding the value is about to be created
    /// (pre-publication); `false` refuses the value.
    fn acquire(value: T) -> bool;
    /// Called when a version node holding the value is destroyed.
    fn release(value: T, camera: &Arc<Camera>, guard: &Guard);
    /// The version record embedded in the node `value` names, if it has one (see
    /// [`VersionSlot`]); `None`, the default, for values without one. Called only for a
    /// value this hook accepted and has not yet released, so the node is still allocated.
    #[inline]
    fn slot(value: T) -> Option<NonNull<VersionSlot>> {
        let _ = value;
        None
    }
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
unsafe impl<T: VersionValue, H: ValueHook<T>> Send for VersionedCell<T, H> {}
// SAFETY: reads, CASes, truncation and elision are all safe for concurrent callers (list
// restructuring is self-serializing via the head word's gate bit); `&VersionedCell<T, H>`
// is shareable.
unsafe impl<T: VersionValue, H: ValueHook<T>> Sync for VersionedCell<T, H> {}

/// Success ordering of the publication CAS in [`VersionedCell::compare_and_swap`].
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

/// Eligibility check of the elision step: a displaced head may be unlinked only when the
/// new head carries the **same** timestamp — then (and only then) the displaced version is
/// shadowed for every possible snapshot handle. Timestamp equality is a pure fact about
/// two immutable stamps, so this check has no TOCTOU window; the structural race (is the
/// displaced node still linked right below the new head?) is re-validated under the gate
/// inside [`VersionedCell::compare_and_swap`]'s elision step.
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

/// The gate bit a publication CAS installs with its new head: the bit it observed, so a
/// publication landing while a cut holds the gate leaves the gate held.
#[cfg(not(vcas_weaken_gate))]
#[inline]
fn carried_gate(observed: usize, _camera: &Camera) -> usize {
    observed & GATE
}
/// Mutated (deliberately wrong) publication: on a camera built by
/// [`Camera::with_weakened_gate`], the new head drops the gate bit it observed, releasing a
/// gate the publisher never held while a cut is still restructuring below it. Exists
/// solely for the mutation regression in `crates/analysis/tests/model.rs`, which proves
/// the model checker catches the concurrent restructuring this allows (stock builds never
/// set the cfg).
#[cfg(vcas_weaken_gate)]
#[inline]
fn carried_gate(observed: usize, camera: &Camera) -> usize {
    if camera.gate_weakened() {
        0
    } else {
        observed & GATE
    }
}

/// `initTS`: if `node`'s timestamp is still TBD, stamp it with the camera's current
/// counter value. Any thread may perform this helping step; the CAS guarantees the
/// timestamp is written at most once. Returns the node's final (stamped) timestamp.
#[inline]
fn init_ts(node: &VNode, camera: &Camera) -> u64 {
    let ts = node.ts.load(Ordering::SeqCst);
    if ts != TBD {
        return ts;
    }
    let cur = camera.current_timestamp();
    match node.ts.compare_exchange(TBD, cur, Ordering::SeqCst, Ordering::SeqCst) {
        Ok(_) => cur,
        Err(actual) => actual,
    }
}

/// A head word with the gate bit masked; a direct word is returned as stored (its low
/// bits are the value's).
#[inline]
fn unmask(word: Shared<'_, VNode>) -> Shared<'_, VNode> {
    if is_direct(word) {
        word
    } else {
        word.with_tag(0)
    }
}

/// The gate bit of a head word (never set on a direct word).
#[inline]
fn gate_of(word: Shared<'_, VNode>) -> usize {
    if is_direct(word) {
        0
    } else {
        word.tag() & GATE
    }
}

impl<T: VersionValue> VersionedCell<T> {
    /// Creates a versioned CAS object holding `initial`, associated with `camera`.
    pub fn new(initial: T, camera: &Camera) -> Self {
        Self::build(initial, camera)
    }
}

impl<T: VersionValue, H: ValueHook<T>> VersionedCell<T, H> {
    /// Creates a versioned CAS object whose values go through the hook `H` (see
    /// [`ValueHook`]). `H::acquire` is invoked for `initial` first; `None` when it refuses
    /// the value.
    pub fn with_hook(initial: T, camera: &Camera) -> Option<Self> {
        H::acquire(initial).then(|| Self::build(initial, camera))
    }

    fn build(initial: T, camera: &Camera) -> Self {
        let node = vpool::alloc(VNode::initial(initial.into_word()));
        // Stamp the initial version immediately (constructor runs before any concurrent
        // access, so a plain store of the current timestamp is the paper's initTS).
        node.as_ref().ts.store(camera.current_timestamp(), Ordering::SeqCst);
        camera.note_initial_version();
        VersionedCell { head: Atomic::from_owned(node), _hook: PhantomData }
    }

    /// Creates the cell of a structure node that is not yet published: `initial` sits in
    /// the head word itself, tagged `DIRECT`, and no version node is allocated (see the
    /// module docs). `H::acquire` is invoked for `initial` first; `None` when it refuses
    /// the value. The direct value counts as the cell's initial version.
    ///
    /// A snapshot read answers `initial` for every handle until the first vCAS, so the
    /// cell must be reachable only through links stamped after it was built — true of
    /// every cell of a node published by a vCAS, and of a structure's own root cells for
    /// every snapshot taken since the structure was built. Panics when `initial`'s word
    /// has the `DIRECT` bit set (its low two bits are free for the value's own tags).
    pub fn fresh(initial: T, camera: &Camera) -> Option<Self> {
        let word = initial.into_word() as usize;
        assert_eq!(word & DIRECT, 0, "a direct value must leave the DIRECT tag bit clear");
        if !H::acquire(initial) {
            return None;
        }
        camera.note_initial_version();
        // SAFETY: any word is a valid `Shared` value; a direct link is recognized by its
        // tag and never dereferenced.
        let link = unsafe { Shared::from_data(word | DIRECT) };
        Some(VersionedCell { head: Atomic::from_shared(link), _hook: PhantomData })
    }

    /// The raw head word (tests inspect where the head version lives).
    #[cfg(test)]
    pub(crate) fn head_word(&self, guard: &Guard) -> usize {
        self.head.load(Ordering::SeqCst, guard).into_data()
    }

    /// The head link: the version node, gate bit masked, or the direct value as stored.
    #[inline]
    fn head<'g>(&self, guard: &'g Guard) -> Shared<'g, VNode> {
        unmask(self.head.load(Ordering::SeqCst, guard))
    }

    /// `vRead`: returns the current value. Constant time; a direct value needs no hop.
    #[inline]
    pub fn read(&self, camera: &Camera, guard: &Guard) -> T {
        let head = self.head(guard);
        if is_direct(head) {
            return T::from_word(direct_word(head));
        }
        // SAFETY: a head link that is not direct is a non-null node, and `guard` pins the
        // epoch.
        let node = unsafe { head.deref() };
        init_ts(node, camera);
        T::from_word(node.word())
    }

    /// `vCAS(old, new)`: if the current value equals `old`, replace it with `new` and return
    /// `true`; otherwise return `false`. Constant time. A cell with a value lifecycle hook
    /// also returns `false`, changing nothing, when the hook refuses `new` (a managed
    /// pointer cell refuses a retired node; see [`crate::VersionReferenced`]).
    ///
    /// **The version record.** When `new` names a node with an unclaimed
    /// [`VersionSlot`] ([`ValueHook::slot`]), the publication claims the slot — one CAS
    /// on its `nextv`, from the unclaimed tag to the displaced head — and publishes it;
    /// a lost claim (another publication of the same node owns it) or a value without a
    /// slot takes a pooled node. The claim makes each slot's `nextv` written by one
    /// publisher only, so racing publications of one node (EFRB helpers replaying
    /// `CAS-Child(p, l, new)`) cannot rewrite a slot another already linked; the head CAS
    /// below still decides which publication wins. A direct head is displaced like any
    /// other version: it becomes the new record's `nextv`, stamped 0.
    ///
    /// **The gate bit.** The publication CAS expects the head word it read, gate bit
    /// included, and installs the new head with that same bit: a publication landing while
    /// a cut holds the gate keeps it held (the cut's release clears the bit on whatever
    /// head is then current). When the CAS fails because only the bit changed — a cut
    /// took or released the gate — it retries against the new word, so a vCAS fails only
    /// when another vCAS changed the value; it never fails spuriously.
    ///
    /// When the successful publication is stamped with the **same** timestamp as the head
    /// it displaced — i.e. the camera has not advanced since the previous update — the
    /// displaced version is dead on arrival: `read_snapshot` walks newest-first and stops
    /// at the first version with `ts <= handle`, so no handle can ever return a version
    /// shadowed by a strictly newer one at the same timestamp. The elision step then
    /// unlinks the displaced version immediately (a pooled node goes back to the pool), so
    /// an update burst between two camera advances keeps the list at one version instead
    /// of growing per CAS (the paper's recommended elision, §4).
    ///
    /// When the publication is not elided but the displaced head is stamped at or below
    /// the camera's retention watermark ([`Camera::oldest_retained`]), the `prune` step
    /// cuts the cell below its newest version at or below the watermark, at once
    /// (write-time pruning; see `docs/reclamation.md`). That version is the new head
    /// itself once the watermark has reached its stamp (every pin released and no snapshot
    /// taken since), so such a write leaves its cell at one version without any sweep. An
    /// elision that finds history left below the displaced head prunes it the same way,
    /// under the gate it already holds.
    pub fn compare_and_swap(&self, camera: &Arc<Camera>, old: T, new: T, guard: &Guard) -> bool {
        let mut seen = self.head.load(Ordering::SeqCst, guard);
        let head = unmask(seen);
        let (current, displaced_ts) = if is_direct(head) {
            (direct_word(head), 0)
        } else {
            // SAFETY: a head link that is not direct is a non-null node, and `guard` pins
            // the epoch.
            let head_ref = unsafe { head.deref() };
            (head_ref.word(), init_ts(head_ref, camera))
        };
        if current != old.into_word() {
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
        let new_node = Self::record(new, head, guard);
        loop {
            let installed = new_node.with_tag(carried_gate(gate_of(seen), camera));
            match self.head.compare_exchange(
                seen,
                installed,
                PUBLISH_CAS_ORDERING,
                Ordering::SeqCst,
                guard,
            ) {
                Ok(_) => break,
                // Only the gate bit moved: the head is still `head`, so retry.
                Err(err) if unmask(err.current) == head => seen = err.current,
                Err(_) => {
                    // SAFETY: the CAS failed, so the record was never published: a pooled
                    // node is still this thread's alone (Algorithm 1 line 50), and the
                    // value's reference is still held, as `discard` requires.
                    unsafe { Self::discard(new_node) };
                    H::release(new, camera, guard);
                    // Help the vCAS that beat us stamp its node before we report failure.
                    let winner = self.head(guard);
                    if !is_direct(winner) {
                        // SAFETY: a head link that is not direct is a non-null node, and
                        // `guard` pins the epoch.
                        init_ts(unsafe { winner.deref() }, camera);
                    }
                    return false;
                }
            }
        }
        // SAFETY: we just published `new_node`; it is non-null and epoch-protected.
        let new_ts = init_ts(unsafe { new_node.deref() }, camera);
        if !self.elide(camera, new_node, new_ts, head, displaced_ts, guard)
            && !self.prune(camera, displaced_ts, guard)
        {
            camera.note_version_pushed();
        }
        true
    }

    /// The version record of a publication of `new` that displaces `head`: the slot of the
    /// node `new` names when this publication claims it, else a pooled node. The caller
    /// holds `new`'s reference ([`ValueHook::acquire`]).
    #[inline]
    fn record<'g>(new: T, head: Shared<'_, VNode>, guard: &'g Guard) -> Shared<'g, VNode> {
        let word = new.into_word();
        if let Some(slot) = H::slot(new) {
            // SAFETY: the caller holds `new`'s reference, so the node embedding the slot
            // is allocated (see `ValueHook::slot`).
            let slot = unsafe { slot.as_ref() };
            if slot.claim(word, head, guard) {
                // SAFETY: the slot's record is a `VNode` inside a node `guard` protects.
                return unsafe { Shared::from_data(&slot.0 as *const VNode as usize) };
            }
        }
        vpool::alloc(VNode::new(word, head)).into_shared(guard)
    }

    /// Is `node` the slot embedded in the node its own value names, rather than a pooled
    /// node? Asked while the version still holds its value's reference.
    #[inline]
    fn is_slot(node: &VNode) -> bool {
        H::slot(T::from_word(node.word()))
            .is_some_and(|slot| std::ptr::eq(slot.as_ptr().cast::<VNode>(), node))
    }

    /// Gives back the record of a publication that lost its CAS: a pooled node returns to
    /// the pool at once; a slot stays claimed and unlinked in its node, which frees it.
    ///
    /// # Safety
    /// `record` was never published, and its value's reference is still held.
    unsafe fn discard(record: Shared<'_, VNode>) {
        // SAFETY: the caller's record is allocated (pooled and private, or in a node whose
        // reference the caller holds).
        if !Self::is_slot(unsafe { record.deref() }) {
            // SAFETY: an unpublished pooled node is this thread's alone.
            unsafe { vpool::recycle(record.as_raw()) };
        }
    }

    /// Retires the version at `link`, which the caller unlinked (so it retires it exactly
    /// once): releases its value and hands back its record — a pooled node returns to the
    /// pool after its grace period, a slot stays in its node, and a direct value has none.
    fn retire(link: Shared<'_, VNode>, camera: &Arc<Camera>, guard: &Guard) {
        if is_direct(link) {
            H::release(T::from_word(direct_word(link)), camera, guard);
            return;
        }
        // SAFETY: an unlinked version stays epoch-protected under `guard`.
        let node = unsafe { link.deref() };
        let pooled = !Self::is_slot(node);
        H::release(T::from_word(node.word()), camera, guard);
        if pooled {
            let raw = link.as_raw();
            // SAFETY: the node was unlinked by the caller and is retired exactly once;
            // deferring through the guard returns it to the pool only after every
            // in-flight reader's grace period.
            unsafe { guard.defer_unchecked(move || vpool::recycle(raw)) };
        }
    }

    /// The elision step of [`VersionedCell::compare_and_swap`]: after `new_node` displaced
    /// `displaced` at the head, unlink and retire `displaced` when both carry the same
    /// timestamp. Returns `true` when the displaced version was elided. A direct
    /// `displaced` is stamped 0, so it is elided only by a publication stamped 0 (before
    /// the camera's first advance).
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
    /// **One RMW takes the gate and revalidates.** The gate is taken by
    /// `CAS(new_node → new_node|GATE)`, which succeeds only while `new_node` is still the
    /// head and nobody holds the gate. A later vCAS may have displaced *and elided*
    /// `new_node` itself (leaving `displaced` linked below the newer head — unlinking it
    /// from our off-list node would orphan nothing, but releasing it would double-free);
    /// that CAS then fails and the elision is skipped. Under the gate, a cut that ran
    /// between our publication and the CAS may already have unlinked `displaced`, so the
    /// step also checks that `displaced` is still `new_node`'s successor; on any mismatch
    /// the lazy collection in [`VersionedCell::collect_before`] reaps the node later. ABA
    /// on these pointer comparisons is impossible while we hold `guard`: a recycled address
    /// can only reappear after a grace period our own pin forbids.
    ///
    /// **Pruning under the same gate.** When history is left below `displaced` and the
    /// retention watermark has reached `new_ts`, every retained or future snapshot reads
    /// `new_node` or something newer, so the suffix is cut too before the gate is released
    /// (the case [`VersionedCell::prune`] handles for publications that do not elide). An
    /// empty suffix — the steady state of an update burst — costs no extra read.
    ///
    /// **Accounting** is slot-based so `created == retired + dropped` stays exact: an
    /// elided publication transfers the displaced version's "created" identity to the new
    /// head (the pair counts once as `versions_elided`, never again as created), and the
    /// displaced version is counted neither retired nor dropped — every *linked* version
    /// still dies exactly once. Suffix versions the step cuts count as retired.
    fn elide(
        &self,
        camera: &Arc<Camera>,
        new_node: Shared<'_, VNode>,
        new_ts: u64,
        displaced: Shared<'_, VNode>,
        displaced_ts: u64,
        guard: &Guard,
    ) -> bool {
        if !elide_match(new_ts, displaced_ts) || !camera.elision_enabled() {
            return false;
        }
        let gated = new_node.with_tag(GATE);
        let taken = self.head.compare_exchange(
            new_node,
            gated,
            Ordering::Acquire,
            // ORDERING: elide-gate — failure means "`new_node` was displaced, or another
            // thread holds the gate: skip the optimization"; no data is read under the
            // failed CAS, so its load can be relaxed.
            Ordering::Relaxed,
            guard,
        );
        if taken.is_err() {
            return false;
        }
        // SAFETY: `new_node` was published by us and cannot be freed before `guard` drops.
        let new_ref = unsafe { new_node.deref() };
        let elide = new_ref.nextv.load(Ordering::SeqCst, guard) == displaced;
        let mut cut = 0;
        if elide {
            let after = if is_direct(displaced) {
                Shared::null()
            } else {
                // SAFETY: `displaced` is epoch-protected while `guard` is live (even if a
                // concurrent truncation had unlinked it, which the check above excludes).
                unsafe { displaced.deref() }.nextv.load(Ordering::SeqCst, guard)
            };
            if !is_end(after) && camera.oldest_retained() >= new_ts {
                new_ref.nextv.store(Shared::null(), Ordering::SeqCst);
                cut = Self::retire_suffix(camera, after, guard);
            } else {
                new_ref.nextv.store(after, Ordering::SeqCst);
            }
        }
        self.release_gate(guard);
        if elide {
            Self::retire(displaced, camera, guard);
            camera.note_versions_elided(1);
            if cut > 0 {
                camera.note_versions_retired(cut as u64);
            }
        }
        elide
    }

    /// The write-time pruning step of [`VersionedCell::compare_and_swap`], run after a
    /// publication that displaced a head stamped `displaced_ts` and was not elided: when
    /// the retention watermark `w` ([`Camera::oldest_retained`]) is at or above
    /// `displaced_ts`, cut the cell below its newest version stamped `<= w` — the new
    /// head once `w` reaches its stamp, else the displaced version. Returns `true` when
    /// the cut freed at least one version.
    ///
    /// **Why the cut is safe.** The watermark is monotone and never passes a live pin,
    /// and [`Camera::pin_snapshot_at`] refuses every timestamp below it, while a fresh pin
    /// lands at the current time, at or above it. So every pin that exists now or later
    /// sits at `w` or above and reads the kept version or a newer one; nothing below the
    /// kept version is readable by any retained timestamp. This is the rule every sweep
    /// applies, with the published watermark as its floor. The `displaced_ts` test keeps
    /// the walk to the top of the list (head, then the cut): while an old pin holds `w`
    /// below the displaced version, the cut would sit deeper and the write skips it. The
    /// cut is [`VersionedCell::collect_before`]'s, under the same gate (a held gate skips
    /// it, leaving the suffix to a later cut) and with the same deferred recycling. Raw
    /// handles are not retention: one older than the watermark loses its history here, as
    /// it would to a sweep.
    ///
    /// Skipped when elision is disabled: that switch restores the one-node-per-CAS
    /// lifecycle, which also keeps the displaced versions this step would cut.
    ///
    /// **Accounting** is a slot transfer like elision: the new head takes the slot of one
    /// version the cut freed (the pruned publication counts once as `versions_pruned`, not
    /// as created) and the other freed versions count as retired, so
    /// `created == retired + dropped` stays exact, and the camera's count of retained
    /// history, which gates the amortized slices, falls by the `freed - 1` versions the
    /// list lost.
    fn prune(&self, camera: &Arc<Camera>, displaced_ts: u64, guard: &Guard) -> bool {
        let floor = camera.oldest_retained();
        if floor < displaced_ts || !camera.elision_enabled() {
            return false;
        }
        let freed = self.cut_below(camera, floor, guard);
        if freed == 0 {
            return false;
        }
        camera.note_version_pruned();
        if freed > 1 {
            camera.note_versions_retired(freed as u64 - 1);
        }
        true
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
    /// a raw, unpinned handle older than a [`VersionedCell::collect_before`] cut, or an
    /// object created after the snapshot — this convenience wrapper falls back to the
    /// **oldest retained value**. Callers that need to distinguish the fallback use
    /// [`VersionedCell::read_snapshot_checked`]; see `docs/snapshot_views.md` for the
    /// raw-vs-pinned handle contract. A direct value (a [`VersionedCell::fresh`] cell's
    /// initial value) answers every handle that reaches it.
    pub fn read_snapshot(&self, camera: &Camera, handle: SnapshotHandle, guard: &Guard) -> T {
        match self.read_snapshot_impl(camera, handle, guard) {
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
                    !(oldest_ts <= camera.oldest_retained()
                        && camera.has_pin_at_or_below(handle.raw())),
                    "read_snapshot fallback hit for pinned/anchored handle {} \
                     (oldest retained version ts={}, watermark={})",
                    handle.raw(),
                    oldest_ts,
                    camera.oldest_retained()
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
    pub fn read_snapshot_checked(
        &self,
        camera: &Camera,
        handle: SnapshotHandle,
        guard: &Guard,
    ) -> Option<T> {
        self.read_snapshot_impl(camera, handle, guard).ok()
    }

    /// Walks the version list for the newest version with timestamp `<= handle`:
    /// `Ok(value)` if found, `Err((oldest_ts, oldest_retained_value))` if the list
    /// bottoms out first (the pair feeds the anchored-fallback debug assertion in
    /// [`VersionedCell::read_snapshot`]). A direct value is stamped 0, so a walk that
    /// reaches one always ends there.
    fn read_snapshot_impl(
        &self,
        camera: &Camera,
        handle: SnapshotHandle,
        guard: &Guard,
    ) -> Result<T, (u64, T)> {
        let ts = handle.raw();
        let head = self.head(guard);
        if is_direct(head) {
            return Ok(T::from_word(direct_word(head)));
        }
        // SAFETY: a head link that is not direct is a non-null node, and `guard` pins the
        // epoch.
        let mut node = unsafe { head.deref() };
        init_ts(node, camera);
        loop {
            let node_ts = node.ts.load(Ordering::SeqCst);
            if node_ts <= ts {
                return Ok(T::from_word(node.word()));
            }
            let next = node.nextv.load(Ordering::SeqCst, guard);
            if is_direct(next) {
                return Ok(T::from_word(direct_word(next)));
            }
            // SAFETY: version-list links are epoch-protected while `guard` is live.
            match unsafe { next.as_ref() } {
                Some(older) => node = older,
                None => return Err((node_ts, T::from_word(node.word()))),
            }
        }
    }

    /// Calls `f(ts, word)` for each retained version, newest first; a direct value
    /// reports stamp 0.
    fn for_each_version(&self, guard: &Guard, mut f: impl FnMut(u64, u64)) {
        let mut cur = self.head(guard);
        while !is_end(cur) {
            if is_direct(cur) {
                f(0, direct_word(cur));
                return;
            }
            // SAFETY: version-list links are epoch-protected while `guard` is live.
            let node = unsafe { cur.deref() };
            f(node.ts.load(Ordering::SeqCst), node.word());
            cur = node.nextv.load(Ordering::SeqCst, guard);
        }
    }

    /// Returns the retained history of this object as `(timestamp, value)` pairs, newest
    /// first (diagnostic / test helper; not constant time). A direct value is reported
    /// with timestamp 0.
    pub fn versions(&self, guard: &Guard) -> Vec<(u64, T)> {
        let mut out = Vec::new();
        self.for_each_version(guard, |ts, word| out.push((ts, T::from_word(word))));
        out
    }

    /// Number of versions currently in the list, a direct value included (diagnostic /
    /// test helper; not constant time).
    pub fn version_count(&self, guard: &Guard) -> usize {
        let mut count = 0;
        self.for_each_version(guard, |_, _| count += 1);
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
    ///    [`VersionedCell::compare_and_swap`] usually recycles these at publication time;
    ///    this lazy walk is the fallback for elisions skipped under gate contention or
    ///    with elision disabled.)
    ///
    /// `min_active` should come from [`Camera::min_active`]; versions that a pinned snapshot
    /// may still need are never reclaimed. Returns the number of versions retired.
    pub fn collect_before(&self, camera: &Arc<Camera>, min_active: u64, guard: &Guard) -> usize {
        let retired = self.cut_below(camera, min_active, guard);
        if retired > 0 {
            camera.note_versions_retired(retired as u64);
        }
        retired
    }

    /// The restructuring walk of [`VersionedCell::collect_before`], shared with the
    /// write-time `prune` step: unlinks and retires every version it frees and returns
    /// their number, leaving the accounting to the caller.
    fn cut_below(&self, camera: &Arc<Camera>, min_active: u64, guard: &Guard) -> usize {
        // A direct head is the cell's only version, so there is nothing to cut. A cell
        // never returns to the direct state, so a node head seen here stays a node head
        // and the gate below is taken on a node word.
        if is_direct(self.head.load(Ordering::SeqCst, guard)) {
            return 0;
        }
        // Only one restructuring at a time per object; a held gate just skips the work.
        // (Serialization also means `nextv` is only ever rewritten by one thread at a time:
        // interior unlinks below race only with readers, which see either the old chain —
        // the unlinked node stays intact until its grace period — or the new one.)
        // Publications may still push new heads above the one the gate was taken on; the
        // walk starts there, and they carry the bit (see `compare_and_swap`).
        let seen = self.head.fetch_or(GATE, Ordering::Acquire, guard);
        if seen.tag() & GATE != 0 {
            return 0;
        }
        let mut retired = 0;
        // SAFETY: the head was a node (checked above; the state is one-way) and `guard`
        // pins the epoch.
        let mut node = unsafe { seen.deref() };
        init_ts(node, camera);
        // Walk toward the newest version with ts <= min_active, unlinking dead
        // same-timestamp intermediates on the way; everything *after* the cut version is
        // invisible to every pinned snapshot and to all future snapshots.
        loop {
            let ts = node.ts.load(Ordering::SeqCst);
            let next = node.nextv.load(Ordering::SeqCst, guard);
            if ts != TBD && ts <= min_active {
                // Cut here. Detach the suffix and retire it.
                if !is_end(next) {
                    node.nextv.store(Shared::null(), Ordering::SeqCst);
                    retired += Self::retire_suffix(camera, next, guard);
                }
                break;
            }
            // A direct value is the oldest version and is stamped 0, at or below every
            // cut: it is the version this walk keeps.
            if is_direct(next) {
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
                // `older` was just unlinked and restructuring is serialized, so it is
                // retired exactly once.
                Self::retire(next, camera, guard);
                retired += 1;
                continue;
            }
            node = older;
        }
        self.release_gate(guard);
        retired
    }

    /// Retires the detached chain starting at `first`, returning its length. The caller
    /// holds the gate and has already unlinked the chain, so no new reader can reach it
    /// and each of its versions is retired exactly once.
    fn retire_suffix(camera: &Arc<Camera>, first: Shared<'_, VNode>, guard: &Guard) -> usize {
        let mut retired = 0;
        let mut cur = first;
        while !is_end(cur) {
            let after = if is_direct(cur) {
                Shared::null()
            } else {
                // SAFETY: the detached suffix stays epoch-protected under `guard`.
                unsafe { cur.deref() }.nextv.load(Ordering::SeqCst, guard)
            };
            Self::retire(cur, camera, guard);
            retired += 1;
            cur = after;
        }
        retired
    }

    /// Releases the gate: clears the bit on whatever head is current (publications made
    /// while it was held carried it over).
    #[inline]
    fn release_gate(&self, guard: &Guard) {
        self.head.fetch_and(!GATE, Ordering::Release, guard);
    }

    /// Destroys the cell: frees every version and counts them toward the camera's dropped
    /// total — without this, every cell destroyed through node unlinking (list/BST
    /// removes) would leave `approx_live_versions` drifting upward forever — and the ones
    /// beyond the first toward its dropped history (the count that gates the amortized
    /// slices; a one-version cell, the common case, adds nothing to it). Pooled nodes
    /// go back to the pool; a slot stays in its node and a direct value has no record.
    ///
    /// A hooked cell releases each freed version's value: this is the link that makes
    /// data-node reclamation cascade — destroying a node's cell drops the version-held
    /// references it was keeping, retiring any child node whose count hits zero. The
    /// releases defer through a fresh guard (this may itself be running as deferred work;
    /// guards nest). `self` by value is the exclusive access the walk needs.
    pub fn destroy(self, camera: &Arc<Camera>) {
        let this = ManuallyDrop::new(self);
        let guard = H::ACTIVE.then(vcas_ebr::pin);
        let mut freed = 0u64;
        // SAFETY: the cell is consumed, so no other thread can reach it; the list is
        // walked and each version freed exactly once.
        unsafe {
            // ORDERING: drop-exclusive — `destroy` consumes the cell; there is no
            // concurrent observer to order against.
            let mut cur = unmask(this.head.load_unprotected(Ordering::Relaxed));
            while !is_end(cur) {
                freed += 1;
                if is_direct(cur) {
                    if let Some(g) = &guard {
                        H::release(T::from_word(direct_word(cur)), camera, g);
                    }
                    break;
                }
                let node = cur.deref();
                // ORDERING: drop-exclusive — see the load above.
                let next = node.nextv.load_unprotected(Ordering::Relaxed);
                let pooled = !Self::is_slot(node);
                if let Some(g) = &guard {
                    H::release(T::from_word(node.word()), camera, g);
                }
                if pooled {
                    vpool::recycle(cur.as_raw());
                }
                cur = next;
            }
        }
        camera.note_versions_dropped(freed);
        if freed > 1 {
            camera.note_history_dropped(freed - 1);
        }
    }
}

impl<T: VersionValue, H: ValueHook<T>> Drop for VersionedCell<T, H> {
    fn drop(&mut self) {
        // The cell owns its versions but not their camera, so only `destroy` can free and
        // count them; a cell dropped without it leaks its list. (Unwinding may drop cells
        // that a completed operation would have destroyed; that is not reported.)
        debug_assert!(std::thread::panicking(), "a versioned cell was dropped without `destroy`");
    }
}

/// A standalone versioned CAS object: a [`VersionedCell`] together with the camera it is
/// associated with, which it passes to every operation. This is the form for code that
/// versions a few words of its own (see the crate example); a structure keeps one camera
/// for all its cells and uses [`VersionedCell`] (or the typed [`crate::PtrCell`])
/// directly. Dropping it destroys the cell.
pub struct VersionedCas<T: VersionValue, H: ValueHook<T> = ()> {
    cell: ManuallyDrop<VersionedCell<T, H>>,
    camera: Arc<Camera>,
}

impl<T: VersionValue> VersionedCas<T> {
    /// Creates a versioned CAS object holding `initial`, associated with `camera`.
    pub fn new(initial: T, camera: &Arc<Camera>) -> Self {
        VersionedCas {
            cell: ManuallyDrop::new(VersionedCell::new(initial, camera)),
            camera: camera.clone(),
        }
    }
}

impl<T: VersionValue, H: ValueHook<T>> VersionedCas<T, H> {
    /// The camera this object is associated with.
    pub fn camera(&self) -> &Arc<Camera> {
        &self.camera
    }

    /// `vRead` ([`VersionedCell::read`]).
    pub fn read(&self, guard: &Guard) -> T {
        self.cell.read(&self.camera, guard)
    }

    /// `vCAS` ([`VersionedCell::compare_and_swap`]).
    pub fn compare_and_swap(&self, old: T, new: T, guard: &Guard) -> bool {
        self.cell.compare_and_swap(&self.camera, old, new, guard)
    }

    /// `readSnapshot` ([`VersionedCell::read_snapshot`]).
    pub fn read_snapshot(&self, handle: SnapshotHandle, guard: &Guard) -> T {
        self.cell.read_snapshot(&self.camera, handle, guard)
    }

    /// `readSnapshot` with a defined out-of-history result
    /// ([`VersionedCell::read_snapshot_checked`]).
    pub fn read_snapshot_checked(&self, handle: SnapshotHandle, guard: &Guard) -> Option<T> {
        self.cell.read_snapshot_checked(&self.camera, handle, guard)
    }

    /// The retained history, newest first ([`VersionedCell::versions`]).
    pub fn versions(&self, guard: &Guard) -> Vec<(u64, T)> {
        self.cell.versions(guard)
    }

    /// Number of retained versions ([`VersionedCell::version_count`]).
    pub fn version_count(&self, guard: &Guard) -> usize {
        self.cell.version_count(guard)
    }

    /// Truncates the version list below `min_active` ([`VersionedCell::collect_before`]).
    pub fn collect_before(&self, min_active: u64, guard: &Guard) -> usize {
        self.cell.collect_before(&self.camera, min_active, guard)
    }
}

impl<T: VersionValue, H: ValueHook<T>> Drop for VersionedCas<T, H> {
    fn drop(&mut self) {
        // SAFETY: `drop` runs once and the field is not used afterwards.
        let cell = unsafe { ManuallyDrop::take(&mut self.cell) };
        cell.destroy(&self.camera);
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
        // The pin holds the watermark below the burst's timestamp, so nothing is pruned.
        let pinned = cam.pin_snapshot();
        for i in 0..10u64 {
            assert!(v.compare_and_swap(i, i + 1, &g));
        }
        assert_eq!(v.version_count(&g), 11, "with elision off every CAS links a node");
        assert_eq!(cam.versions_elided(), 0);
        cam.set_elision_enabled(true);
        assert!(v.compare_and_swap(10, 11, &g));
        assert_eq!(v.version_count(&g), 11, "re-enabled elision recycles the displaced head");
        // Once the pin is gone, an eliding write also cuts the history below it.
        drop(pinned);
        assert!(v.compare_and_swap(11, 12, &g));
        assert_eq!(v.version_count(&g), 1, "the elision pruned the unreadable suffix");
        assert_eq!(cam.versions_elided(), 2);
    }

    /// Write-time pruning: once the last pin is released, the next publication cuts its
    /// cell back to one version with no sweep, a raw handle older than the released pin
    /// leaves retained history, and slot accounting stays exact.
    #[test]
    fn publication_after_last_unpin_leaves_one_version() {
        let cam = Camera::new();
        let v = VersionedCas::new(0u64, &cam);
        let g = pin();
        let raw = cam.take_snapshot();
        let pinned = cam.pin_snapshot();
        for i in 0..5u64 {
            cam.take_snapshot();
            assert!(v.compare_and_swap(i, i + 1, &g));
        }
        assert_eq!(v.version_count(&g), 6, "no pruning while the pin holds the watermark");
        assert_eq!(v.read_snapshot(pinned.handle(), &g), 0);
        assert_eq!(cam.versions_pruned(), 0);
        // Release the only pin. The next write lands in the instant of the last one, so it
        // elides the displaced head, and prunes the history below it under the same gate.
        drop(pinned);
        assert_eq!(cam.oldest_retained(), cam.current_timestamp(), "unpin advances the watermark");
        assert!(v.compare_and_swap(5, 6, &g));
        assert_eq!(v.version_count(&g), 1, "one publication prunes the cell to its head");
        assert_eq!(cam.versions_elided(), 1, "the displaced head was elided");
        assert_eq!(cam.versions_pruned(), 0, "an elision is the publication's slot transfer");
        assert_eq!(cam.versions_retired(), 5, "the suffix below it counts as retired");
        assert_eq!(v.read_snapshot_checked(raw, &g), None, "raw handles are not retention");
        assert_eq!(v.read(&g), 6);
        drop(g);
        drop(v);
        assert_eq!(
            cam.versions_created(),
            cam.versions_retired() + cam.versions_dropped(),
            "a pruned publication is a slot transfer"
        );
    }

    /// Releasing a newer pin moves the watermark only to the oldest live pin: the
    /// version that pin reads survives every later publication, and the cell prunes to
    /// one version only once that pin is released too.
    #[test]
    fn older_live_pin_keeps_its_version() {
        let cam = Camera::new();
        let v = VersionedCas::new(0u64, &cam);
        let g = pin();
        let older = cam.pin_snapshot();
        assert!(v.compare_and_swap(0, 1, &g));
        let newer = cam.pin_snapshot();
        assert!(v.compare_and_swap(1, 2, &g));
        drop(newer);
        assert_eq!(cam.oldest_retained(), older.handle().raw(), "the older pin holds the floor");
        for i in 2..10u64 {
            cam.take_snapshot();
            assert!(v.compare_and_swap(i, i + 1, &g));
            assert_eq!(v.read_snapshot(older.handle(), &g), 0, "the older pin's read is frozen");
        }
        assert_eq!(v.versions(&g).last(), Some(&(older.handle().raw(), 0)));
        assert_eq!(cam.versions_pruned(), 0, "nothing above the older pin is prunable");
        cam.take_snapshot();
        drop(older);
        assert!(v.compare_and_swap(10, 11, &g));
        assert_eq!(v.version_count(&g), 1);
        assert_eq!(cam.versions_pruned(), 1);
    }

    /// With elision disabled the write path never prunes, whatever the watermark says.
    #[test]
    fn disabled_elision_never_prunes() {
        let cam = Camera::new();
        cam.set_elision_enabled(false);
        let v = VersionedCas::new(0u64, &cam);
        let g = pin();
        drop(cam.pin_snapshot());
        for i in 0..5u64 {
            assert!(v.compare_and_swap(i, i + 1, &g));
        }
        assert_eq!(cam.oldest_retained(), cam.current_timestamp());
        assert_eq!(v.version_count(&g), 6);
        assert_eq!(cam.versions_pruned(), 0);
    }

    /// The gate is the head word's low bit: a publication that lands while a cut holds it
    /// succeeds (no spurious failure) and keeps it held, readers never see it, and the
    /// cut's release clears it on the new head.
    #[test]
    fn publication_carries_a_held_gate() {
        let cam = Camera::new();
        let v = VersionedCas::new(0u64, &cam);
        let g = pin();
        let cell = &*v.cell;
        assert_eq!(cell.head.fetch_or(GATE, Ordering::SeqCst, &g).tag(), 0, "the gate was free");
        assert!(v.compare_and_swap(0, 1, &g), "a held gate must not fail a vCAS");
        assert_eq!(cell.head.load(Ordering::SeqCst, &g).tag(), GATE, "the new head carries it");
        assert_eq!(v.read(&g), 1);
        assert_eq!(v.version_count(&g), 2, "elision waits for the gate");
        assert_eq!(v.collect_before(cam.min_active(), &g), 0, "a held gate skips a cut");
        cell.release_gate(&g);
        assert_eq!(cell.head.load(Ordering::SeqCst, &g).tag(), 0);
        assert!(v.collect_before(cam.min_active(), &g) > 0, "the released gate admits a cut");
        assert_eq!(v.version_count(&g), 1);
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
        let stop = Arc::new(crate::sync::AtomicBool::new(false));

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
