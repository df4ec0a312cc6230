//! Deterministic model checks of the vCAS core protocol (compiled only under
//! `--cfg vcas_model`; a stock `cargo test` sees an empty binary).
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg vcas_model" cargo test -p vcas-analysis --test model -- --test-threads=1
//! ```
//!
//! Every test explores *all* interleavings (within the preemption bound) of a small
//! concurrent scenario; assertions inside the scenario closure become model violations
//! carrying a replayable schedule. Budgets come from `Config::from_env` so CI can cap
//! the search (`VCAS_MODEL_MAX_SCHEDULES`, `VCAS_MODEL_TIME_BUDGET_MS`, ...).
//!
//! The two write-time pruning scenarios (a vCAS cutting its own cell below the retention
//! watermark) have a mutation twin: under `--cfg vcas_weaken_prune`, `Camera::unpin`
//! raises the watermark to the present and ignores the pins that remain, and both
//! scenarios must catch the moved pinned read with a schedule that replays:
//!
//! ```text
//! RUSTFLAGS="--cfg vcas_model --cfg vcas_weaken_prune" \
//!     cargo test -p vcas-analysis --test model -- --test-threads=1
//! ```
//!
//! Two scenarios drive the head-word gate of the one-word cell (a publication landing
//! while a cut holds the gate; an eliding, pruning write racing a cut). Their twin,
//! `--cfg vcas_weaken_gate`, makes the publication CAS drop the gate bit it observed on a
//! camera built by `Camera::with_weakened_gate`; the first scenario must catch the
//! resulting concurrent restructuring with a schedule that replays:
//!
//! ```text
//! RUSTFLAGS="--cfg vcas_model --cfg vcas_weaken_gate" \
//!     cargo test -p vcas-analysis --test model -- --test-threads=1
//! ```
//!
//! Two scenarios drive indirection on need: two installers racing to claim the version
//! record embedded in one fresh node (its slot), and a pinned reader racing the first
//! vCAS on a cell whose initial value sits directly in its head word. Their twin,
//! `--cfg vcas_weaken_slot`, turns the slot's claim CAS into a plain store; the first
//! scenario must catch the relinked, already released version with a schedule that
//! replays:
//!
//! ```text
//! RUSTFLAGS="--cfg vcas_model --cfg vcas_weaken_slot" \
//!     cargo test -p vcas-analysis --test model -- --test-threads=1
//! ```
//!
//! Under any deliberate weakening the other scenarios only report their outcome: they are
//! not its designated catcher.
#![cfg(vcas_model)]

use std::sync::Arc;

use vcas_core::sync::Ordering;
use vcas_core::{
    Camera, ManagedPtr, PtrCell, RetentionError, ValueHook, VersionSlot, VersionedCas,
    VersionedCell,
};
use vcas_sync::model::{self, Config, Report};

/// Initializes process-wide singletons (EBR default domain, model panic hook) on the
/// harness thread, so their one-time setup is not interleaved by the scheduler.
fn prewarm() {
    drop(vcas_ebr::pin());
}

fn cfg() -> Config {
    Config::from_env()
}

/// Whether some deliberate weakening is compiled in (the CI mutation leg sets them all
/// together).
const MUTATED: bool = cfg!(any(
    vcas_weaken_publish,
    vcas_weaken_fence,
    vcas_weaken_mark,
    vcas_weaken_elide,
    vcas_weaken_prune,
    vcas_weaken_gate,
    vcas_weaken_slot
));

/// Shared postlude: stock builds must find no violation (and, with `exhaust`, enumerate
/// to completion); under a weakening this scenario does not target, the outcome is only
/// reported.
fn check(name: &str, report: Report, exhaust: bool) {
    if MUTATED {
        println!("{name}: ran under a mutation cfg (not this scenario's catcher): {report:?}");
        return;
    }
    report.assert_no_violation(name);
    println!(
        "{name}: {} schedule(s), {} pruned, exhausted={}",
        report.schedules, report.pruned, report.exhausted
    );
    if exhaust {
        assert!(report.exhausted, "{name}: must enumerate to completion: {report:?}");
    }
}

/// Paper Algorithm 1, publish/read: a concurrent `vRead` against a `vCAS` observes
/// either the old or the new value, never garbage, and two sequential reads on one
/// thread never run backwards (the helping `initTS` step must stamp the new head
/// before its value is returned).
#[test]
fn vcas_publish_read_race() {
    prewarm();
    let report = model::explore(cfg(), || {
        let cam = Camera::new();
        let v = Arc::new(VersionedCas::new(0u64, &cam));
        let writer = {
            let v = v.clone();
            model::spawn(move || {
                let g = vcas_ebr::pin();
                v.compare_and_swap(0, 1, &g)
            })
        };
        let g = vcas_ebr::pin();
        let first = v.read(&g);
        let second = v.read(&g);
        assert!(first == 0 || first == 1, "read returned garbage: {first}");
        assert!(second >= first, "reads ran backwards: {first} then {second}");
        assert!(writer.join(), "uncontended vCAS(0, 1) must succeed");
        assert_eq!(v.read(&g), 1);
    });
    check("vcas_publish_read_race", report, true);
}

/// Camera advance vs. snapshot read: a writer updates x then y; any snapshot handle
/// names a cut of that order, so a snapshot may see (0,0), (1,0) or (1,1) but never
/// (0,1) — the inversion would mean `take_snapshot`'s counter read did not linearize
/// against the publication CASes.
#[test]
fn camera_advance_vs_snapshot_read() {
    prewarm();
    let report = model::explore(cfg(), || {
        let cam = Camera::new();
        let x = Arc::new(VersionedCas::new(0u64, &cam));
        let y = Arc::new(VersionedCas::new(0u64, &cam));
        let writer = {
            let (x, y) = (x.clone(), y.clone());
            model::spawn(move || {
                let g = vcas_ebr::pin();
                assert!(x.compare_and_swap(0, 1, &g));
                assert!(y.compare_and_swap(0, 1, &g));
            })
        };
        let g = vcas_ebr::pin();
        let h = cam.take_snapshot();
        let xs = x.read_snapshot(h, &g);
        let ys = y.read_snapshot(h, &g);
        assert!(
            !(xs == 0 && ys == 1),
            "snapshot observed y's update without x's earlier one: x={xs} y={ys}"
        );
        writer.join();
    });
    check("camera_advance_vs_snapshot_read", report, true);
}

/// A data node under version-held reference counting (`VersionReferenced`).
struct Node {
    refs: vcas_core::sync::AtomicU64,
}

impl Node {
    fn new() -> Node {
        // Allocated with the creator reference, exactly as the structures do.
        Node { refs: vcas_core::sync::AtomicU64::new(1) }
    }
}

// SAFETY: `refs` is used exclusively by the version-held refcount protocol below, and
// the test never republishes a pointer word read from a snapshot version.
unsafe impl vcas_core::VersionReferenced for Node {
    fn version_refs(&self) -> &vcas_core::sync::AtomicU64 {
        &self.refs
    }
}

/// Version-held refcount creator handoff: a thread allocates a node (refs = 1, the
/// creator reference), publishes it through a managed pointer cell (the new version
/// acquires its reference pre-publication), then hands the creator reference off —
/// while the main thread concurrently truncates the cell. In every interleaving the
/// published node must end with exactly the one version-held reference and the
/// replaced node must be retired exactly once.
#[test]
fn refcount_creator_handoff_vs_truncation() {
    prewarm();
    let report = model::explore(cfg(), || {
        let cam = Camera::new();
        let g = vcas_ebr::pin();
        let a = vcas_ebr::Owned::new(Node::new()).into_shared(&g);
        let ptr = Arc::new(ManagedPtr::with_hook(a, &cam).expect("a fresh node is live"));
        // The initial version now holds a counted reference; hand off the creator's.
        vcas_core::release_node_ref(a, &cam, &g);

        let publisher = {
            let (ptr, cam) = (ptr.clone(), cam.clone());
            model::spawn(move || {
                let g = vcas_ebr::pin();
                let a = ptr.load(&g);
                let b = vcas_ebr::Owned::new(Node::new()).into_shared(&g);
                assert!(ptr.compare_exchange(a, b, &g), "uncontended publish must succeed");
                vcas_core::release_node_ref(b, &cam, &g);
                b.as_raw() as usize
            })
        };
        // Concurrent truncation: may run before, between, or after the publisher's steps.
        ptr.collect_before(cam.min_active(), &g);
        let b_raw = publisher.join();
        // Settle: with no pins, one more truncation leaves only the newest version, so
        // node `a` loses its last version-held reference and is retired.
        ptr.collect_before(cam.min_active(), &g);
        let cur = ptr.load(&g);
        assert_eq!(cur.as_raw() as usize, b_raw, "published node must be current");
        // SAFETY: `cur` was loaded under `g`, which pins the epoch.
        let refs = unsafe { cur.deref() }.refs.load(Ordering::SeqCst);
        assert_eq!(refs, 1, "exactly the one version-held reference must remain");
        assert_eq!(cam.nodes_retired(), 1, "the replaced node is retired exactly once");
    });
    check("refcount_creator_handoff_vs_truncation", report, true);
}

/// Truncation vs. pinned reader: a pinned snapshot's read must return its frozen value
/// in every interleaving with a concurrent `collect_before` — the versions a pin can
/// still need are never unlinked (`min_active` is the oldest pin).
#[test]
fn truncation_vs_pinned_reader() {
    prewarm();
    let report = model::explore(cfg(), || {
        let cam = Camera::new();
        let v = Arc::new(VersionedCas::new(0u64, &cam));
        let g = vcas_ebr::pin();
        // Single-threaded prologue (not interleaved): pin at value 0, then advance the
        // history far enough that truncation has both a reclaimable suffix and a dead
        // same-timestamp intermediate to unlink.
        let pinned = cam.pin_snapshot();
        assert!(v.compare_and_swap(0, 1, &g));
        cam.take_snapshot();
        assert!(v.compare_and_swap(1, 2, &g));
        assert!(v.compare_and_swap(2, 3, &g));

        let truncator = {
            let (v, cam) = (v.clone(), cam.clone());
            model::spawn(move || {
                let g = vcas_ebr::pin();
                v.collect_before(cam.min_active(), &g)
            })
        };
        let frozen = v.read_snapshot(pinned.handle(), &g);
        assert_eq!(frozen, 0, "pinned read must see the pinned-era value");
        truncator.join();
        assert_eq!(v.read_snapshot(pinned.handle(), &g), 0, "pinned read moved after truncation");
        assert_eq!(v.read(&g), 3, "current value must survive truncation");
    });
    check("truncation_vs_pinned_reader", report, true);
}

/// Stress mode over the same truncation scenario: seed-randomized schedules, each
/// reproducible from the printed seed. This doubles as the PR 7 transient-failure
/// re-run: the suspect interaction (concurrent truncation racing reads while a pin is
/// live) is driven through thousands of randomized schedules.
#[test]
fn truncation_stress_schedules() {
    prewarm();
    let mut config = cfg();
    config.weak_memory = false;
    let report = model::stress(config, 0x5eed_cafe, 2000, || {
        let cam = Camera::new();
        let v = Arc::new(VersionedCas::new(0u64, &cam));
        let g = vcas_ebr::pin();
        let pinned = cam.pin_snapshot();
        assert!(v.compare_and_swap(0, 1, &g));
        cam.take_snapshot();
        assert!(v.compare_and_swap(1, 2, &g));
        let truncator = {
            let (v, cam) = (v.clone(), cam.clone());
            model::spawn(move || {
                let g = vcas_ebr::pin();
                v.collect_before(cam.min_active(), &g);
            })
        };
        assert_eq!(v.read_snapshot(pinned.handle(), &g), 0);
        truncator.join();
        assert_eq!(v.read_snapshot(pinned.handle(), &g), 0);
    });
    check("truncation_stress_schedules", report, false);
}

/// Postlude of a mutation twin's designated catcher. Stock builds exhaust cleanly. With
/// the twin compiled in (`mutated`), the scenario must catch the mutation, and the
/// schedule it reports must replay to the same failure step for step. Under any other
/// weakening the outcome is only reported.
fn check_caught(name: &str, report: Report, scenario: fn(), mutated: bool) {
    if mutated {
        let caught = report.violation.as_ref().unwrap_or_else(|| {
            panic!("{name}: the mutation must be caught by the model checker: {report:?}")
        });
        let replayed = model::replay(cfg(), &caught.schedule, scenario);
        let again = replayed.violation.expect("replaying the caught schedule must fail again");
        assert_eq!(again.message, caught.message, "{name}: replay reproduced another failure");
        assert_eq!(again.schedule, caught.schedule, "{name}: replay took other steps");
        println!(
            "{name}: mutation caught and replayed: {} (schedule: {:?})",
            caught.message, caught.schedule
        );
    } else {
        check(name, report, true);
    }
}

/// Write-time prune vs. pin registration. Prologue: the cell holds `[1@1, 0@0]`, one pin
/// sits at 0 and the camera is at 2. One thread releases that last pin, which raises the
/// watermark to the present, and then publishes 2: a vCAS that prunes its cell. Meanwhile
/// the main thread pins the past timestamp 1. In every interleaving the past pin either
/// fails with `Truncated` (it came after the unpin) or reads exactly 1: a pin registered
/// before the unpin caps the watermark at 1, so the write may cut only below the version
/// it reads.
fn prune_vs_pin_registration() {
    let cam = Camera::new();
    let cell = Arc::new(VersionedCas::new(0u64, &cam));
    let g = vcas_ebr::pin();
    let pinned = cam.pin_snapshot();
    assert!(cell.compare_and_swap(0, 1, &g));
    cam.take_snapshot();
    let writer = {
        let cell = cell.clone();
        model::spawn(move || {
            drop(pinned);
            let g = vcas_ebr::pin();
            assert!(cell.compare_and_swap(1, 2, &g));
        })
    };
    match cam.pin_snapshot_at(1) {
        Ok(past) => {
            assert_eq!(
                cell.read_snapshot_checked(past.handle(), &g),
                Some(1),
                "a past pin granted before the prune must read its exact value"
            );
            writer.join();
            assert_eq!(cell.read_snapshot_checked(past.handle(), &g), Some(1), "past read moved");
        }
        Err(RetentionError::Truncated { .. }) => writer.join(),
        Err(other) => panic!("unexpected pin_snapshot_at error: {other:?}"),
    }
    assert_eq!(cell.read(&g), 2);
    drop(g);
    let cell = Arc::try_unwrap(cell).ok().expect("the writer joined");
    drop(cell);
    assert_eq!(
        cam.versions_created(),
        cam.versions_retired() + cam.versions_dropped(),
        "slot conservation must hold whatever the prune/pin interleaving"
    );
}

#[test]
fn vcas_prune_vs_pin_registration() {
    prewarm();
    let report = model::explore(cfg(), prune_vs_pin_registration);
    let mutated = cfg!(vcas_weaken_prune);
    check_caught("vcas_prune_vs_pin_registration", report, prune_vs_pin_registration, mutated);
}

/// Write-time prune under an older live pin. Prologue: the cell holds `[1@1, 0@0]`, pins
/// sit at `t1 = 1` (reading 1) and `t2 = 2`. A writer releases `t2` and publishes 2; the
/// watermark stays at `t1`, so the write cuts only the version below the one `t1` reads.
/// The racing read at `t1` must stay frozen at 1 in every interleaving, and the cut must
/// keep slots conserved.
fn prune_under_older_pin() {
    let cam = Camera::new();
    let cell = Arc::new(VersionedCas::new(0u64, &cam));
    let g = vcas_ebr::pin();
    cam.take_snapshot();
    assert!(cell.compare_and_swap(0, 1, &g));
    let t1 = cam.pin_snapshot();
    let t2 = cam.pin_snapshot();
    let writer = {
        let cell = cell.clone();
        model::spawn(move || {
            drop(t2);
            let g = vcas_ebr::pin();
            assert!(cell.compare_and_swap(1, 2, &g));
        })
    };
    assert_eq!(
        cell.read_snapshot_checked(t1.handle(), &g),
        Some(1),
        "a write pruned history the older live pin still reads"
    );
    writer.join();
    assert_eq!(cell.read_snapshot_checked(t1.handle(), &g), Some(1), "pinned read moved");
    assert_eq!(cell.read(&g), 2);
    assert_eq!(cam.versions_pruned(), 1, "the write cut the version below the pinned one");
    drop(g);
    drop(t1);
    let cell = Arc::try_unwrap(cell).ok().expect("the writer joined");
    drop(cell);
    assert_eq!(
        cam.versions_created(),
        cam.versions_retired() + cam.versions_dropped(),
        "slot conservation must hold under a pruning write and a pin"
    );
}

#[test]
fn vcas_prune_under_older_pin() {
    prewarm();
    let report = model::explore(cfg(), prune_under_older_pin);
    let mutated = cfg!(vcas_weaken_prune);
    check_caught("vcas_prune_under_older_pin", report, prune_under_older_pin, mutated);
}

/// The camera of the gate scenarios: under `--cfg vcas_weaken_gate`, one whose cells run
/// the mutation (it is scoped to such cameras; see `Camera::with_weakened_gate`).
fn gate_camera() -> Arc<Camera> {
    #[cfg(vcas_weaken_gate)]
    return Camera::with_weakened_gate();
    #[cfg(not(vcas_weaken_gate))]
    Camera::new()
}

/// Ends a gate scenario: the cell's version list must have one of the `allowed` shapes
/// (values, newest first), and every node it links must still be counted live (created
/// minus retired minus dropped) — a node retired while still linked would be freed twice.
/// On a mismatch the cell is leaked, not destroyed, because destroying it would free a
/// node whose deferred retirement is still pending; then the scenario fails. Otherwise
/// the cell is destroyed and slots must be exactly conserved.
fn settle_gate_scenario(cell: Arc<VersionedCas<u64>>, cam: &Camera, allowed: &[&[u64]]) {
    let cell = Arc::try_unwrap(cell).ok().expect("every clone joined");
    let g = vcas_ebr::pin();
    let values: Vec<u64> = cell.versions(&g).into_iter().map(|(_, v)| v).collect();
    drop(g);
    let live = cam.approx_live_versions();
    if values.len() as u64 != live || !allowed.contains(&values.as_slice()) {
        std::mem::forget(cell);
        panic!(
            "version list {values:?} with {live} live slot(s): a node was retired while \
             still linked, or the list took a shape no interleaving allows"
        );
    }
    drop(cell);
    assert_eq!(
        cam.versions_created(),
        cam.versions_retired() + cam.versions_dropped(),
        "slot conservation must hold whatever the publication/cut interleaving"
    );
}

/// Publication vs. a cut holding the gate. Prologue: the cell holds `[1@1, 0@0]` and no
/// pin exists. A cut below the present (`collect_before`) races a same-timestamp vCAS of
/// 1 to 2. Whenever the publication lands while the cut holds the head word's gate bit,
/// it must succeed (a vCAS never fails because only the bit moved) and must carry the bit
/// over, so its elision step finds the gate held and leaves the list to the cut. In every
/// interleaving the list ends as `[2]`, `[2, 1]` (the cut kept the head it walked from)
/// or `[2, 0]` (the cut found the elision holding the gate), with no node retired while
/// linked. Under `--cfg vcas_weaken_gate` the publication drops the bit, the elision
/// restructures the list beside the cut, and a node the cut retires stays linked.
fn publish_vs_held_gate() {
    let cam = gate_camera();
    let cell = Arc::new(VersionedCas::new(0u64, &cam));
    {
        // Elision is off for the prologue write, so the history below the head survives
        // whatever comparator a build's elision uses.
        cam.set_elision_enabled(false);
        let g = vcas_ebr::pin();
        cam.take_snapshot();
        assert!(cell.compare_and_swap(0, 1, &g));
        cam.set_elision_enabled(true);
    }
    let floor = cam.min_active();
    let cutter = {
        let cell = cell.clone();
        model::spawn(move || {
            let g = vcas_ebr::pin();
            cell.collect_before(floor, &g);
        })
    };
    {
        let g = vcas_ebr::pin();
        assert!(cell.compare_and_swap(1, 2, &g), "a vCAS failed while only the gate moved");
    }
    cutter.join();
    settle_gate_scenario(cell, &cam, &[&[2], &[2, 1], &[2, 0]]);
}

#[test]
fn vcas_publish_vs_gate_held_by_cut() {
    prewarm();
    let report = model::explore(cfg(), publish_vs_held_gate);
    let mutated = cfg!(vcas_weaken_gate);
    check_caught("vcas_publish_vs_gate_held_by_cut", report, publish_vs_held_gate, mutated);
}

/// Elision vs. cut. Prologue: the cell holds `[1@1, 0@0]` and the last pin was released,
/// so the watermark is at 1. A same-timestamp vCAS of 1 to 2 elides the displaced head
/// and, finding history below it and the watermark at its stamp, prunes that history
/// under the gate it took by `CAS(new → new|GATE)`; a cut (`collect_before`) races it
/// for the same gate. In every interleaving exactly one of them restructures at a time:
/// the list ends as `[2]` or, when the publication landed while the cut held the gate,
/// `[2, 1]`, with every slot conserved.
fn elide_prune_vs_cut() {
    let cam = gate_camera();
    let cell = Arc::new(VersionedCas::new(0u64, &cam));
    {
        // As in `publish_vs_held_gate`, the prologue write runs with elision off.
        cam.set_elision_enabled(false);
        let g = vcas_ebr::pin();
        let pinned = cam.pin_snapshot();
        assert!(cell.compare_and_swap(0, 1, &g));
        drop(pinned);
        cam.set_elision_enabled(true);
    }
    assert_eq!(cam.oldest_retained(), cam.current_timestamp(), "the unpin moved the watermark");
    let floor = cam.min_active();
    let cutter = {
        let cell = cell.clone();
        model::spawn(move || {
            let g = vcas_ebr::pin();
            cell.collect_before(floor, &g);
        })
    };
    {
        let g = vcas_ebr::pin();
        assert!(cell.compare_and_swap(1, 2, &g), "a vCAS failed while only the gate moved");
    }
    cutter.join();
    settle_gate_scenario(cell, &cam, &[&[2], &[2, 1]]);
}

#[test]
fn vcas_elide_prune_vs_cut() {
    prewarm();
    let report = model::explore(cfg(), elide_prune_vs_cut);
    check("vcas_elide_prune_vs_cut", report, true);
}

/// A counted node that embeds the record of the version that installs it, as the tree's
/// internal nodes do.
struct SlotNode {
    refs: vcas_core::sync::AtomicU64,
    slot: VersionSlot,
}

// SAFETY: `refs` is used exclusively by the version-held refcount protocol, and the
// scenarios never republish a pointer word read from a snapshot version.
unsafe impl vcas_core::VersionReferenced for SlotNode {
    fn version_refs(&self) -> &vcas_core::sync::AtomicU64 {
        &self.refs
    }
}

/// Counted references to [`SlotNode`]s that name each node's slot.
struct SlotRefs;

impl ValueHook<usize> for SlotRefs {
    fn acquire(word: usize) -> bool {
        // SAFETY: `word` came from a `Shared<SlotNode>` the caller's guard protects.
        vcas_core::acquire_node_ref(unsafe { vcas_ebr::Shared::<'_, SlotNode>::from_data(word) })
    }

    fn release(word: usize, camera: &Arc<Camera>, guard: &vcas_ebr::Guard) {
        // SAFETY: the released version held a counted reference, so the node is live.
        let node = unsafe { vcas_ebr::Shared::<'_, SlotNode>::from_data(word) };
        vcas_core::release_node_ref(node, camera, guard);
    }

    fn slot(word: usize) -> Option<std::ptr::NonNull<VersionSlot>> {
        // SAFETY: asked only for an accepted, unreleased value, whose node is allocated.
        let node = unsafe { vcas_ebr::Shared::<'_, SlotNode>::from_data(word).as_ref() }?;
        Some(std::ptr::NonNull::from(&node.slot))
    }
}

type SlotCell = PtrCell<SlotNode, SlotRefs>;

fn slot_node() -> vcas_ebr::Owned<SlotNode> {
    vcas_ebr::Owned::new(SlotNode {
        refs: vcas_core::sync::AtomicU64::new(1),
        slot: VersionSlot::new(),
    })
}

/// Two installers claim one fresh node's slot. Prologue: a structure cell holds node `a`
/// directly (no version record) and node `b` is fresh, with an unclaimed slot. Two threads
/// publish `b` over `a` at once, as EFRB helpers replaying one insert's
/// `CAS-Child(p, l, new)` do. The camera has not advanced, so the winning publication
/// elides the direct value below it. In every interleaving exactly one publication lands,
/// the cell ends holding `[b]` alone with one live version, and both nodes are retired
/// exactly once when it is destroyed. Under `--cfg vcas_weaken_slot` the claim is a plain
/// store: a late installer rewrites the `nextv` of the slot the winner already linked and
/// stripped, relinking `a`'s released version below `b`.
fn two_installers_claim_one_slot() {
    let cam = Camera::new();
    let g = vcas_ebr::pin();
    let a = slot_node().into_shared(&g);
    let b = slot_node().into_shared(&g);
    let cell = Arc::new(SlotCell::fresh(a, &cam).expect("a fresh node is live"));
    vcas_core::release_node_ref(a, &cam, &g);
    let (a_word, b_word) = (a.into_data(), b.into_data());
    let installer = |cell: Arc<SlotCell>, cam: Arc<Camera>| {
        model::spawn(move || {
            let g = vcas_ebr::pin();
            // SAFETY: both nodes are referenced (by the cell, or by `b`'s creator until
            // the main thread joins), so the words name live nodes.
            let (a, b) = unsafe {
                (vcas_ebr::Shared::from_data(a_word), vcas_ebr::Shared::from_data(b_word))
            };
            cell.compare_exchange(&cam, a, b, &g)
        })
    };
    let first = installer(cell.clone(), cam.clone());
    let second = installer(cell.clone(), cam.clone());
    let wins = [first.join(), second.join()].iter().filter(|&&won| won).count();
    assert_eq!(wins, 1, "exactly one publication of b must land");
    vcas_core::release_node_ref(b, &cam, &g);
    drop(g);
    let cell = Arc::try_unwrap(cell).ok().expect("every installer joined");
    let g = vcas_ebr::pin();
    let (current, count) = (cell.load(&cam, &g).into_data(), cell.version_count(&g));
    drop(g);
    let live = cam.approx_live_versions();
    if current != b_word || count != 1 || live != 1 {
        // Destroying the cell would release a version a second time; leak it instead.
        std::mem::forget(cell);
        panic!(
            "cell holds {count} version(s) (head is b: {}) with {live} live: a released \
             version was relinked",
            current == b_word
        );
    }
    cell.destroy(&cam);
    assert_eq!(
        cam.versions_created(),
        cam.versions_retired() + cam.versions_dropped(),
        "version conservation must hold whoever claimed the slot"
    );
    assert_eq!(cam.nodes_retired(), 2, "each node is retired exactly once");
}

#[test]
fn vcas_two_installers_claim_one_slot() {
    prewarm();
    let report = model::explore(cfg(), two_installers_claim_one_slot);
    let mutated = cfg!(vcas_weaken_slot);
    check_caught(
        "vcas_two_installers_claim_one_slot",
        report,
        two_installers_claim_one_slot,
        mutated,
    );
}

/// Pinned reader vs. the first vCAS on a direct initial value. Prologue: a structure cell
/// holds 1 directly in its head word, stamped 0 for every reader, and the camera has
/// advanced past it. A writer publishes 2 — the vCAS that links the direct value below
/// its new version — while the main thread pins a snapshot and reads the cell through it
/// twice. Whichever side of the publication the pin lands on, both pinned reads agree,
/// and a pin taken before the publication reads 1. Once the pin is released, a second
/// write prunes the direct value, and version slots stay conserved.
fn pinned_reader_vs_first_vcas_on_direct_value() {
    let cam = Camera::new();
    let cell =
        Arc::new(VersionedCell::<u64>::fresh(1, &cam).expect("an unmanaged cell never refuses"));
    cam.take_snapshot();
    let writer = {
        let (cell, cam) = (cell.clone(), cam.clone());
        model::spawn(move || {
            let g = vcas_ebr::pin();
            assert!(cell.compare_and_swap(&cam, 1, 2, &g), "the only writer's vCAS must land");
        })
    };
    let g = vcas_ebr::pin();
    let pinned = cam.pin_snapshot();
    let seen = cell.read_snapshot_checked(&cam, pinned.handle(), &g);
    assert!(matches!(seen, Some(1) | Some(2)), "pinned read returned {seen:?}");
    writer.join();
    assert_eq!(cell.read_snapshot_checked(&cam, pinned.handle(), &g), seen, "pinned read moved");
    assert_eq!(cell.read(&cam, &g), 2);
    drop(pinned);
    assert!(cell.compare_and_swap(&cam, 2, 3, &g));
    assert_eq!(cell.version_count(&g), 1, "the write after the last unpin prunes the cell");
    drop(g);
    let cell = Arc::try_unwrap(cell).ok().expect("the writer joined");
    cell.destroy(&cam);
    assert_eq!(
        cam.versions_created(),
        cam.versions_retired() + cam.versions_dropped(),
        "version conservation must hold with a direct initial value"
    );
}

#[test]
fn vcas_pinned_reader_vs_first_vcas_on_direct_value() {
    prewarm();
    let report = model::explore(cfg(), pinned_reader_vs_first_vcas_on_direct_value);
    check("vcas_pinned_reader_vs_first_vcas_on_direct_value", report, true);
}
