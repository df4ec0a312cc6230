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
#![cfg(vcas_model)]

use std::sync::Arc;

use vcas_core::sync::Ordering;
use vcas_core::{Camera, ManagedPtr, VersionedCas};
use vcas_sync::model::{self, Config};

/// Initializes process-wide singletons (EBR default domain, model panic hook) on the
/// harness thread, so their one-time setup is not interleaved by the scheduler.
fn prewarm() {
    drop(vcas_ebr::pin());
}

fn cfg() -> Config {
    Config::from_env()
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
    report.assert_no_violation("vcas_publish_read_race");
    println!(
        "vcas_publish_read_race: {} schedule(s), {} pruned, exhausted={}",
        report.schedules, report.pruned, report.exhausted
    );
    assert!(report.exhausted, "publish/read must enumerate to completion: {report:?}");
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
    report.assert_no_violation("camera_advance_vs_snapshot_read");
    println!(
        "camera_advance_vs_snapshot_read: {} schedule(s), {} pruned, exhausted={}",
        report.schedules, report.pruned, report.exhausted
    );
    assert!(
        report.exhausted,
        "camera-advance/snapshot-read must enumerate to completion: {report:?}"
    );
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
    report.assert_no_violation("refcount_creator_handoff_vs_truncation");
    println!(
        "refcount_creator_handoff_vs_truncation: {} schedule(s), {} pruned, exhausted={}",
        report.schedules, report.pruned, report.exhausted
    );
    assert!(
        report.exhausted,
        "creator-handoff/truncation must enumerate to completion: {report:?}"
    );
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
    report.assert_no_violation("truncation_vs_pinned_reader");
    println!(
        "truncation_vs_pinned_reader: {} schedule(s), {} pruned, exhausted={}",
        report.schedules, report.pruned, report.exhausted
    );
    assert!(report.exhausted, "truncate/pinned-reader must enumerate to completion: {report:?}");
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
    report.assert_no_violation("truncation_stress_schedules");
    println!(
        "truncation_stress_schedules: {} schedule(s), {} pruned, exhausted={}",
        report.schedules, report.pruned, report.exhausted
    );
}
