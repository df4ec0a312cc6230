//! Mutation regression: prove the model checker actually catches a memory-ordering bug.
//!
//! `vcas_core::versioned::PUBLISH_CAS_ORDERING` is `SeqCst` in stock builds and
//! `Relaxed` under `--cfg vcas_weaken_publish` (a deliberate, test-only mutation). This
//! test runs a classic message-passing harness through the weak-memory model:
//!
//! * writer: `payload.store(42, Release)`, then publish by CASing `slot` 0 → 1 with
//!   `PUBLISH_CAS_ORDERING` as the success ordering — exactly the shape of the
//!   publication CAS in `VersionedCell::compare_and_swap`;
//! * reader: `slot.load(Acquire)`; if it observes 1, `payload.load(Acquire)` must be 42.
//!
//! With `SeqCst` success ordering the CAS carries the writer's release view, the
//! reader's acquire load merges it, and the exploration exhausts cleanly. With the
//! `Relaxed` mutation the CAS publishes no view, so the reader can see the flag without
//! the payload — a violation with a replayable schedule. The test asserts the detector
//! fires **iff** the mutation cfg is on, so CI runs it twice (stock and mutated).
//!
//! A second harness exercises the *fence-based* publication idiom through
//! `vcas_core::versioned::PUBLISH_FENCE_ORDERING` (`Release` stock, `Acquire` under
//! `--cfg vcas_weaken_fence`): writer stores the payload relaxed, fences, then stores the
//! flag relaxed; reader observes the flag relaxed, fences with `Acquire`, and must see
//! the payload. Stock exhausts cleanly — which also proves the model gives fences real
//! C11 publication semantics (a fence modeled as a mere scheduling point would flag the
//! correct code as racy) — while the weakened fence leaks a stale read.
//!
//! ```text
//! RUSTFLAGS="--cfg vcas_model" \
//!     cargo test -p vcas-analysis --test mutation -- --test-threads=1
//! RUSTFLAGS="--cfg vcas_model --cfg vcas_weaken_publish --cfg vcas_weaken_fence" \
//!     cargo test -p vcas-analysis --test mutation -- --test-threads=1
//! ```
#![cfg(vcas_model)]

use std::sync::Arc;

use vcas_core::sync::{fence, AtomicU64, Ordering};
use vcas_core::versioned::{PUBLISH_CAS_ORDERING, PUBLISH_FENCE_ORDERING};
use vcas_sync::model::{self, Config};

#[test]
fn model_checker_catches_weakened_publication_cas() {
    let config = Config { weak_memory: true, max_stale: 4, ..Config::from_env() };
    let report = model::explore(config, || {
        let payload = Arc::new(AtomicU64::new(0));
        let slot = Arc::new(AtomicU64::new(0));
        let writer = {
            let (payload, slot) = (payload.clone(), slot.clone());
            model::spawn(move || {
                payload.store(42, Ordering::Release);
                // The publication step under test: success ordering comes from the
                // (possibly mutated) protocol constant.
                let _ = slot.compare_exchange(0, 1, PUBLISH_CAS_ORDERING, Ordering::SeqCst);
            })
        };
        if slot.load(Ordering::Acquire) == 1 {
            let seen = payload.load(Ordering::Acquire);
            assert_eq!(seen, 42, "published flag observed but payload is stale");
        }
        writer.join();
    });

    if cfg!(vcas_weaken_publish) {
        assert!(
            report.found_violation(),
            "the weakened publication CAS must be caught by the weak-memory model: {report:?}"
        );
        let v = report.violation.as_ref().unwrap();
        println!("mutation caught as expected: {} (replay schedule: {:?})", v.message, v.schedule);
    } else {
        report.assert_no_violation("publication_cas_stock_ordering");
        assert!(report.exhausted, "stock publication model must enumerate cleanly: {report:?}");
    }
}

#[test]
fn model_checker_catches_weakened_publication_fence() {
    let config = Config { weak_memory: true, max_stale: 4, ..Config::from_env() };
    let report = model::explore(config, || {
        let payload = Arc::new(AtomicU64::new(0));
        let slot = Arc::new(AtomicU64::new(0));
        let writer = {
            let (payload, slot) = (payload.clone(), slot.clone());
            model::spawn(move || {
                payload.store(42, Ordering::Relaxed);
                // The publication step under test: the (possibly mutated) standalone
                // fence is the only thing ordering the payload before the flag.
                fence(PUBLISH_FENCE_ORDERING);
                slot.store(1, Ordering::Relaxed);
            })
        };
        if slot.load(Ordering::Relaxed) == 1 {
            fence(Ordering::Acquire);
            let seen = payload.load(Ordering::Relaxed);
            assert_eq!(seen, 42, "flag observed across fences but payload is stale");
        }
        writer.join();
    });

    if cfg!(vcas_weaken_fence) {
        assert!(
            report.found_violation(),
            "the weakened publication fence must be caught by the weak-memory model: {report:?}"
        );
        let v = report.violation.as_ref().unwrap();
        println!("mutation caught as expected: {} (replay schedule: {:?})", v.message, v.schedule);
    } else {
        report.assert_no_violation("publication_fence_stock_ordering");
        assert!(report.exhausted, "stock fence model must enumerate cleanly: {report:?}");
    }
}
