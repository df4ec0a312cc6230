//! # vcas-ebr — epoch-based memory reclamation for lock-free data structures
//!
//! This crate is the memory-reclamation substrate used by the constant-time-snapshot
//! reproduction (`vcas-core` / `vcas-structures`). The paper's implementations rely on
//! epoch-based garbage collection (Fraser, 2004); this crate provides that mechanism from
//! scratch, together with tagged atomic pointers (the "mark bit on the next pointer" idiom
//! used by Harris's linked list and the NBBST).
//!
//! ## Model
//!
//! * A process *pins* the current epoch by creating a [`Guard`] (via [`pin`]). While pinned,
//!   any pointer it loads from an [`Atomic`] remains valid: memory retired by other threads
//!   is not freed until every thread that might still hold a reference has unpinned.
//! * Removing a node from a data structure makes it unreachable to *new* readers; the remover
//!   then *retires* it ([`Guard::defer_destroy`] / [`Guard::defer`]). The deferred destructor
//!   runs once two epoch advancements have separated it from every pinned reader.
//! * The global epoch only advances when every currently pinned thread has observed the
//!   current epoch, which bounds how long a lagging reader can delay reclamation without ever
//!   blocking writers (readers and writers are both lock-free with respect to the epoch
//!   machinery; only the rarely-taken registration path uses a mutex).
//!
//! ## Quick example
//!
//! ```
//! use vcas_ebr::sync::Ordering;
//! use vcas_ebr::{pin, Atomic, Owned};
//!
//! let a: Atomic<u64> = Atomic::new(41);
//! let guard = pin();
//! let shared = a.load(Ordering::SeqCst, &guard);
//! // SAFETY: the guard pins the epoch, so the loaded pointer stays valid.
//! assert_eq!(unsafe { *shared.as_ref().unwrap() }, 41);
//!
//! // Replace the value and retire the old node.
//! let old = a.swap(Owned::new(42), Ordering::SeqCst, &guard);
//! // SAFETY: the swap unlinked `old`; it is retired exactly once.
//! unsafe { guard.defer_destroy(old) };
//! ```

#![warn(missing_docs)]

/// Synchronization facade (`vcas-sync`): std atomics normally, the deterministic model
/// checker's instrumented types under `--cfg vcas_model`.
pub use vcas_sync as sync;

mod atomic;
mod deferred;
mod domain;
mod guard;
mod local;

pub use atomic::{Atomic, CompareExchangeError, Owned, Shared};
pub use deferred::Deferred;
pub use domain::{Domain, DomainStats};
pub use guard::Guard;

use std::sync::Arc;
use std::sync::OnceLock;

/// Returns the process-wide default reclamation domain.
///
/// All data structures in this workspace share this domain unless they are explicitly
/// constructed with their own [`Domain`].
pub fn default_domain() -> &'static Arc<Domain> {
    static DEFAULT: OnceLock<Arc<Domain>> = OnceLock::new();
    DEFAULT.get_or_init(|| Arc::new(Domain::new()))
}

/// Pins the current thread in the default domain and returns a [`Guard`].
///
/// Pinning is constant-time. Guards may be nested; only the outermost guard publishes and
/// withdraws the thread's epoch announcement.
pub fn pin() -> Guard {
    default_domain().pin()
}

/// Flushes this thread's local garbage bag into the default domain and aggressively tries to
/// advance the epoch and run deferred destructors.
///
/// Intended for tests and quiescent points (e.g. the end of a benchmark phase); concurrent
/// operation remains correct without ever calling this.
pub fn flush() {
    default_domain().flush();
}

/// Drives the default domain's deferred work — including cascades, where one destructor
/// defers another — until all of it has run or no progress can be made. Returns the number
/// of deferred destructors that have not finished running, counted across every thread:
/// 0 means every destructor deferred into the default domain before the final check
/// (and everything it deferred in turn) has run to completion.
///
/// Call at quiescent points only (see [`Domain::drain`]); while other threads are pinned,
/// hold deferrals in their local bags, or run destructors, this legitimately returns
/// non-zero.
pub fn drain() -> usize {
    default_domain().drain()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn pin_unpin_smoke() {
        let g = pin();
        drop(g);
        let g1 = pin();
        let g2 = pin();
        drop(g1);
        drop(g2);
    }

    #[test]
    fn deferred_runs_after_flush() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        {
            let g = pin();
            g.defer(|| {
                RAN.fetch_add(1, Ordering::SeqCst);
            });
        }
        for _ in 0..8 {
            flush();
        }
        assert!(RAN.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn destructor_not_run_while_pinned_elsewhere() {
        // A node retired while another thread is pinned must not be destroyed until that
        // thread unpins.
        let dropped = Arc::new(AtomicUsize::new(0));
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let domain = Arc::new(Domain::new());
        let d2 = domain.clone();
        let dropped2 = dropped.clone();

        // Hold a pin on a helper thread.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let _g = d2.pin();
            ready_tx.send(()).unwrap();
            rx.recv().unwrap();
        });
        ready_rx.recv().unwrap();

        {
            let g = domain.pin();
            let probe = Box::new(Probe(dropped2));
            let raw = Box::into_raw(probe);
            // SAFETY: `raw` is uniquely owned here and freed exactly once by the deferred
            // closure; the guard keeps it alive until no pinned thread can reach it.
            unsafe {
                g.defer_unchecked(move || {
                    drop(Box::from_raw(raw));
                })
            };
        }
        for _ in 0..16 {
            domain.flush();
        }
        assert_eq!(dropped.load(Ordering::SeqCst), 0, "freed while another thread was pinned");

        tx.send(()).unwrap();
        holder.join().unwrap();
        for _ in 0..16 {
            domain.flush();
        }
        assert_eq!(dropped.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn many_threads_defer() {
        let domain = Arc::new(Domain::new());
        let dropped = Arc::new(AtomicUsize::new(0));
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        const PER_THREAD: usize = 500;
        const THREADS: usize = 4;
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let d = domain.clone();
            let c = dropped.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    let g = d.pin();
                    let raw = Box::into_raw(Box::new(Probe(c.clone())));
                    // SAFETY: each raw pointer is freed exactly once by its own closure.
                    unsafe {
                        g.defer_unchecked(move || drop(Box::from_raw(raw)));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for _ in 0..64 {
            domain.flush();
        }
        assert_eq!(dropped.load(Ordering::SeqCst), PER_THREAD * THREADS);
    }
}
