//! The reclamation [`Domain`]: global epoch, participant registry, and garbage queue.

use std::sync::Arc;

use crate::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};

use crate::deferred::Deferred;
use crate::guard::Guard;
use crate::local;

/// How many deferred items a thread accumulates locally before it flushes them to the global
/// queue and attempts an epoch advance + collection.
pub(crate) const LOCAL_BAG_THRESHOLD: usize = 64;

/// Per-thread announcement of pinned state, plus the thread's deferral tally.
///
/// `state` packs `(epoch << 2) | flags` where bit 0 = pinned (active) and bit 1 = defunct
/// (the owning thread has exited and this slot should be dropped from the registry).
///
/// `deferred` counts the destructors the owning thread has deferred into this domain over
/// its lifetime, whether they still sit in its unflushed local bag or not. Only the owner
/// writes it (a plain store, no shared read-modify-write on the `defer` path); the
/// registry folds it into [`Domain`] when the slot is dropped, so [`Domain::drain`] can
/// count work that is invisible in the global queue.
pub(crate) struct Participant {
    state: AtomicU64,
    deferred: AtomicU64,
}

const FLAG_ACTIVE: u64 = 0b01;
const FLAG_DEFUNCT: u64 = 0b10;

impl Participant {
    pub(crate) fn new() -> Self {
        Participant { state: AtomicU64::new(0), deferred: AtomicU64::new(0) }
    }

    /// Counts one destructor deferred by the owning thread (owner-only single writer).
    pub(crate) fn note_deferred(&self) {
        // ORDERING: own-announcement — only the owning thread stores to its tally, so
        // reading its own last store needs no synchronization. The `Release` store pairs
        // with the `Acquire` reads in `Domain::deferred_total` (see `Domain::drain`).
        let n = self.deferred.load(Ordering::Relaxed);
        self.deferred.store(n + 1, Ordering::Release);
    }

    /// Announce that the owning thread is pinned at `epoch`.
    pub(crate) fn set_pinned(&self, epoch: u64) {
        self.state.store((epoch << 2) | FLAG_ACTIVE, Ordering::SeqCst);
    }

    /// Withdraw the announcement.
    pub(crate) fn set_unpinned(&self) {
        // ORDERING: own-announcement — only the owning thread stores to its participant
        // word, so this read of our own last store needs no synchronization.
        let epoch = self.state.load(Ordering::Relaxed) >> 2;
        self.state.store(epoch << 2, Ordering::SeqCst);
    }

    /// Mark the slot as belonging to an exited thread.
    pub(crate) fn set_defunct(&self) {
        self.state.fetch_or(FLAG_DEFUNCT, Ordering::SeqCst);
    }

    fn snapshot(&self) -> (u64, bool, bool) {
        let s = self.state.load(Ordering::SeqCst);
        (s >> 2, s & FLAG_ACTIVE != 0, s & FLAG_DEFUNCT != 0)
    }
}

/// Counters describing a domain's reclamation activity (useful for tests and diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainStats {
    /// Current global epoch.
    pub epoch: u64,
    /// Deferred destructors handed to the domain's global queue over its lifetime.
    pub deferred: u64,
    /// Deferred destructors that have run to completion.
    pub collected: u64,
    /// Deferred destructors still waiting in the global queue.
    pub pending: usize,
    /// Number of registered (non-defunct) participants.
    pub participants: usize,
}

/// The global garbage queue, and the buffer [`Domain::collect`] reuses to run a batch.
#[derive(Default)]
struct Garbage {
    queue: Vec<(u64, Deferred)>,
    /// Empty between batches; keeps the capacity of the last batch's buffer. A `collect`
    /// nested inside a running destructor finds it taken and starts from an empty one;
    /// the larger of the two is kept.
    spare: Vec<Deferred>,
}

impl Garbage {
    fn keep_spare(&mut self, buffer: Vec<Deferred>) {
        debug_assert!(buffer.is_empty());
        if buffer.capacity() > self.spare.capacity() {
            self.spare = buffer;
        }
    }
}

/// An epoch-based reclamation domain.
///
/// A domain owns a global epoch counter, a registry of per-thread participants, and a
/// queue of deferred destructors tagged with the epoch at which they were retired. Data
/// structures that share a domain amortize its bookkeeping; the workspace default is the
/// process-wide domain returned by [`crate::default_domain`].
pub struct Domain {
    id: u64,
    global_epoch: AtomicU64,
    participants: Mutex<Vec<Arc<Participant>>>,
    garbage: Mutex<Garbage>,
    /// Deferral tallies of participants already dropped from the registry; changed only
    /// under the `participants` lock.
    retired_deferred: AtomicU64,
    deferred_count: AtomicU64,
    /// Destructors that have finished running (incremented after each batch completes).
    collected_count: AtomicU64,
    advance_count: AtomicU64,
}

static NEXT_DOMAIN_ID: AtomicUsize = AtomicUsize::new(1);

impl Domain {
    /// Creates a fresh, empty domain.
    pub fn new() -> Self {
        Domain {
            // ORDERING: id-allocator — a unique-id counter; only atomicity matters.
            id: NEXT_DOMAIN_ID.fetch_add(1, Ordering::Relaxed) as u64,
            global_epoch: AtomicU64::new(1),
            participants: Mutex::new(Vec::new()),
            garbage: Mutex::new(Garbage::default()),
            retired_deferred: AtomicU64::new(0),
            deferred_count: AtomicU64::new(0),
            collected_count: AtomicU64::new(0),
            advance_count: AtomicU64::new(0),
        }
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    pub(crate) fn global_epoch(&self) -> u64 {
        self.global_epoch.load(Ordering::SeqCst)
    }

    pub(crate) fn register(&self) -> Arc<Participant> {
        let p = Arc::new(Participant::new());
        self.participants.lock().push(p.clone());
        p
    }

    /// Pins the calling thread in this domain.
    pub fn pin(self: &Arc<Self>) -> Guard {
        local::pin(self)
    }

    /// Moves a thread's local garbage into the global queue.
    pub(crate) fn push_garbage(&self, items: &mut Vec<(u64, Deferred)>) {
        if items.is_empty() {
            return;
        }
        // ORDERING: diag-counter — statistics only, never drives reclamation decisions.
        self.deferred_count.fetch_add(items.len() as u64, Ordering::Relaxed);
        self.garbage.lock().queue.append(items);
    }

    /// Attempts to advance the global epoch. Succeeds only when every pinned participant has
    /// announced the current epoch (defunct participants are dropped from the registry here).
    pub(crate) fn try_advance(&self) -> bool {
        let epoch = self.global_epoch.load(Ordering::SeqCst);
        let mut participants = self.participants.lock();
        let mut can_advance = true;
        participants.retain(|p| {
            let (e, active, defunct) = p.snapshot();
            if defunct && !active {
                // The owner has exited: its tally is final. Fold it in under the lock so
                // `deferred_total` never sees it twice or not at all.
                let n = p.deferred.load(Ordering::Acquire);
                self.retired_deferred.fetch_add(n, Ordering::SeqCst);
                return false;
            }
            if active && e != epoch {
                can_advance = false;
            }
            true
        });
        drop(participants);
        if !can_advance {
            return false;
        }
        if self
            .global_epoch
            .compare_exchange(epoch, epoch + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            // ORDERING: diag-counter — statistics only, never drives reclamation decisions.
            self.advance_count.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Runs every deferred destructor that has been separated from all pinned readers by at
    /// least two epoch advancements.
    pub(crate) fn collect(&self) {
        let epoch = self.global_epoch.load(Ordering::SeqCst);
        let mut ready = {
            let mut garbage = self.garbage.lock();
            // The batch is gathered in the spare buffer the previous batch left behind, so
            // a steady state allocates nothing here.
            let Garbage { queue, spare } = &mut *garbage;
            let mut i = 0;
            while i < queue.len() {
                if queue[i].0 + 2 <= epoch {
                    spare.push(queue.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
            if spare.is_empty() {
                return;
            }
            std::mem::take(spare)
        };
        let n = ready.len() as u64;
        for d in ready.drain(..) {
            d.call();
        }
        // Counted only once the batch has run: a destructor still executing here (and
        // whatever it defers) must keep `drain` from reporting 0. `Release` orders the
        // destructors' own deferrals before the count (see `Domain::drain`).
        self.collected_count.fetch_add(n, Ordering::Release);
        self.garbage.lock().keep_spare(ready);
    }

    /// Destructors deferred into this domain by any thread, flushed or not: the live
    /// participants' tallies plus those folded in from dropped participants.
    fn deferred_total(&self) -> u64 {
        let participants = self.participants.lock();
        let live: u64 = participants.iter().map(|p| p.deferred.load(Ordering::Acquire)).sum();
        live + self.retired_deferred.load(Ordering::SeqCst)
    }

    /// Deferred destructors that have not finished running, wherever they are: in some
    /// thread's unflushed local bag, in the global queue, or executing inside another
    /// thread's `collect`.
    ///
    /// The completed count is read *before* the deferral tallies. Every destructor counted
    /// complete was deferred — and every deferral its body made was tallied — before its
    /// batch's `Release` increment, which the `Acquire` read here synchronizes with; so
    /// the later tally reads include all of them and the difference never under-counts.
    fn outstanding(&self) -> usize {
        let completed = self.collected_count.load(Ordering::Acquire);
        let deferred = self.deferred_total();
        deferred.saturating_sub(completed) as usize
    }

    /// Flush the calling thread's local bag and aggressively advance + collect.
    pub fn flush(self: &Arc<Self>) {
        local::flush(self);
        for _ in 0..3 {
            self.try_advance();
            self.collect();
        }
    }

    /// Repeatedly flushes, advances, and collects until every deferred destructor has run
    /// or no progress can be made. Returns the number of deferred destructors that have
    /// not finished running.
    ///
    /// The count covers every destructor deferred into this domain by *any* thread: those
    /// in the global queue, those still in another thread's unflushed local bag, and those
    /// another thread's collection has taken from the queue but not finished running. A
    /// return of **0 means exactly that every destructor deferred into this domain before
    /// the final check — including any work those destructors deferred in turn — has run
    /// to completion.** A non-zero return means work is outstanding that this call cannot
    /// finish: a stale pin blocks the epoch, another thread holds deferrals in its local
    /// bag (it flushes them when its bag fills, on [`Domain::flush`], or when it exits),
    /// or another thread is still running a destructor.
    ///
    /// Unlike [`Domain::flush`], this follows *cascades*: a deferred destructor that itself
    /// defers more work (e.g. reference-counted data nodes retiring their children) is
    /// driven to completion, however deep the chain. Intended for quiescent points — tests,
    /// teardown, the end of a benchmark phase — where exact reclamation accounting matters.
    pub fn drain(self: &Arc<Self>) -> usize {
        let mut stalled_rounds = 0;
        // ORDERING: progress-heuristic — `drain` only compares this counter against a later
        // read of itself to decide when to stop retrying; staleness is self-correcting.
        let mut last_collected = self.collected_count.load(Ordering::Relaxed);
        loop {
            local::flush(self);
            if self.outstanding() == 0 {
                return 0;
            }
            self.try_advance();
            self.try_advance();
            self.collect();
            // ORDERING: progress-heuristic — see above.
            let collected = self.collected_count.load(Ordering::Relaxed);
            if collected == last_collected {
                // Neither of the two advances unblocked anything: a stale pin elsewhere.
                stalled_rounds += 1;
                if stalled_rounds >= 3 {
                    return self.outstanding();
                }
            } else {
                stalled_rounds = 0;
            }
            last_collected = collected;
        }
    }

    /// Returns reclamation counters.
    pub fn stats(&self) -> DomainStats {
        DomainStats {
            epoch: self.global_epoch.load(Ordering::SeqCst),
            // ORDERING: diag-counter — statistics only, never drives reclamation decisions.
            deferred: self.deferred_count.load(Ordering::Relaxed),
            collected: self.collected_count.load(Ordering::Acquire),
            pending: self.garbage.lock().queue.len(),
            participants: self.participants.lock().len(),
        }
    }
}

impl Default for Domain {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Domain {
    fn drop(&mut self) {
        // Nothing can be pinned in a domain that is being dropped; run all remaining
        // destructors so retired nodes are not leaked.
        let garbage = std::mem::take(&mut self.garbage.lock().queue);
        for (_, d) in garbage {
            d.call();
        }
    }
}

impl std::fmt::Debug for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Domain").field("id", &self.id).field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_advances_when_unpinned() {
        let d = Arc::new(Domain::new());
        let before = d.stats().epoch;
        assert!(d.try_advance());
        assert_eq!(d.stats().epoch, before + 1);
    }

    #[test]
    fn epoch_blocked_by_stale_pin() {
        let d = Arc::new(Domain::new());
        let _g = d.pin();
        // The pinned thread announced the current epoch, so one advance succeeds...
        assert!(d.try_advance());
        // ...but a second advance is blocked because the announcement is now stale.
        assert!(!d.try_advance());
    }

    #[test]
    fn stats_track_deferred_and_collected() {
        let d = Arc::new(Domain::new());
        {
            let g = d.pin();
            g.defer(|| {});
            g.defer(|| {});
        }
        d.flush();
        d.flush();
        let s = d.stats();
        assert_eq!(s.deferred, 2);
        assert_eq!(s.collected, 2);
        assert_eq!(s.pending, 0);
    }

    #[test]
    fn drain_counts_another_threads_unflushed_bag() {
        const HELD: usize = 3;
        const _: () = assert!(HELD < LOCAL_BAG_THRESHOLD, "the items must stay in the local bag");
        let d = Arc::new(Domain::new());
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (exit_tx, exit_rx) = std::sync::mpsc::channel::<()>();
        let d2 = d.clone();
        let holder = std::thread::spawn(move || {
            {
                let g = d2.pin();
                for _ in 0..HELD {
                    g.defer(|| {});
                }
            }
            held_tx.send(()).unwrap();
            // Exiting drops the thread's local handle, which flushes the bag.
            exit_rx.recv().unwrap();
        });
        held_rx.recv().unwrap();
        assert_eq!(d.drain(), HELD, "deferrals in another thread's bag are outstanding");
        exit_tx.send(()).unwrap();
        holder.join().unwrap();
        assert_eq!(d.drain(), 0, "the exited thread's bag was flushed and collected");
        let s = d.stats();
        assert_eq!(s.collected, HELD as u64);
    }

    #[test]
    fn drain_waits_for_a_destructor_running_in_another_threads_collect() {
        let d = Arc::new(Domain::new());
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (finish_tx, finish_rx) = std::sync::mpsc::channel::<()>();
        let d2 = d.clone();
        let collector = std::thread::spawn(move || {
            {
                let g = d2.pin();
                g.defer(move || {
                    started_tx.send(()).unwrap();
                    finish_rx.recv().unwrap();
                });
            }
            // Two epoch advances make the item eligible; this thread's `collect` runs it
            // and blocks inside the destructor until the main thread lets it finish.
            d2.flush();
        });
        started_rx.recv().unwrap();
        assert_eq!(d.stats().pending, 0, "the destructor has left the global queue");
        assert_eq!(d.drain(), 1, "a destructor still running is outstanding");
        finish_tx.send(()).unwrap();
        collector.join().unwrap();
        assert_eq!(d.drain(), 0);
    }

    #[test]
    fn domain_drop_runs_pending_garbage() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        {
            let d = Arc::new(Domain::new());
            let d2 = d.clone();
            // Defer on a separate thread; when the thread exits its local handle flushes the
            // bag into the domain's global queue and releases its Arc on the domain.
            std::thread::spawn(move || {
                let g = d2.pin();
                g.defer(|| {
                    DROPS.fetch_add(1, Ordering::SeqCst);
                });
            })
            .join()
            .unwrap();
            assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        }
        // Dropping the last Arc drops the Domain, which must run what remains.
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }
}
