//! The Michael–Scott queue (§4 "FIFO Queue", Appendix E), generic over the pointer-cell
//! [`Mode`]: `MsQueue<Plain>` ([`MsQueue::new_plain`]) is the original queue,
//! `MsQueue<Versioned>` (the default, [`MsQueue::new_versioned`]) the snapshot-capable
//! `VcasQueue`.
//!
//! The mutable state is the `head` pointer, the `tail` pointer, and each node's `next`
//! pointer. Versioning those three kinds of pointers lets a snapshot capture the whole queue
//! state, so queries such as "the i-th element", "both end points", or a full scan can be
//! answered atomically while enqueues and dequeues proceed concurrently.

use std::mem::ManuallyDrop;
use std::sync::Arc;

use vcas_core::sync::Ordering;

use vcas_core::{Camera, Mode, Plain, PointerCell, SnapshotHandle, Versioned};
use vcas_ebr::{pin, Atomic, Guard, Owned, Shared};

use crate::traits::Value;

struct Node<M: Mode> {
    value: Value,
    /// Taken when the queue drops and frees the node.
    next: ManuallyDrop<QueueCell<M>>,
}

/// The queue's cells carry no value hook: versioned mode frees nodes only when the queue
/// drops, destroying their cells with the mode's camera.
type QueueCell<M> = <M as Mode>::Cell<Node<M>, ()>;

/// A cell holding `init`; an unhooked cell never refuses a pointer.
fn cell<M: Mode>(mode: &M, init: Shared<'_, Node<M>>) -> ManuallyDrop<QueueCell<M>> {
    ManuallyDrop::new(mode.cell(init).expect("an unhooked cell accepts every pointer"))
}

/// The Michael–Scott concurrent FIFO queue (see module docs), `VcasQueue` unless `M` is
/// [`Plain`].
pub struct MsQueue<M: Mode = Versioned> {
    /// `head` and `tail` are taken by `Drop`, which destroys them with the mode's camera.
    head: ManuallyDrop<QueueCell<M>>,
    tail: ManuallyDrop<QueueCell<M>>,
    /// The construction dummy. A node's `next` is set once, so every node ever enqueued
    /// lies on one `next` chain from here; versioned mode never frees a dequeued node, so
    /// `Drop` frees that whole chain. (Plain mode defers each dequeued dummy instead and
    /// never reads this.)
    first: Atomic<Node<M>>,
    mode: M,
}

impl MsQueue<Plain> {
    /// The original, unversioned queue.
    pub fn new_plain() -> MsQueue<Plain> {
        Self::with_mode(Plain)
    }
}

impl MsQueue {
    /// The snapshot-capable queue (`VcasQueue`).
    pub fn new_versioned(camera: &Arc<Camera>) -> MsQueue {
        Self::with_mode(Versioned::new(camera))
    }

    /// A snapshot-capable queue with a private camera.
    pub fn new_versioned_default() -> MsQueue {
        Self::new_versioned(&Camera::new())
    }
}

impl<M: Mode> MsQueue<M> {
    fn with_mode(mode: M) -> MsQueue<M> {
        let guard = pin();
        // The queue always contains a dummy node; head points at it, tail at the last node.
        let dummy =
            Owned::new(Node { value: 0, next: cell(&mode, Shared::null()) }).into_shared(&guard);
        MsQueue {
            head: cell(&mode, dummy),
            tail: cell(&mode, dummy),
            first: Atomic::from_shared(dummy),
            mode,
        }
    }

    /// The camera associated with a versioned queue.
    pub fn camera(&self) -> Option<&Arc<Camera>> {
        self.mode.camera()
    }

    /// Short name used in benchmark output.
    pub fn name(&self) -> &'static str {
        if M::VERSIONED {
            "VcasQueue"
        } else {
            "MSQueue"
        }
    }

    /// Appends `value` at the tail of the queue.
    pub fn enqueue(&self, value: Value) {
        let guard = pin();
        let new =
            Owned::new(Node { value, next: cell(&self.mode, Shared::null()) }).into_shared(&guard);
        let mut attempts = 0u32;
        loop {
            let tail = self.tail.load(&self.mode, &guard);
            // SAFETY: `tail` is never null (the dummy node exists from construction) and
            // unlinked nodes are only reclaimed through `guard`-deferred destruction.
            let tail_ref = unsafe { tail.deref() };
            let next = tail_ref.next.load(&self.mode, &guard);
            if !next.is_null() {
                // Tail is falling behind: help advance it, then retry. No backoff — either
                // our CAS or a competitor's advanced the tail, so progress was just made.
                self.tail.compare_exchange(&self.mode, tail, next, &guard);
                continue;
            }
            if tail_ref.next.compare_exchange(&self.mode, Shared::null(), new, &guard) {
                // Linearization point; swing the tail (may be done by a helper instead).
                self.tail.compare_exchange(&self.mode, tail, new, &guard);
                return;
            }
            // Lost the link CAS to a concurrent enqueue: back off before retrying.
            crate::backoff(&mut attempts);
        }
    }

    /// Removes and returns the oldest element, or `None` if the queue is empty.
    pub fn dequeue(&self) -> Option<Value> {
        let guard = pin();
        let mut attempts = 0u32;
        loop {
            let head = self.head.load(&self.mode, &guard);
            let tail = self.tail.load(&self.mode, &guard);
            // SAFETY: `head` is never null (it always points at the dummy) and is
            // epoch-protected while `guard` is live.
            let head_ref = unsafe { head.deref() };
            let next = head_ref.next.load(&self.mode, &guard);
            if head == tail {
                if next.is_null() {
                    return None;
                }
                // Tail is falling behind: help. No backoff — the tail just advanced.
                self.tail.compare_exchange(&self.mode, tail, next, &guard);
                continue;
            }
            // SAFETY: `head != tail` with the queue's invariant (head trails tail) means
            // `next` is non-null; it stays epoch-protected while `guard` is live.
            let next_ref = unsafe { next.deref() };
            let value = next_ref.value;
            if self.head.compare_exchange(&self.mode, head, next, &guard) {
                if !M::VERSIONED {
                    // SAFETY: the CAS unlinked the old dummy exactly once (plain mode
                    // never re-links it); in-flight readers are epoch-protected.
                    unsafe { guard.defer_destroy(head) };
                }
                return Some(value);
            }
            // Lost the head CAS to a concurrent dequeue: back off before retrying.
            crate::backoff(&mut attempts);
        }
    }

    // ----- snapshot queries --------------------------------------------------------------

    /// The snapshot a query reads at (`None`: the current state, in plain mode).
    fn view_for_query(&self) -> Option<SnapshotHandle> {
        self.mode.camera().map(|camera| camera.take_snapshot())
    }

    fn collect_view(&self, at: Option<SnapshotHandle>, guard: &Guard) -> Vec<Value> {
        // Elements are the nodes after the dummy pointed to by head, in order.
        let head = self.head.load_at(&self.mode, at, guard);
        let mut out = Vec::new();
        // SAFETY: every retained head version is non-null (a dummy or former dummy), and
        // versioned mode never frees unlinked nodes while their versions are retained.
        let mut curr = unsafe { head.deref() }.next.load_at(&self.mode, at, guard);
        // SAFETY: snapshot links resolve to nodes kept alive by their version references
        // (or, in plain mode, by `guard`'s epoch protection).
        while let Some(node) = unsafe { curr.as_ref() } {
            out.push(node.value);
            curr = node.next.load_at(&self.mode, at, guard);
        }
        out
    }

    /// Atomic scan: every element currently in the queue, oldest first.
    pub fn scan(&self) -> Vec<Value> {
        let at = self.view_for_query();
        let guard = pin();
        self.collect_view(at, &guard)
    }

    /// Atomic i-th element query (0 = oldest). Time O(i + c) with c concurrent dequeues.
    pub fn ith(&self, i: usize) -> Option<Value> {
        let at = self.view_for_query();
        let guard = pin();
        let head = self.head.load_at(&self.mode, at, &guard);
        // SAFETY: as in `collect_view` — retained head versions are non-null and their
        // nodes outlive the versions pointing at them.
        let mut curr = unsafe { head.deref() }.next.load_at(&self.mode, at, &guard);
        let mut index = 0usize;
        // SAFETY: as in `collect_view`'s walk.
        while let Some(node) = unsafe { curr.as_ref() } {
            if index == i {
                return Some(node.value);
            }
            index += 1;
            curr = node.next.load_at(&self.mode, at, &guard);
        }
        None
    }

    /// Atomic query returning both end points of the queue `(oldest, newest)`.
    pub fn peek_end_points(&self) -> (Option<Value>, Option<Value>) {
        let at = self.view_for_query();
        let guard = pin();
        let elements = self.collect_view(at, &guard);
        (elements.first().copied(), elements.last().copied())
    }

    /// Atomic length query.
    pub fn len(&self) -> usize {
        let at = self.view_for_query();
        let guard = pin();
        self.collect_view(at, &guard).len()
    }

    /// Is the queue empty (atomically)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<M: Mode> Drop for MsQueue<M> {
    fn drop(&mut self) {
        let guard = pin();
        let mode = &self.mode;
        // Versioned mode frees every node ever enqueued, from `first` (elision has
        // unlinked the head versions naming dequeued dummies, so `head` no longer reaches
        // them). Plain mode deferred each dequeued dummy; only the chain from `head` is left.
        let mut curr = if !M::VERSIONED {
            self.head.load(mode, &guard)
        } else {
            self.first.load(Ordering::SeqCst, &guard)
        };
        while !curr.is_null() {
            // SAFETY: `&mut self` in `drop` means no concurrent access; every node on the
            // chain is still allocated (versioned mode frees nodes only here, plain mode
            // only the dummies before `head`) and appears on it exactly once.
            let mut node = unsafe { Box::from_raw(curr.as_raw()) };
            curr = node.next.load(mode, &guard);
            // SAFETY: the node is freed below and its cell is not used again.
            let next = unsafe { ManuallyDrop::take(&mut node.next) };
            if let Some(camera) = mode.camera() {
                next.destroy(camera);
            }
        }
        // SAFETY: `drop` runs once and neither field is used afterwards.
        let head = unsafe { ManuallyDrop::take(&mut self.head) };
        // SAFETY: as above.
        let tail = unsafe { ManuallyDrop::take(&mut self.tail) };
        if let Some(camera) = mode.camera() {
            head.destroy(camera);
            tail.destroy(camera);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values carrying this bit are counted by [`TAGGED_DROPS`] when their node is freed;
    /// no other test enqueues them, so concurrent tests cannot disturb the count.
    const TAG: u64 = 1 << 63;

    thread_local! {
        static TAGGED_DROPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    impl<M: Mode> Drop for Node<M> {
        fn drop(&mut self) {
            if self.value & TAG != 0 {
                TAGGED_DROPS.with(|n| n.set(n.get() + 1));
            }
        }
    }

    /// Versioned mode frees no node while the queue lives, so dropping the queue must free
    /// every node ever enqueued, dequeued or not.
    #[test]
    fn versioned_drop_frees_every_node() {
        let drops = || TAGGED_DROPS.with(|n| n.get());
        let q = MsQueue::new_versioned_default();
        for i in 0..100u64 {
            q.enqueue(TAG | i);
            if i % 3 == 0 {
                q.camera().unwrap().take_snapshot();
            }
        }
        for _ in 0..60 {
            q.dequeue();
        }
        assert_eq!(drops(), 0, "versioned mode freed a node while the queue lived");
        drop(q);
        assert_eq!(drops(), 100, "every enqueued node is freed exactly once");
    }

    fn plain() -> MsQueue<Plain> {
        MsQueue::new_plain()
    }

    fn versioned() -> MsQueue {
        MsQueue::new_versioned_default()
    }

    #[test]
    fn fifo_order_sequential() {
        for_both_modes!(|q| {
            assert!(q.is_empty());
            assert_eq!(q.dequeue(), None);
            for i in 0..10u64 {
                q.enqueue(i);
            }
            assert_eq!(q.len(), 10);
            assert_eq!(q.scan(), (0..10u64).collect::<Vec<_>>());
            assert_eq!(q.ith(0), Some(0));
            assert_eq!(q.ith(9), Some(9));
            assert_eq!(q.ith(10), None);
            assert_eq!(q.peek_end_points(), (Some(0), Some(9)));
            for i in 0..10u64 {
                assert_eq!(q.dequeue(), Some(i));
            }
            assert_eq!(q.dequeue(), None);
            assert_eq!(q.peek_end_points(), (None, None));
        });
    }

    #[test]
    fn concurrent_producers_consumers_preserve_multiset() {
        for_both_modes!(|q| {
            let q = Arc::new(q);
            let produced: u64 = 4 * 2000;
            let consumed = Arc::new(vcas_core::sync::AtomicU64::new(0));
            let sum = Arc::new(vcas_core::sync::AtomicU64::new(0));
            let mut handles = Vec::new();
            for t in 0..4u64 {
                let q = q.clone();
                handles.push(std::thread::spawn(move || {
                    for i in 0..2000u64 {
                        q.enqueue(t * 2000 + i);
                    }
                }));
            }
            for _ in 0..4 {
                let q = q.clone();
                let consumed = consumed.clone();
                let sum = sum.clone();
                handles.push(std::thread::spawn(move || loop {
                    // ORDERING: diag-counter — test tallies; exactness is only asserted
                    // after the joins below, which synchronize.
                    if consumed.load(Ordering::Relaxed) >= produced {
                        break;
                    }
                    if let Some(v) = q.dequeue() {
                        // ORDERING: diag-counter — as above.
                        consumed.fetch_add(1, Ordering::Relaxed);
                        // ORDERING: diag-counter — as above.
                        sum.fetch_add(v, Ordering::Relaxed);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            // ORDERING: diag-counter — read after every worker joined.
            assert_eq!(consumed.load(Ordering::Relaxed), produced);
            // ORDERING: diag-counter — as above.
            assert_eq!(sum.load(Ordering::Relaxed), (0..produced).sum::<u64>());
            assert!(q.is_empty());
        });
    }

    #[test]
    fn snapshot_scan_is_a_contiguous_window() {
        // One producer enqueues 0,1,2,... and one consumer dequeues in order; every atomic
        // scan must therefore be a contiguous run of integers.
        let q = Arc::new(MsQueue::new_versioned_default());
        let stop = Arc::new(vcas_core::sync::AtomicBool::new(false));
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || {
                for i in 0..4000u64 {
                    q.enqueue(i);
                }
            })
        };
        let consumer = {
            let q = q.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                // ORDERING: stop-flag — the consumer only needs to see the flag
                // eventually; the join below synchronizes everything else.
                while !stop.load(Ordering::Relaxed) {
                    q.dequeue();
                }
            })
        };
        for _ in 0..200 {
            let scan = q.scan();
            for w in scan.windows(2) {
                assert_eq!(w[1], w[0] + 1, "scan must be a contiguous window of the stream");
            }
        }
        producer.join().unwrap();
        // ORDERING: stop-flag — as above.
        stop.store(true, Ordering::Relaxed);
        consumer.join().unwrap();
    }
}
