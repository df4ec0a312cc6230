//! Per-thread state: the participant announcement, the pin depth, and the local garbage bag.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use crate::deferred::Deferred;
use crate::domain::{Domain, Participant, LOCAL_BAG_THRESHOLD};
use crate::guard::Guard;

/// Thread-local handle onto one domain.
pub(crate) struct LocalInner {
    pub(crate) domain: Arc<Domain>,
    participant: Arc<Participant>,
    pin_depth: Cell<usize>,
    bag: RefCell<Vec<(u64, Deferred)>>,
}

impl LocalInner {
    fn new(domain: &Arc<Domain>) -> Rc<Self> {
        Rc::new(LocalInner {
            domain: domain.clone(),
            participant: domain.register(),
            pin_depth: Cell::new(0),
            bag: RefCell::new(Vec::with_capacity(LOCAL_BAG_THRESHOLD)),
        })
    }

    pub(crate) fn acquire(&self) {
        let depth = self.pin_depth.get();
        if depth == 0 {
            let epoch = self.domain.global_epoch();
            self.participant.set_pinned(epoch);
            // The announcement must be globally visible before we read any shared pointers;
            // `set_pinned` uses a SeqCst store and the loads that follow in data-structure
            // code are at least Acquire, which together with the SeqCst fence below gives the
            // ordering the advance protocol relies on.
            crate::sync::fence(crate::sync::Ordering::SeqCst);
        }
        self.pin_depth.set(depth + 1);
    }

    pub(crate) fn release(&self) {
        let depth = self.pin_depth.get();
        debug_assert!(depth > 0);
        if depth == 1 {
            self.participant.set_unpinned();
        }
        self.pin_depth.set(depth - 1);
    }

    pub(crate) fn defer(&self, d: Deferred) {
        self.participant.note_deferred();
        let epoch = self.domain.global_epoch();
        let should_flush = {
            let mut bag = self.bag.borrow_mut();
            bag.push((epoch, d));
            bag.len() >= LOCAL_BAG_THRESHOLD
        };
        if should_flush {
            self.flush_bag();
            self.domain.try_advance();
            self.domain.collect();
        }
    }

    pub(crate) fn flush_bag(&self) {
        let mut bag = self.bag.borrow_mut();
        self.domain.push_garbage(&mut bag);
    }
}

impl Drop for LocalInner {
    fn drop(&mut self) {
        // The owning thread is exiting (or the thread-local registry is being cleared):
        // surrender any not-yet-flushed garbage and retire the participant slot.
        self.flush_bag();
        self.participant.set_defunct();
    }
}

thread_local! {
    /// Registry of this thread's local handles, keyed by domain id. Threads typically touch
    /// one or two domains, so a tiny vector beats a hash map.
    static LOCALS: RefCell<Vec<(u64, Rc<LocalInner>)>> = const { RefCell::new(Vec::new()) };
}

fn with_local<R>(domain: &Arc<Domain>, f: impl FnOnce(&Rc<LocalInner>) -> R) -> R {
    LOCALS.with(|locals| {
        let mut locals = locals.borrow_mut();
        if let Some((_, local)) = locals.iter().find(|(id, _)| *id == domain.id()) {
            let local = local.clone();
            drop(locals);
            return f(&local);
        }
        let local = LocalInner::new(domain);
        locals.push((domain.id(), local.clone()));
        drop(locals);
        f(&local)
    })
}

/// Pins the current thread in `domain`.
pub(crate) fn pin(domain: &Arc<Domain>) -> Guard {
    with_local(domain, |local| {
        local.acquire();
        Guard::new(local.clone())
    })
}

/// Flushes the current thread's bag for `domain`.
pub(crate) fn flush(domain: &Arc<Domain>) {
    with_local(domain, |local| local.flush_bag());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_pins_share_announcement() {
        let d = Arc::new(Domain::new());
        let g1 = d.pin();
        let g2 = d.pin();
        drop(g1);
        // Still pinned through g2: the epoch cannot advance twice.
        assert!(d.try_advance());
        assert!(!d.try_advance());
        drop(g2);
        assert!(d.try_advance());
    }

    #[test]
    fn two_domains_have_independent_locals() {
        let d1 = Arc::new(Domain::new());
        let d2 = Arc::new(Domain::new());
        let _g1 = d1.pin();
        // Pinning in d1 must not block d2's epoch.
        assert!(d2.try_advance());
        assert!(d2.try_advance());
    }
}
