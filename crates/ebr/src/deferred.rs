//! Type-erased deferred destructors, stored without a heap allocation when they are small.
//!
//! A reclamation closure usually captures one or two words (a node pointer, a camera
//! handle), so a `Deferred` keeps closures of up to [`INLINE_WORDS`] words inline, next to
//! a function pointer that knows their type. Only a larger (or over-aligned) closure is
//! boxed, and the box pointer is then the inline capture.

use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::ptr;

/// Words of closure capture a `Deferred` stores without allocating.
pub(crate) const INLINE_WORDS: usize = 3;

type Data = MaybeUninit<[usize; INLINE_WORDS]>;

/// A deferred function, executed once the epoch machinery proves no pinned reader can still
/// hold a reference to the memory it frees.
///
/// Dropping a `Deferred` without calling it does not run the function, but does drop
/// whatever the closure captured.
pub struct Deferred {
    /// Consumes the closure stored in `data`: runs it when the flag is `true`, drops it
    /// otherwise. Monomorphized for the closure's type by `Deferred::store`.
    // SAFETY: called exactly once, on the closure `store` wrote (by `call` or `Drop`).
    consume: unsafe fn(*mut Data, bool),
    data: Data,
}

// SAFETY: a `Deferred` built from `Deferred::new` only wraps `Send` closures. One built from
// `Deferred::new_unchecked` may wrap a non-`Send` closure (typically one capturing a raw
// pointer to a retired node); the unsafe contract of that constructor makes the caller
// responsible for the closure being safe to run on another thread.
unsafe impl Send for Deferred {}

/// Whether a closure of type `F` fits the inline storage.
const fn fits<F>() -> bool {
    size_of::<F>() <= size_of::<Data>() && align_of::<F>() <= align_of::<Data>()
}

/// Reads the closure of type `F` out of `data` and runs or drops it.
///
/// # Safety
/// `data` must hold an initialized `F` written by `Deferred::store`, consumed at most once.
unsafe fn consume<F: FnOnce()>(data: *mut Data, run: bool) {
    let f = ptr::read(data.cast::<F>());
    if run {
        f();
    }
}

impl Deferred {
    /// Wraps a `Send` closure.
    pub fn new<F: FnOnce() + Send + 'static>(f: F) -> Self {
        // SAFETY: `F: Send`, so running it on another thread is sound.
        unsafe { Self::new_unchecked(f) }
    }

    /// Wraps a closure without requiring `Send`.
    ///
    /// # Safety
    /// The closure will be executed on an arbitrary thread; the caller must guarantee that
    /// doing so is sound (which is the usual situation for "free this now-unreachable node").
    pub unsafe fn new_unchecked<F: FnOnce() + 'static>(f: F) -> Self {
        if fits::<F>() {
            Self::store(f)
        } else {
            Self::store(Box::new(f))
        }
    }

    /// Moves `f` into the inline storage.
    ///
    /// # Safety
    /// `F` must fit ([`fits`]); the constructors only call this on a branch that checked it.
    unsafe fn store<F: FnOnce()>(f: F) -> Self {
        debug_assert!(fits::<F>());
        let mut data = Data::uninit();
        ptr::write(data.as_mut_ptr().cast::<F>(), f);
        Deferred { consume: consume::<F>, data }
    }

    /// Executes the deferred function (exactly once: `self` is consumed).
    pub fn call(self) {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `data` holds the closure `consume` was built for, and `ManuallyDrop`
        // keeps `Drop` from consuming it a second time.
        unsafe { (this.consume)(&mut this.data, true) }
    }
}

impl Drop for Deferred {
    fn drop(&mut self) {
        // SAFETY: a `Deferred` that was called never reaches `Drop` (see `call`), so the
        // closure is still stored here, and this drops it exactly once without running it.
        unsafe { (self.consume)(&mut self.data, false) }
    }
}

impl std::fmt::Debug for Deferred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Deferred { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn call_runs_exactly_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        let d = Deferred::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        d.call();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropped_without_call_does_not_run() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        let d = Deferred::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        drop(d);
        assert_eq!(counter.load(Ordering::SeqCst), 0);
        assert_eq!(Arc::strong_count(&counter), 1, "the dropped closure's capture was dropped");
    }

    /// Closures of up to three words run from inline storage; a larger one is boxed.
    /// Either way the captures are dropped exactly once, whether the function runs or not.
    #[test]
    fn inline_and_boxed_closures_run_and_drop_their_captures() {
        assert!(fits::<[usize; INLINE_WORDS]>() && !fits::<[usize; INLINE_WORDS + 1]>());
        let token = Arc::new(());
        let sum = Arc::new(AtomicUsize::new(0));
        let small = {
            let (t, s) = (token.clone(), sum.clone());
            Deferred::new(move || {
                let _keep = &t;
                s.fetch_add(1, Ordering::SeqCst);
            })
        };
        let large = {
            let (t, s, pad) = (token.clone(), sum.clone(), [7usize; 4]);
            Deferred::new(move || {
                let _keep = &t;
                s.fetch_add(pad.iter().sum(), Ordering::SeqCst);
            })
        };
        let dropped = {
            let (t, pad) = (token.clone(), [1usize; 4]);
            Deferred::new(move || drop((t, pad)))
        };
        assert_eq!(Arc::strong_count(&token), 4);
        small.call();
        large.call();
        drop(dropped);
        assert_eq!(sum.load(Ordering::SeqCst), 1 + 28);
        assert_eq!(Arc::strong_count(&token), 1, "every capture was dropped once");
    }
}
