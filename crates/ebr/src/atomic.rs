//! Tagged atomic pointers: [`Atomic`], [`Owned`], and [`Shared`].
//!
//! An [`Atomic<T>`] is a word-sized atomic cell holding a (possibly null) pointer to a
//! heap-allocated `T` together with a small *tag* packed into the pointer's unused alignment
//! bits. Tags are how lock-free lists and trees encode state transitions on the pointer
//! itself (Harris's delete mark, the NBBST's flag/mark states), so that a single CAS changes
//! pointer and state atomically.

use crate::sync::{AtomicUsize, Ordering};
use std::fmt;
use std::marker::PhantomData;
use std::mem;

use crate::guard::Guard;

/// Number of low bits usable as a tag for pointers to `T` (derived from alignment).
#[inline]
pub(crate) fn low_bits<T>() -> usize {
    mem::align_of::<T>() - 1
}

#[inline]
fn ensure_aligned<T>(raw: usize) {
    debug_assert_eq!(raw & low_bits::<T>(), 0, "pointer is not properly aligned");
}

/// Packs a raw pointer and a tag into a single word.
#[inline]
fn compose<T>(raw: usize, tag: usize) -> usize {
    ensure_aligned::<T>(raw);
    raw | (tag & low_bits::<T>())
}

/// Splits a word into (raw pointer, tag).
#[inline]
fn decompose<T>(data: usize) -> (usize, usize) {
    (data & !low_bits::<T>(), data & low_bits::<T>())
}

/// An owned, heap-allocated value that has not yet been published to shared memory.
///
/// Converting an `Owned` into a [`Shared`] (with [`Owned::into_shared`]) relinquishes
/// ownership; if the publication CAS fails, take ownership back with
/// [`Shared::into_owned`] so the allocation is freed.
pub struct Owned<T> {
    data: usize,
    _marker: PhantomData<Box<T>>,
}

// SAFETY: `Owned<T>` is a unique owner of a heap allocation of `T` (semantically a
// `Box<T>` with a tag), so it is `Send` exactly when `T` is.
unsafe impl<T: Send> Send for Owned<T> {}

impl<T> Owned<T> {
    /// Allocates `value` on the heap.
    pub fn new(value: T) -> Self {
        let raw = Box::into_raw(Box::new(value)) as usize;
        Owned { data: compose::<T>(raw, 0), _marker: PhantomData }
    }

    /// Creates an `Owned` from a raw pointer previously produced by `Box::into_raw`.
    ///
    /// # Safety
    /// The pointer must be non-null, properly aligned and uniquely owned.
    pub unsafe fn from_raw(raw: *mut T) -> Self {
        Owned { data: compose::<T>(raw as usize, 0), _marker: PhantomData }
    }

    /// Consumes the `Owned`, returning its raw pointer without freeing the allocation
    /// (the inverse of [`Owned::from_raw`]; any tag is discarded). The caller becomes
    /// responsible for the allocation.
    pub fn into_raw(self) -> *mut T {
        let (raw, _) = decompose::<T>(self.data);
        mem::forget(self);
        raw as *mut T
    }

    /// Returns the tag stored in the unused low bits.
    pub fn tag(&self) -> usize {
        decompose::<T>(self.data).1
    }

    /// Returns the same allocation with the tag replaced by `tag`.
    pub fn with_tag(self, tag: usize) -> Self {
        let (raw, _) = decompose::<T>(self.data);
        let out = Owned { data: compose::<T>(raw, tag), _marker: PhantomData };
        mem::forget(self);
        out
    }

    /// Publishes the allocation, returning a [`Shared`] bound to `guard`'s lifetime.
    ///
    /// Ownership is relinquished: the allocation will only be freed if it is later retired
    /// (or re-acquired with [`Shared::into_owned`]).
    pub fn into_shared<'g>(self, _guard: &'g Guard) -> Shared<'g, T> {
        let data = self.data;
        mem::forget(self);
        Shared { data, _marker: PhantomData }
    }

    /// Returns a mutable reference to the boxed value.
    // Mirrors crossbeam-epoch's inherent method of the same name; implementing the
    // `AsMut` trait instead would change call-site inference for tagged pointers.
    #[allow(clippy::should_implement_trait)]
    pub fn as_mut(&mut self) -> &mut T {
        let (raw, _) = decompose::<T>(self.data);
        // SAFETY: an `Owned` always holds a unique, live, properly aligned allocation
        // (invariant of its constructors), and `&mut self` proves exclusivity.
        unsafe { &mut *(raw as *mut T) }
    }

    /// Returns a shared reference to the boxed value.
    // See `as_mut` above.
    #[allow(clippy::should_implement_trait)]
    pub fn as_ref(&self) -> &T {
        let (raw, _) = decompose::<T>(self.data);
        // SAFETY: as in `as_mut`: the allocation is live and uniquely owned by `self`.
        unsafe { &*(raw as *const T) }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        let (raw, _) = decompose::<T>(self.data);
        if raw != 0 {
            // SAFETY: the allocation came from `Box::into_raw` in a constructor and
            // ownership was never relinquished (`into_shared` forgets `self` first).
            unsafe { drop(Box::from_raw(raw as *mut T)) }
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Owned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Owned").field("value", self.as_ref()).field("tag", &self.tag()).finish()
    }
}

/// A pointer (plus tag) loaded from an [`Atomic`], valid for the lifetime of the [`Guard`]
/// it was loaded under.
pub struct Shared<'g, T> {
    data: usize,
    _marker: PhantomData<(&'g (), *const T)>,
}

impl<'g, T> Clone for Shared<'g, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'g, T> Copy for Shared<'g, T> {}

impl<'g, T> Shared<'g, T> {
    /// The null pointer (tag 0).
    pub fn null() -> Self {
        Shared { data: 0, _marker: PhantomData }
    }

    /// Creates a `Shared` from a raw word (pointer | tag).
    ///
    /// # Safety
    /// The word must have been produced by this module's pointer packing for type `T`, and
    /// the pointee (if non-null) must be protected by the current guard.
    pub unsafe fn from_data(data: usize) -> Self {
        Shared { data, _marker: PhantomData }
    }

    /// Returns the packed word (pointer | tag). Useful for hashing / equality in tests.
    pub fn into_data(self) -> usize {
        self.data
    }

    /// Returns the untagged raw pointer.
    pub fn as_raw(&self) -> *mut T {
        decompose::<T>(self.data).0 as *mut T
    }

    /// Is the (untagged) pointer null?
    pub fn is_null(&self) -> bool {
        decompose::<T>(self.data).0 == 0
    }

    /// Returns the tag.
    pub fn tag(&self) -> usize {
        decompose::<T>(self.data).1
    }

    /// Returns the same pointer with the tag replaced by `tag`.
    pub fn with_tag(&self, tag: usize) -> Shared<'g, T> {
        let (raw, _) = decompose::<T>(self.data);
        Shared { data: compose::<T>(raw, tag), _marker: PhantomData }
    }

    /// Dereferences the pointer.
    ///
    /// # Safety
    /// The pointer must be non-null and must point to memory that is still protected (loaded
    /// under the current guard and not yet reclaimed).
    pub unsafe fn deref(&self) -> &'g T {
        &*(self.as_raw() as *const T)
    }

    /// Like [`Shared::deref`] but returns `None` for null.
    ///
    /// # Safety
    /// Same requirements as [`Shared::deref`] for the non-null case.
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        let raw = self.as_raw();
        if raw.is_null() {
            None
        } else {
            Some(&*(raw as *const T))
        }
    }

    /// Takes back ownership of the allocation (e.g. after a failed publication CAS).
    ///
    /// # Safety
    /// The pointer must be non-null, must have come from an [`Owned`]/`Box`, and no other
    /// thread may be able to reach it.
    pub unsafe fn into_owned(self) -> Owned<T> {
        debug_assert!(!self.is_null());
        Owned { data: compose::<T>(self.as_raw() as usize, 0), _marker: PhantomData }
    }

    /// Pointer equality (ignores nothing: tag is part of the comparison).
    pub fn ptr_eq(&self, other: &Shared<'_, T>) -> bool {
        self.data == other.data
    }
}

impl<'g, T> PartialEq for Shared<'g, T> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}
impl<'g, T> Eq for Shared<'g, T> {}

impl<'g, T> fmt::Debug for Shared<'g, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared").field("raw", &self.as_raw()).field("tag", &self.tag()).finish()
    }
}

/// Error returned by a failed [`Atomic::compare_exchange`].
#[derive(Debug)]
pub struct CompareExchangeError<'g, T> {
    /// The value actually found in the atomic.
    pub current: Shared<'g, T>,
    /// The value that we attempted to install (returned so the caller can reclaim it).
    pub new: Shared<'g, T>,
}

/// A word-sized atomic cell holding a tagged pointer to `T`.
pub struct Atomic<T> {
    data: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

// SAFETY: an `Atomic<T>` is a shared handle to a heap-allocated `T` that may be read
// and replaced from any thread; that is sound exactly when `&T` can be shared across
// threads (`T: Sync`) and the boxed value can be dropped on another thread (`T: Send`).
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
// SAFETY: see the `Send` impl above; `&Atomic<T>` only exposes operations that are
// themselves atomic.
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// A null pointer with tag 0.
    pub fn null() -> Self {
        Atomic { data: AtomicUsize::new(0), _marker: PhantomData }
    }

    /// Allocates `value` and stores a pointer to it (tag 0).
    pub fn new(value: T) -> Self {
        let raw = Box::into_raw(Box::new(value)) as usize;
        Atomic { data: AtomicUsize::new(compose::<T>(raw, 0)), _marker: PhantomData }
    }

    /// Creates an `Atomic` directly from an [`Owned`].
    pub fn from_owned(owned: Owned<T>) -> Self {
        let data = owned.data;
        mem::forget(owned);
        Atomic { data: AtomicUsize::new(data), _marker: PhantomData }
    }

    /// Creates an `Atomic` holding the same tagged pointer as `shared`.
    ///
    /// This is how linked structures record an existing node as the successor of a new node
    /// (e.g. a version list's `nextv` field); it does not affect ownership or reclamation.
    pub fn from_shared(shared: Shared<'_, T>) -> Self {
        Atomic { data: AtomicUsize::new(shared.data), _marker: PhantomData }
    }

    /// Loads the current tagged pointer.
    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared { data: self.data.load(ord), _marker: PhantomData }
    }

    /// Stores a shared pointer (used for initialization and single-writer fields).
    pub fn store(&self, new: Shared<'_, T>, ord: Ordering) {
        self.data.store(new.data, ord);
    }

    /// Stores an owned value, relinquishing ownership to the cell.
    pub fn store_owned(&self, new: Owned<T>, ord: Ordering) {
        let data = new.data;
        mem::forget(new);
        self.data.store(data, ord);
    }

    /// Atomically swaps in an owned value, returning the previous tagged pointer.
    pub fn swap<'g>(&self, new: Owned<T>, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        let data = new.data;
        mem::forget(new);
        Shared { data: self.data.swap(data, ord), _marker: PhantomData }
    }

    /// Single-word compare-and-swap on the tagged pointer.
    ///
    /// On success returns the previous value (== `current`); on failure returns the observed
    /// value and hands back `new` so the caller can free or retry.
    pub fn compare_exchange<'g>(
        &self,
        current: Shared<'_, T>,
        new: Shared<'g, T>,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T>> {
        match self.data.compare_exchange(current.data, new.data, success, failure) {
            Ok(prev) => Ok(Shared { data: prev, _marker: PhantomData }),
            Err(found) => Err(CompareExchangeError {
                current: Shared { data: found, _marker: PhantomData },
                new,
            }),
        }
    }

    /// Atomically ORs `tag` into the low bits, returning the previous tagged pointer.
    ///
    /// This is how Harris-style marking is done without knowing the current pointer value.
    pub fn fetch_or<'g>(&self, tag: usize, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        let prev = self.data.fetch_or(tag & low_bits::<T>(), ord);
        Shared { data: prev, _marker: PhantomData }
    }

    /// Atomically ANDs `tag` into the low bits, leaving the pointer unchanged, and returns
    /// the previous tagged pointer: `fetch_and(!bit, ..)` clears `bit` whatever the
    /// current pointer is.
    pub fn fetch_and<'g>(&self, tag: usize, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        let prev = self.data.fetch_and(tag | !low_bits::<T>(), ord);
        Shared { data: prev, _marker: PhantomData }
    }

    /// Loads without a guard.
    ///
    /// # Safety
    /// The caller must guarantee the pointee cannot be reclaimed while the result is used
    /// (e.g. during single-threaded construction, destruction, or under an external pin).
    pub unsafe fn load_unprotected(&self, ord: Ordering) -> Shared<'static, T> {
        Shared { data: self.data.load(ord), _marker: PhantomData }
    }

    /// Takes the value out for destruction.
    ///
    /// # Safety
    /// Callable only when no other thread can access the cell (e.g. in `Drop`).
    pub unsafe fn take(&self) -> Option<Box<T>> {
        // ORDERING: drop-exclusive — callable only with exclusive access (the cell's
        // destructor); there is no concurrent observer to order against.
        let data = self.data.swap(0, Ordering::Relaxed);
        let (raw, _) = decompose::<T>(data);
        if raw == 0 {
            None
        } else {
            Some(Box::from_raw(raw as *mut T))
        }
    }
}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // ORDERING: debug-readout — best-effort snapshot for `Debug` formatting.
        let data = self.data.load(Ordering::Relaxed);
        let (raw, tag) = decompose::<T>(data);
        f.debug_struct("Atomic").field("raw", &(raw as *mut T)).field("tag", &tag).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pin;

    #[test]
    fn tag_roundtrip() {
        let g = pin();
        let a: Atomic<u64> = Atomic::new(7);
        let p = a.load(Ordering::SeqCst, &g);
        assert_eq!(p.tag(), 0);
        let p1 = p.with_tag(1);
        assert_eq!(p1.tag(), 1);
        assert_eq!(p1.as_raw(), p.as_raw());
        assert_eq!(p1.with_tag(0), p);
        // SAFETY: single-threaded test; `p` is the only reference to the allocation.
        unsafe { drop(p.into_owned()) };
    }

    #[test]
    fn null_checks() {
        let g = pin();
        let a: Atomic<u64> = Atomic::null();
        let p = a.load(Ordering::SeqCst, &g);
        assert!(p.is_null());
        // SAFETY: `as_ref` on null merely returns `None`.
        assert!(unsafe { p.as_ref() }.is_none());
        assert_eq!(p, Shared::null());
    }

    #[test]
    fn cas_success_and_failure() {
        let g = pin();
        let a: Atomic<u64> = Atomic::new(1);
        let cur = a.load(Ordering::SeqCst, &g);
        let new = Owned::new(2u64).into_shared(&g);
        let prev =
            a.compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst, &g).expect("cas");
        assert_eq!(prev, cur);
        // SAFETY: the CAS unlinked `prev`; this test is single-threaded, so no reader.
        unsafe { drop(prev.into_owned()) };

        // Second CAS from the stale value must fail and hand back the new node.
        let newer = Owned::new(3u64).into_shared(&g);
        let err = a
            .compare_exchange(cur, newer, Ordering::SeqCst, Ordering::SeqCst, &g)
            .expect_err("stale cas must fail");
        // SAFETY: `err.current` was loaded under `g` and nothing retires it here.
        assert_eq!(unsafe { *err.current.deref() }, 2);
        // SAFETY: the failed CAS hands `new` back unpublished; we still own it.
        unsafe { drop(err.new.into_owned()) };
        // SAFETY: single-threaded teardown of the cell's last value.
        unsafe { drop(a.take()) };
    }

    #[test]
    fn fetch_or_marks() {
        let g = pin();
        let a: Atomic<u64> = Atomic::new(5);
        let before = a.fetch_or(1, Ordering::SeqCst, &g);
        assert_eq!(before.tag(), 0);
        let after = a.load(Ordering::SeqCst, &g);
        assert_eq!(after.tag(), 1);
        // SAFETY: loaded under `g`; the value is never retired in this test.
        assert_eq!(unsafe { *after.deref() }, 5);
        // SAFETY: single-threaded teardown; the untagged pointer owns the allocation.
        unsafe { drop(after.with_tag(0).into_owned()) };
    }

    #[test]
    fn fetch_and_clears_only_the_given_bits() {
        let g = pin();
        let a: Atomic<u64> = Atomic::new(5);
        a.fetch_or(3, Ordering::SeqCst, &g);
        let before = a.fetch_and(!1, Ordering::SeqCst, &g);
        assert_eq!(before.tag(), 3);
        let after = a.load(Ordering::SeqCst, &g);
        assert_eq!(after.tag(), 2);
        assert_eq!(after.as_raw(), before.as_raw(), "the pointer bits are untouched");
        // SAFETY: single-threaded teardown; the untagged pointer owns the allocation.
        unsafe { drop(after.with_tag(0).into_owned()) };
    }

    #[test]
    fn swap_returns_previous() {
        let g = pin();
        let a: Atomic<String> = Atomic::new("old".to_string());
        let prev = a.swap(Owned::new("new".to_string()), Ordering::SeqCst, &g);
        // SAFETY: loaded under `g`; the swapped-out node is not retired elsewhere.
        assert_eq!(unsafe { prev.deref() }, "old");
        // SAFETY: the swap unlinked `prev`; single-threaded, so no concurrent reader.
        unsafe { drop(prev.into_owned()) };
        // SAFETY: single-threaded teardown of the cell's last value.
        unsafe { drop(a.take()) };
    }

    #[test]
    fn owned_with_tag_preserves_value() {
        let o = Owned::new(10u32).with_tag(1);
        assert_eq!(o.tag(), 1);
        assert_eq!(*o.as_ref(), 10);
    }
}
