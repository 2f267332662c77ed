//! Thin synchronization wrappers over [`std::sync`].
//!
//! The reproduction originally pulled in `parking_lot` for its
//! non-poisoning mutexes. To keep the tier-1 gate hermetic (no registry
//! access at build time) the workspace uses this shim instead: the same
//! two-method surface (`new` + panic-free `lock`) backed by
//! [`std::sync::Mutex`]. Poisoning is deliberately ignored — every lock
//! in this codebase guards state that remains structurally valid if a
//! panic unwinds mid-critical-section (caches, counters, simulated
//! clocks), matching the parking_lot semantics the code was written
//! against.

use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion primitive with `parking_lot`-style ergonomics:
/// [`Mutex::lock`] never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex guarding `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available. A poisoned
    /// mutex (a previous holder panicked) is recovered, not propagated.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A reader-writer lock with the same non-poisoning ergonomics as
/// [`Mutex`]: neither [`RwLock::read`] nor [`RwLock::write`] returns a
/// poison error. Used by the array layer's per-shard quiesce gates,
/// where many dispatchers hold read guards concurrently and a reshard
/// flip briefly takes the write side.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock guarding `value`.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access; a poisoned lock is recovered.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires exclusive write access; a poisoned lock is recovered.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rwlock_round_trip() {
        let l = RwLock::new(5u32);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 10, "shared readers coexist");
        }
        *l.write() += 1;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn poisoned_rwlock_recovers() {
        let l = Arc::new(RwLock::new(7u32));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _guard = l2.write();
            panic!("poison the rwlock");
        })
        .join();
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(1u32);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(vec![1, 2, 3]));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the mutex");
        })
        .join();
        // parking_lot semantics: the next lock succeeds and sees the
        // last consistent state.
        assert_eq!(m.lock().len(), 3);
    }
}
