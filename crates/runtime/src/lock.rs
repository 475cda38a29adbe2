//! Poison-recovering lock helpers shared by every crate of the workspace.
//!
//! The workspace's locks protect *caches of deterministic values* (memoized
//! stages, result maps, registries) and are never held across the
//! computation that fills them — a panicking thread can poison the mutex,
//! but it cannot leave the protected map logically mid-update.  Recovering
//! the guard with [`std::sync::PoisonError::into_inner`] is therefore sound
//! and keeps one panicked experiment cell from wedging every other thread
//! behind a `PoisonError`.
//!
//! Use these helpers instead of `.lock().unwrap()` / `.read().unwrap()` /
//! `.write().unwrap()`; the `poison-unsafe-lock` rule of `bgc-lint` rejects
//! the raw spellings in non-test code.
//!
//! **When recovery would be unsound:** a lock whose critical section
//! performs a multi-step update that must be observed atomically (write A,
//! then write B, invariant links them) must *not* blanket-recover, because
//! a panic between the steps leaves the invariant broken for the recovering
//! reader.  No workspace lock currently does this; if one ever must, keep
//! the explicit `.lock().unwrap()` and waive the lint with a reason.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Locks a mutex, recovering the guard if a panicking thread poisoned it.
pub fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks an `RwLock`, recovering the guard if it was poisoned.
pub fn relock_read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks an `RwLock`, recovering the guard if it was poisoned.
pub fn relock_write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// A map of values computed at most once per key.  The first caller of a
/// key computes its value inside the slot's `OnceLock`, outside the map's
/// lock; concurrent callers of the same key block on the slot and share the
/// value.
pub struct OnceMap<K, V> {
    slots: Mutex<BTreeMap<K, Arc<OnceLock<V>>>>,
    computed: AtomicUsize,
    hits: AtomicUsize,
}

impl<K: Ord, V: Clone> OnceMap<K, V> {
    /// The value of `key`, computed by `compute` if no caller has yet.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let slot = relock(&self.slots).entry(key).or_default().clone();
        let mut ran = false;
        let value = slot.get_or_init(|| {
            ran = true;
            compute()
        });
        let counter = if ran { &self.computed } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        value.clone()
    }

    /// `(computed, hits)`: values computed, and calls served a value that
    /// was already computed or being computed.
    pub fn counts(&self) -> (usize, usize) {
        (
            self.computed.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
        )
    }

    /// Every value computed so far, in key order.
    pub fn values(&self) -> Vec<V> {
        let slots: Vec<_> = relock(&self.slots).values().cloned().collect();
        slots
            .iter()
            .filter_map(|slot| slot.get().cloned())
            .collect()
    }
}

impl<K, V> Default for OnceMap<K, V> {
    fn default() -> Self {
        Self {
            slots: Mutex::new(BTreeMap::new()),
            computed: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn once_map_computes_each_key_once_across_threads() {
        let map = OnceMap::default();
        std::thread::scope(|scope| {
            for i in 0..4 {
                let map = &map;
                scope.spawn(move || {
                    assert_eq!(map.get_or_compute(i % 2, || i % 2 * 10), i % 2 * 10);
                });
            }
        });
        assert_eq!(map.counts(), (2, 2));
        assert_eq!(map.values(), vec![0, 10]);
    }

    #[test]
    fn relock_recovers_a_poisoned_mutex() {
        let mutex = Arc::new(Mutex::new(7));
        let poisoner = Arc::clone(&mutex);
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let _guard = poisoner.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poison the lock");
        }));
        assert!(mutex.is_poisoned());
        assert_eq!(*relock(&mutex), 7);
        *relock(&mutex) = 8;
        assert_eq!(*relock(&mutex), 8);
    }

    #[test]
    fn relock_read_write_recover_a_poisoned_rwlock() {
        let lock = Arc::new(RwLock::new(vec![1, 2]));
        let poisoner = Arc::clone(&lock);
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let _guard = poisoner.write().unwrap_or_else(PoisonError::into_inner);
            panic!("poison the lock");
        }));
        assert!(lock.is_poisoned());
        assert_eq!(relock_read(&lock).len(), 2);
        relock_write(&lock).push(3);
        assert_eq!(relock_read(&lock).len(), 3);
    }
}
