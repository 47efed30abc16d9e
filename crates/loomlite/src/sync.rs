//! Shim synchronization primitives, API-compatible with the `std::sync`
//! subset the `vendor/rayon` pool uses.
//!
//! Inside a model execution every operation first calls into the
//! scheduler (`crate::sched`) so the explorer can interleave it against
//! the other model threads. Outside a model (no execution context bound to
//! the calling thread), atomics and `OnceLock` degrade to their plain
//! `std` behaviour; `Mutex` and `Condvar` refuse to operate, because
//! without a scheduler there is nothing to provide mutual exclusion.
//!
//! **Memory-model caveat:** all operations execute sequentially
//! consistent regardless of the [`atomic::Ordering`] argument. loomlite
//! explores *interleavings*, not weak-memory *reorderings* — see the
//! crate docs for what that does and does not prove.

use std::cell::UnsafeCell;
use std::sync::LockResult;

use crate::sched::{ctx, Block};

/// Shim atomics. The `Ordering` argument is accepted for API parity and
/// ignored: every access is sequentially consistent.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use crate::sched::ctx;

    /// Scheduling point before an atomic access, when inside a model.
    fn yield_op() {
        if let Some((exec, me)) = ctx() {
            exec.yield_op(me);
        }
    }

    macro_rules! shim_atomic {
        ($name:ident, $std:ty, $val:ty) => {
            /// Model-checked stand-in for the `std` atomic of the same
            /// name: each access is a scheduling point inside a model.
            #[derive(Debug, Default)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                /// Create the atomic (usable in statics, like `std`'s).
                #[must_use]
                pub const fn new(v: $val) -> Self {
                    Self {
                        inner: <$std>::new(v),
                    }
                }

                /// Load the value (scheduling point; always SeqCst).
                pub fn load(&self, _order: Ordering) -> $val {
                    yield_op();
                    self.inner.load(Ordering::SeqCst)
                }

                /// Store `v` (scheduling point; always SeqCst).
                pub fn store(&self, v: $val, _order: Ordering) {
                    yield_op();
                    self.inner.store(v, Ordering::SeqCst);
                }

                /// Swap in `v`, returning the previous value
                /// (scheduling point; always SeqCst).
                pub fn swap(&self, v: $val, _order: Ordering) -> $val {
                    yield_op();
                    self.inner.swap(v, Ordering::SeqCst)
                }

                /// Compare-and-exchange (scheduling point; always SeqCst).
                ///
                /// # Errors
                /// Returns the actual value when it differs from `current`.
                pub fn compare_exchange(
                    &self,
                    current: $val,
                    new: $val,
                    _success: Ordering,
                    _failure: Ordering,
                ) -> Result<$val, $val> {
                    yield_op();
                    self.inner
                        .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
                }
            }
        };
    }

    shim_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);

    impl AtomicUsize {
        /// Add `v`, returning the previous value (scheduling point).
        pub fn fetch_add(&self, v: usize, _order: Ordering) -> usize {
            yield_op();
            self.inner.fetch_add(v, Ordering::SeqCst)
        }

        /// Subtract `v`, returning the previous value (scheduling point).
        pub fn fetch_sub(&self, v: usize, _order: Ordering) -> usize {
            yield_op();
            self.inner.fetch_sub(v, Ordering::SeqCst)
        }
    }

    shim_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

    impl AtomicU64 {
        /// Add `v`, returning the previous value (scheduling point).
        pub fn fetch_add(&self, v: u64, _order: Ordering) -> u64 {
            yield_op();
            self.inner.fetch_add(v, Ordering::SeqCst)
        }
    }

    shim_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
}

/// Unique ids for mutexes/condvars so the scheduler can track who blocks
/// on what. Plain std atomic: allocation order across executions does not
/// matter, only uniqueness.
fn next_sync_id() -> usize {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    // hb: none needed — the counter only hands out unique values; no other
    // memory is published through it, so Relaxed is sufficient.
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Model-checked mutual-exclusion lock, API-compatible with the
/// `std::sync::Mutex` subset the pool uses (`lock` + poisoning shape).
/// Only usable from inside a model execution.
#[derive(Debug)]
pub struct Mutex<T> {
    id: usize,
    /// Whether some model thread currently holds the lock. Only mutated by
    /// the single running thread, so a plain SeqCst atomic suffices.
    held: std::sync::atomic::AtomicBool,
    data: UnsafeCell<T>,
}

// SAFETY: the scheduler runs exactly one model thread at a time and the
// `held` protocol gives `MutexGuard` exclusive access to `data`, so the
// shim upholds the same aliasing discipline as `std::sync::Mutex`.
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: as above — shared references only hand out data access through
// the exclusive guard protocol.
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Wrap `value` in a fresh model mutex.
    pub fn new(value: T) -> Self {
        Mutex {
            id: next_sync_id(),
            held: std::sync::atomic::AtomicBool::new(false),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquire the lock, parking the model thread while it is contended.
    ///
    /// # Errors
    /// Never returns `Err`: the shim does not track poisoning (a panicking
    /// model thread fails the whole execution instead). The signature
    /// mirrors `std` so call sites compile unchanged against either.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let (exec, me) = ctx()
            // lint: allow(R1): misuse of the shim outside a model is a
            // programming error in checker harness code, not model state.
            .expect("loomlite::sync::Mutex used outside a model execution");
        loop {
            exec.yield_op(me);
            // Exclusive: only the running thread executes between
            // scheduling points, so this test-and-set cannot race.
            if !self.held.swap(true, std::sync::atomic::Ordering::SeqCst) {
                return Ok(MutexGuard { lock: self });
            }
            exec.block_on(me, Block::Mutex(self.id));
        }
    }
}

/// Exclusive access to a [`Mutex`]'s data; releases the lock on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard proves this model thread holds the lock, and
        // the scheduler runs one thread at a time, so no aliasing access
        // to the cell exists while the guard lives.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — the guard is the unique access path
        // while it lives, and only one model thread runs at a time.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.lock
            .held
            .store(false, std::sync::atomic::Ordering::SeqCst);
        if let Some((exec, _me)) = ctx() {
            exec.unblock_mutex_waiters(self.lock.id);
        }
    }
}

/// Model-checked condition variable (wait / notify subset).
#[derive(Debug)]
pub struct Condvar {
    id: usize,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// Create a fresh model condvar.
    #[must_use]
    pub fn new() -> Self {
        Condvar { id: next_sync_id() }
    }

    /// Release `guard`'s mutex, park until notified, then re-acquire.
    ///
    /// # Errors
    /// Never returns `Err` (no poisoning, as with [`Mutex::lock`]).
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let (exec, me) = ctx()
            // lint: allow(R1): misuse outside a model is harness error.
            .expect("loomlite::sync::Condvar used outside a model execution");
        let lock = guard.lock;
        // Release the mutex without re-running Drop's unblock twice.
        drop(guard);
        exec.block_on(me, Block::Condvar(self.id));
        loop {
            if !lock.held.swap(true, std::sync::atomic::Ordering::SeqCst) {
                return Ok(MutexGuard { lock });
            }
            exec.block_on(me, Block::Mutex(lock.id));
        }
    }

    /// Wake every model thread waiting on this condvar.
    pub fn notify_all(&self) {
        if let Some((exec, _me)) = ctx() {
            exec.notify_condvar(self.id, true);
        }
    }

    /// Wake one waiting model thread (the lowest tid — deterministic).
    pub fn notify_one(&self) {
        if let Some((exec, _me)) = ctx() {
            exec.notify_condvar(self.id, false);
        }
    }
}

/// Shim `OnceLock`: a thin wrapper over `std::sync::OnceLock` that adds a
/// scheduling point before initialization, so racing `get_or_init` calls
/// are explored.
#[derive(Debug, Default)]
pub struct OnceLock<T> {
    inner: std::sync::OnceLock<T>,
}

impl<T> OnceLock<T> {
    /// Create an empty cell (usable in statics, like `std`'s).
    #[must_use]
    pub const fn new() -> Self {
        OnceLock {
            inner: std::sync::OnceLock::new(),
        }
    }

    /// The stored value, if initialized.
    pub fn get(&self) -> Option<&T> {
        self.inner.get()
    }

    /// Get the value, initializing it with `f` if empty (scheduling point
    /// inside a model).
    pub fn get_or_init<F: FnOnce() -> T>(&self, f: F) -> &T {
        if let Some((exec, me)) = ctx() {
            exec.yield_op(me);
        }
        self.inner.get_or_init(f)
    }
}
