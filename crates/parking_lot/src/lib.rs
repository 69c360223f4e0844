//! Vendored stand-in for the `parking_lot` crate, implemented on top of
//! `std::sync`. The build environment has no registry access, so the
//! workspace routes the `parking_lot` dependency here (see the root
//! `Cargo.toml`). Only the API surface Ode actually uses is provided:
//! `Mutex`/`MutexGuard`, `RwLock` with its two guards, and `Condvar`, all
//! with parking_lot's non-poisoning semantics (a panicked holder does not
//! make the lock unusable).
//!
//! One addition parking_lot does not have: a lock built with `ranked`
//! carries a [`Rank`], and debug builds check lock order on every
//! acquisition of a ranked lock (see [`Rank`]). Locks built with `new` or
//! `default` are unranked and never checked.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync;
use std::time::Duration;

/// A lock's place in its program's lock order. A thread may acquire a
/// ranked lock only while every ranked lock it already holds has a lower
/// level. Debug builds keep a per-thread set of held ranked locks and panic
/// on an out-of-order acquisition or a recursive one (the same lock again,
/// in either mode: std's `RwLock` blocks a second read behind a waiting
/// writer), naming both locks — so every test run checks the order.
/// Release builds compile ranks out: a ranked lock is laid out and runs
/// exactly like an unranked one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Rank {
    #[cfg(debug_assertions)]
    level: u16,
    #[cfg(debug_assertions)]
    name: &'static str,
}

impl Rank {
    /// Unranked: never checked.
    const NONE: Rank = Rank::at(0, "");

    /// A rank at `level` (≥ 1; lower levels are acquired first), named in
    /// violation reports.
    pub const fn new(level: u16, name: &'static str) -> Rank {
        assert!(level > 0, "rank level 0 means unranked");
        Rank::at(level, name)
    }

    #[cfg(debug_assertions)]
    const fn at(level: u16, name: &'static str) -> Rank {
        Rank { level, name }
    }

    #[cfg(not(debug_assertions))]
    const fn at(_: u16, _: &'static str) -> Rank {
        Rank {}
    }
}

#[cfg(debug_assertions)]
mod order {
    use super::Rank;
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<(Rank, usize)>> = const { RefCell::new(Vec::new()) };
    }

    /// One ranked lock held by this thread: in the thread's held set from
    /// creation to drop. Unranked locks make an empty token.
    pub(crate) struct Held(Option<usize>);

    impl Held {
        /// Check, before blocking, that taking the lock at `addr` keeps this
        /// thread's lock order. Skipped while unwinding, so a guard dropped
        /// by a panic cannot turn it into an abort.
        pub(crate) fn check(rank: Rank, addr: usize) {
            if rank.level == 0 || std::thread::panicking() {
                return;
            }
            HELD.with(|held| {
                for &(other, at) in held.borrow().iter() {
                    if at == addr {
                        panic!("lock order: recursive acquisition of `{}`", rank.name);
                    }
                    if other.level >= rank.level {
                        panic!(
                            "lock order: acquiring `{}` (rank {}) while holding `{}` (rank {})",
                            rank.name, rank.level, other.name, other.level
                        );
                    }
                }
            });
        }

        /// Record that this thread now holds the lock at `addr`.
        pub(crate) fn register(rank: Rank, addr: usize) -> Held {
            if rank.level == 0 {
                return Held(None);
            }
            HELD.with(|held| held.borrow_mut().push((rank, addr)));
            Held(Some(addr))
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            if let Some(addr) = self.0 {
                // `try_with`: a guard may drop during thread-local teardown.
                let _ = HELD.try_with(|held| {
                    let mut held = held.borrow_mut();
                    if let Some(i) = held.iter().rposition(|&(_, at)| at == addr) {
                        held.swap_remove(i);
                    }
                });
            }
        }
    }
}

#[cfg(not(debug_assertions))]
mod order {
    use super::Rank;

    /// Release builds track nothing.
    pub(crate) struct Held;

    impl Held {
        #[inline(always)]
        pub(crate) fn check(_: Rank, _: usize) {}

        #[inline(always)]
        pub(crate) fn register(_: Rank, _: usize) -> Held {
            Held
        }
    }
}

use order::Held;

/// A mutual-exclusion lock. Unlike `std::sync::Mutex`, `lock()` returns the
/// guard directly and ignores poisoning, matching parking_lot.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    rank: Rank,
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new (unranked) mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            rank: Rank::NONE,
            inner: sync::Mutex::new(value),
        }
    }

    /// Create a mutex at `rank` in the lock order.
    pub const fn ranked(rank: Rank, value: T) -> Self {
        Mutex {
            rank,
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    fn addr(&self) -> usize {
        (self as *const Self).cast::<()>() as usize
    }

    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        Held::check(self.rank, self.addr());
        let guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        MutexGuard {
            guard,
            _held: Held::register(self.rank, self.addr()),
        }
    }

    /// Try to acquire the lock without blocking. A try cannot deadlock, so
    /// it is not order-checked; a success still counts as held.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            guard,
            _held: Held::register(self.rank, self.addr()),
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_lock() {
            Ok(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            Err(sync::TryLockError::Poisoned(e)) => {
                f.debug_tuple("Mutex").field(&&*e.into_inner()).finish()
            }
            Err(sync::TryLockError::WouldBlock) => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    guard: sync::MutexGuard<'a, T>,
    _held: Held,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Result of [`Condvar::wait_for`]: whether the wait ended by timeout.
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait returned because the timeout elapsed rather
    /// than a notification.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable with parking_lot's API: waits re-lock the guard
/// *in place* (`&mut MutexGuard`) instead of consuming and returning it,
/// and poisoning is ignored. The guard stays in its thread's held set
/// across the wait.
#[derive(Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Atomically release the guard's mutex and block until notified,
    /// re-acquiring it before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        // std's wait consumes the guard and returns a fresh one; move the
        // inner guard out and back without running its destructor. Safe
        // because `Condvar::wait` does not unwind for a matched mutex and
        // the poisoned case is converted, so `guard.guard` is always
        // re-initialized before anyone can observe it.
        unsafe {
            let inner = std::ptr::read(&guard.guard);
            let inner = self.0.wait(inner).unwrap_or_else(|e| e.into_inner());
            std::ptr::write(&mut guard.guard, inner);
        }
    }

    /// Like [`Condvar::wait`], but gives up after `timeout`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        unsafe {
            let inner = std::ptr::read(&guard.guard);
            let (inner, result) = match self.0.wait_timeout(inner, timeout) {
                Ok((g, r)) => (g, r),
                Err(e) => {
                    let (g, r) = e.into_inner();
                    (g, r)
                }
            };
            std::ptr::write(&mut guard.guard, inner);
            WaitTimeoutResult(result.timed_out())
        }
    }
}

/// A reader-writer lock with parking_lot's panic-tolerant semantics.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    rank: Rank,
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Create a new (unranked) rwlock.
    pub const fn new(value: T) -> Self {
        RwLock {
            rank: Rank::NONE,
            inner: sync::RwLock::new(value),
        }
    }

    /// Create an rwlock at `rank` in the lock order.
    pub const fn ranked(rank: Rank, value: T) -> Self {
        RwLock {
            rank,
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    fn addr(&self) -> usize {
        (self as *const Self).cast::<()>() as usize
    }

    /// Acquire a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        Held::check(self.rank, self.addr());
        let guard = self.inner.read().unwrap_or_else(|e| e.into_inner());
        RwLockReadGuard {
            guard,
            _held: Held::register(self.rank, self.addr()),
        }
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        Held::check(self.rank, self.addr());
        let guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        RwLockWriteGuard {
            guard,
            _held: Held::register(self.rank, self.addr()),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            Err(sync::TryLockError::Poisoned(e)) => {
                f.debug_tuple("RwLock").field(&&*e.into_inner()).finish()
            }
            Err(sync::TryLockError::WouldBlock) => f.write_str("RwLock(<locked>)"),
        }
    }
}

/// RAII shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: sync::RwLockReadGuard<'a, T>,
    _held: Held,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// RAII exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: sync::RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
        assert_eq!(l.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_wait_for_and_notify() {
        use std::sync::Arc;
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            *ready = true;
            cv.notify_all();
            drop(ready);
        });
        let (m, cv) = &*pair;
        let mut ready = m.lock();
        while !*ready {
            let r = cv.wait_for(&mut ready, Duration::from_secs(5));
            assert!(!r.timed_out(), "notification should arrive well within 5s");
        }
        drop(ready);
        t.join().unwrap();
        // And a pure timeout path.
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(r.timed_out());
    }

    #[test]
    fn mutex_survives_panicked_holder() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // parking_lot semantics: the lock is still usable.
        assert_eq!(*m.lock(), 0);
    }

    const OUTER: Rank = Rank::new(1, "outer");
    const INNER: Rank = Rank::new(2, "inner");

    #[test]
    fn ranked_locks_in_order_and_released_in_any_order() {
        let outer = RwLock::ranked(OUTER, ());
        let inner = Mutex::ranked(INNER, 0);
        let a = outer.read();
        let b = inner.lock();
        drop(a);
        drop(b);
        // Both released: the order starts over.
        let _b = inner.lock();
        drop(_b);
        let _a = outer.write();
        let _b = inner.lock();
    }

    /// The message a closure's panic carried, if it panicked.
    #[cfg(debug_assertions)]
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> Option<String> {
        let err = std::panic::catch_unwind(f).err()?;
        err.downcast_ref::<String>().cloned()
    }

    #[cfg(debug_assertions)]
    #[test]
    fn out_of_order_acquisition_panics() {
        let outer = RwLock::ranked(OUTER, ());
        let inner = RwLock::ranked(INNER, ());
        let msg = panic_message(|| {
            let _b = inner.read();
            let _a = outer.read();
        })
        .expect("taking outer under inner must panic");
        assert!(msg.contains("`outer` (rank 1) while holding `inner` (rank 2)"));
        // The unwind released everything it held.
        let _a = outer.read();
        let _b = inner.read();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn recursive_read_panics() {
        let gate = RwLock::ranked(OUTER, ());
        let msg = panic_message(|| {
            let _first = gate.read();
            let _second = gate.read();
        })
        .expect("a second read of one lock must panic");
        assert!(msg.contains("recursive acquisition of `outer`"));
    }

    #[test]
    fn unranked_locks_are_not_checked() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        let _b = b.lock();
        let _a = a.lock();
    }
}
