//! Queue-based spin locks: MCS and ticket locks behind one raw trait.
//!
//! `parking_lot::Mutex` (the shim wraps `std::sync::Mutex`) is a *global
//! spin target*: every contending thread hammers the same word, so handoff
//! cost grows with the number of waiters (cache-line ping-pong on every
//! release). Queue locks hand the lock to exactly one successor, in arrival
//! order:
//!
//! * [`McsLock`] — waiters form an explicit linked queue; each spins on a
//!   flag in its **own** node (cache-padded, so the handoff write invalidates
//!   one waiter's line only) and the releaser follows its `next` pointer to
//!   hand off. Supports a genuinely non-blocking [`RawTryLock::try_acquire`]
//!   (CAS the tail from null), which is why the fine-grained Delaunay uses
//!   MCS for per-cell cavity locks.
//! * [`TicketLock`] — fetch-and-add FIFO: one RMW per acquire, zero
//!   allocation, but all waiters spin on the shared owner word. The baseline
//!   queue lock, and the cheapest under low contention.
//!
//! Both are strict FIFO for blocking acquirers (the fairness half of
//! the toolkit; `lock_props.rs` pins it), spin through
//! [`crossbeam::utils::Backoff::snooze`] so waiters degrade to yielding on
//! oversubscribed hosts (the 1-CPU CI container), and release in *O(1)*
//! independent of the waiter count.
//!
//! Three API layers:
//!
//! * [`RawLock`] / [`RawTryLock`] — state-token protocol plus the RAII
//!   [`RawGuard`]; use this when the lock guards something that is not a
//!   single `T` (the Delaunay cavity protocol holds many cell locks at
//!   once).
//! * [`Lock<R, T>`] — a `Mutex<T>`-shaped data wrapper over any `RawLock`.
//! * [`BucketLock<T>`] — the lock-choice trait the MultiQueue's lock-based
//!   bucket (`concurrent::Locked`, behind `MultiQueue` and `BulkMultiQueue`)
//!   is generic over, implemented by `parking_lot::Mutex<T>` (the default)
//!   and every `Lock<R, T>` with `R: RawTryLock`.
//!
//! # Examples
//!
//! ```
//! use rsched_queues::lock::{Lock, McsLock, RawLock, TicketLock};
//!
//! let counter: Lock<McsLock, u64> = Lock::new(0);
//! *counter.lock() += 1;
//! assert_eq!(counter.into_inner(), 1);
//!
//! let raw = TicketLock::new();
//! let guard = raw.lock(); // RAII: released on drop, even on panic
//! drop(guard);
//! ```

use crossbeam::utils::{Backoff, CachePadded};
use parking_lot::Mutex;
use rsched_sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::cell::{RefCell, UnsafeCell};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::ptr;

/// A raw mutual-exclusion primitive: acquire returns a per-hold token that
/// the matching release consumes.
///
/// The token carries the handoff state a queue lock needs at release time
/// (the holder's queue node; the ticket number). Prefer the safe RAII
/// surface — [`RawLock::lock`] or the [`Lock`] data wrapper — over calling
/// `acquire`/`release` directly.
///
/// # Safety
///
/// Implementations must guarantee mutual exclusion: between an `acquire`
/// (or successful [`RawTryLock::try_acquire`]) and the `release` of its
/// token, no other `acquire`/`try_acquire` on the same lock may return.
/// Release must synchronize-with the next acquire (critical sections are
/// ordered by happens-before).
pub unsafe trait RawLock: Default + Send + Sync {
    /// Per-hold handoff state, returned by acquisition and consumed by the
    /// matching release.
    type Token: Copy;

    /// Acquires the lock, blocking (spinning, then yielding) until it is
    /// held.
    fn acquire(&self) -> Self::Token;

    /// Releases a hold of the lock.
    ///
    /// # Safety
    ///
    /// `token` must have been returned by `acquire`/`try_acquire` on this
    /// same lock, on this thread, and must be released exactly once.
    unsafe fn release(&self, token: Self::Token);

    /// Acquires and returns an RAII guard that releases on drop.
    fn lock(&self) -> RawGuard<'_, Self>
    where
        Self: Sized,
    {
        RawGuard { lock: self, token: self.acquire(), _not_send: PhantomData }
    }
}

/// A [`RawLock`] that can also be acquired without blocking.
///
/// # Safety
///
/// Same contract as [`RawLock`]: a `Some` from `try_acquire` is a full
/// acquisition and must be released exactly once.
pub unsafe trait RawTryLock: RawLock {
    /// Attempts to acquire without blocking; `None` means the lock was
    /// observed held (or contended — spurious failure is allowed, waiting
    /// is not).
    fn try_acquire(&self) -> Option<Self::Token>;

    /// Non-blocking [`RawLock::lock`].
    fn try_lock(&self) -> Option<RawGuard<'_, Self>>
    where
        Self: Sized,
    {
        self.try_acquire().map(|token| RawGuard { lock: self, token, _not_send: PhantomData })
    }
}

/// RAII hold of a [`RawLock`]; releases on drop (panic-safe).
#[must_use = "the lock is released as soon as the guard is dropped"]
pub struct RawGuard<'a, R: RawLock> {
    lock: &'a R,
    token: R::Token,
    // Queue-lock tokens are thread-affine (MCS nodes return to the
    // releasing thread's pool), so guards must not cross threads — same
    // rule as `std::sync::MutexGuard`.
    _not_send: PhantomData<*const ()>,
}

impl<R: RawLock> Drop for RawGuard<'_, R> {
    fn drop(&mut self) {
        // SAFETY: the token came from acquiring `self.lock` and the guard
        // is dropped exactly once.
        unsafe { self.lock.release(self.token) }
    }
}

impl<R: RawLock> fmt::Debug for RawGuard<'_, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RawGuard").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Ticket lock
// ---------------------------------------------------------------------------

/// FIFO ticket lock: acquire takes a ticket with one `fetch_add`, release
/// advances the owner counter.
///
/// The two counters live on separate cache lines so the release store
/// invalidates only the spinners' line, not the enqueue line. All waiters
/// spin on the shared `owner` word — the one queue-lock property ticket
/// locks lack — which is what the `lock_ops` criterion group measures
/// against MCS.
#[derive(Default)]
pub struct TicketLock {
    next: CachePadded<AtomicU64>,
    owner: CachePadded<AtomicU64>,
}

impl TicketLock {
    /// Creates an unlocked ticket lock.
    pub const fn new() -> Self {
        TicketLock {
            next: CachePadded::new(AtomicU64::new(0)),
            owner: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Tickets issued so far (monotone; diagnostic for fairness tests).
    pub fn issued(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Tickets served so far (monotone; `issued() - served()` is the
    /// current holder-plus-waiter count).
    pub fn served(&self) -> u64 {
        self.owner.load(Ordering::Relaxed)
    }
}

// SAFETY: classic ticket protocol — `owner` is written only by the holder
// (store of its own ticket + 1), so exactly the thread whose ticket equals
// `owner` is inside; release's `Release` store synchronizes with the next
// holder's `Acquire` spin load.
unsafe impl RawLock for TicketLock {
    type Token = u64;

    fn acquire(&self) -> u64 {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let backoff = Backoff::new();
        while self.owner.load(Ordering::Acquire) != ticket {
            backoff.snooze();
        }
        ticket
    }

    // SAFETY contract on `RawLock::release`: `ticket` came from `acquire`
    // and the caller still holds the lock.
    unsafe fn release(&self, ticket: u64) {
        self.owner.store(ticket.wrapping_add(1), Ordering::Release);
    }
}

// SAFETY: the CAS succeeds only if `next == owner` (queue empty and lock
// free): `owner` was read `== ticket` first and is monotone with
// `owner <= next`, so at CAS success time both still equal `ticket` — the
// acquirer holds the lock it just took the ticket for.
unsafe impl RawTryLock for TicketLock {
    fn try_acquire(&self) -> Option<u64> {
        let ticket = self.owner.load(Ordering::Relaxed);
        self.next
            .compare_exchange(ticket, ticket.wrapping_add(1), Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| ticket)
    }
}

impl fmt::Debug for TicketLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TicketLock")
            .field("issued", &self.issued())
            .field("served", &self.served())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// MCS lock
// ---------------------------------------------------------------------------

/// One waiter's slot in an MCS queue. The spin flag is cache-padded so the
/// predecessor's handoff store invalidates only this waiter's line.
struct McsNode {
    next: AtomicPtr<McsNode>,
    locked: CachePadded<AtomicBool>,
}

thread_local! {
    /// Per-thread MCS node pool, shared by every `McsLock`. A node enters
    /// the pool only when quiescent (see the reuse argument on `release`),
    /// so dropping the pool at thread exit frees no memory another thread
    /// can still reach. Boxed: nodes are handed out as stable raw pointers
    /// (`Box::into_raw`), so they must not move with the pool vector.
    #[allow(clippy::vec_box)]
    static MCS_POOL: RefCell<Vec<Box<McsNode>>> = const { RefCell::new(Vec::new()) };
}

fn mcs_node_pop() -> *mut McsNode {
    let node =
        MCS_POOL.try_with(|pool| pool.borrow_mut().pop()).unwrap_or(None).unwrap_or_else(|| {
            Box::new(McsNode {
                next: AtomicPtr::new(ptr::null_mut()),
                locked: CachePadded::new(AtomicBool::new(false)),
            })
        });
    Box::into_raw(node)
}

/// # Safety
///
/// `node` must be quiescent: allocated by [`mcs_node_pop`], with no other
/// thread holding a reference to it.
unsafe fn mcs_node_push(node: *mut McsNode) {
    // SAFETY: contract above — we are the unique owner of `node`.
    let node = unsafe { Box::from_raw(node) };
    // During thread teardown the TLS pool may already be gone; dropping the
    // box instead is safe precisely because the node is quiescent.
    let _ = MCS_POOL.try_with(move |pool| pool.borrow_mut().push(node));
}

/// Ordering of the MCS release-path handoff store (`successor.locked =
/// false`). Must be `Release`: it is the edge that publishes the holder's
/// critical section to the successor's `Acquire` spin load. The model
/// checker's seeded `mcs-unlock-relaxed` mutation downgrades it to prove
/// the checker catches a *lost happens-before edge* (a data race on the
/// protected data) even though mutual exclusion itself still holds.
#[inline]
fn mcs_unlock_publish_ordering() -> Ordering {
    #[cfg(rsched_model)]
    if rsched_sync::model::mutation_enabled("mcs-unlock-relaxed") {
        return Ordering::Relaxed;
    }
    Ordering::Release
}

/// MCS queue lock \[Mellor-Crummey & Scott '91\]: an explicit waiter queue
/// through an atomic tail; each waiter spins on its own cache-padded flag
/// and the releaser hands off through its node's `next` pointer.
///
/// The lock itself is a single word (`tail`), so it embeds cheaply at fine
/// granularity — the concurrent Delaunay carries one per triangulation
/// cell. `try_acquire` is a tail CAS from null: it succeeds only on an
/// unlocked, waiter-free lock, which is exactly the "back off rather than
/// wait" primitive the cavity-locking protocol needs.
///
/// Nodes come from a per-thread pool; acquiring and releasing on different
/// threads is prevented by the guards being `!Send`.
#[derive(Default)]
pub struct McsLock {
    tail: AtomicPtr<McsNode>,
}

impl McsLock {
    /// Creates an unlocked MCS lock.
    pub const fn new() -> Self {
        McsLock { tail: AtomicPtr::new(ptr::null_mut()) }
    }

    /// Snapshot of the queue tail, as an opaque address. Changes whenever a
    /// thread enqueues — the fairness tests use it to stage deterministic
    /// arrival orders. `0` means unlocked with no waiters.
    pub fn tail_snapshot(&self) -> usize {
        self.tail.load(Ordering::Relaxed) as usize
    }
}

// SAFETY: standard MCS protocol. The `swap` on tail totally orders
// enqueuers; each enqueuer publishes its initialized node to its
// predecessor with a `Release` store to `pred.next` and spins on its own
// flag with `Acquire`; release either closes the queue with a tail CAS or
// clears exactly its successor's flag with a `Release` store, so exactly
// one thread proceeds per release.
unsafe impl RawLock for McsLock {
    type Token = usize;

    fn acquire(&self) -> usize {
        let node = mcs_node_pop();
        // SAFETY: `node` is exclusively ours until published via the swap.
        unsafe {
            (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
            (*node).locked.store(true, Ordering::Relaxed);
        }
        let pred = self.tail.swap(node, Ordering::AcqRel);
        if !pred.is_null() {
            // SAFETY: `pred` stays allocated until *we* hand its release
            // path out of its spin (the releaser waits for this store
            // before recycling).
            unsafe { (*pred).next.store(node, Ordering::Release) };
            let backoff = Backoff::new();
            // SAFETY: our own node; the predecessor clears the flag.
            while unsafe { (*node).locked.load(Ordering::Acquire) } {
                backoff.snooze();
            }
        }
        node as usize
    }

    // SAFETY contract on `RawLock::release`: `token` came from `acquire`
    // and the caller still holds the lock.
    unsafe fn release(&self, token: usize) {
        let node = token as *mut McsNode;
        // SAFETY (all derefs): `node` is this hold's node; it stays ours
        // until pushed back to the pool below.
        unsafe {
            if (*node).next.load(Ordering::Acquire).is_null() {
                // No visible successor: try to close the queue.
                if self
                    .tail
                    .compare_exchange(node, ptr::null_mut(), Ordering::Release, Ordering::Relaxed)
                    .is_ok()
                {
                    // Tail CAS succeeded: nobody swapped our node out of
                    // tail, so nobody holds a reference — quiescent.
                    mcs_node_push(node);
                    return;
                }
                // An enqueuer swapped tail but has not linked yet; its
                // `pred.next` store is imminent.
                let backoff = Backoff::new();
                while (*node).next.load(Ordering::Acquire).is_null() {
                    backoff.snooze();
                }
            }
            let next = (*node).next.load(Ordering::Acquire);
            (*next).locked.store(false, mcs_unlock_publish_ordering());
            // The successor's link store was its final access to our node,
            // and we just observed it — quiescent, safe to recycle.
            mcs_node_push(node);
        }
    }
}

// SAFETY: the CAS publishes an initialized node and succeeds only when
// tail is null — the lock is free with no waiters — so success is a full
// uncontended acquisition; failure touches nothing shared.
unsafe impl RawTryLock for McsLock {
    fn try_acquire(&self) -> Option<usize> {
        let node = mcs_node_pop();
        // SAFETY: exclusively ours until published.
        unsafe {
            (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
            (*node).locked.store(true, Ordering::Relaxed);
        }
        match self.tail.compare_exchange(ptr::null_mut(), node, Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(_) => Some(node as usize),
            Err(_) => {
                // SAFETY: never published — still exclusively ours.
                unsafe { mcs_node_push(node) };
                None
            }
        }
    }
}

impl fmt::Debug for McsLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("McsLock")
            .field("queued", &!self.tail.load(Ordering::Relaxed).is_null())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Lock<R, T>: Mutex-shaped data wrapper
// ---------------------------------------------------------------------------

/// `Mutex<T>` shaped over any [`RawLock`]: pairs the raw lock with the data
/// it guards, yielding RAII guards that deref to `T`.
///
/// # Examples
///
/// ```
/// use rsched_queues::lock::{Lock, TicketLock};
///
/// let m: Lock<TicketLock, Vec<u32>> = Lock::new(vec![1]);
/// m.lock().push(2);
/// assert_eq!(m.into_inner(), vec![1, 2]);
/// ```
#[derive(Default)]
pub struct Lock<R: RawLock, T: ?Sized> {
    raw: R,
    data: UnsafeCell<T>,
}

// SAFETY: same justification as std's Mutex — the raw lock serializes all
// access to `data`, so sharing the wrapper only requires the data itself to
// be sendable across the handoff.
unsafe impl<R: RawLock, T: ?Sized + Send> Send for Lock<R, T> {}
// SAFETY: as for Send — `&Lock` only reaches `data` through the raw lock,
// which serializes every access.
unsafe impl<R: RawLock, T: ?Sized + Send> Sync for Lock<R, T> {}

impl<R: RawLock, T> Lock<R, T> {
    /// Wraps `value` behind a fresh (unlocked) `R`.
    pub fn new(value: T) -> Self {
        Lock { raw: R::default(), data: UnsafeCell::new(value) }
    }

    /// Consumes the lock, returning the data.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<R: RawLock, T: ?Sized> Lock<R, T> {
    /// Acquires the lock, blocking until held.
    pub fn lock(&self) -> LockGuard<'_, R, T> {
        LockGuard { lock: self, token: self.raw.acquire(), _not_send: PhantomData }
    }

    /// Attempts to acquire without blocking.
    pub fn try_lock(&self) -> Option<LockGuard<'_, R, T>>
    where
        R: RawTryLock,
    {
        self.raw.try_acquire().map(|token| LockGuard { lock: self, token, _not_send: PhantomData })
    }

    /// Mutable access without locking (the `&mut` proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<R: RawLock, T: ?Sized> fmt::Debug for Lock<R, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never locks: Debug must not block (or deadlock) on a held lock.
        f.debug_struct("Lock").finish_non_exhaustive()
    }
}

/// RAII hold of a [`Lock`]; derefs to the guarded data, releases on drop.
#[must_use = "the lock is released as soon as the guard is dropped"]
pub struct LockGuard<'a, R: RawLock, T: ?Sized> {
    lock: &'a Lock<R, T>,
    token: R::Token,
    _not_send: PhantomData<*const ()>,
}

impl<R: RawLock, T: ?Sized> Deref for LockGuard<'_, R, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard proves the raw lock is held.
        unsafe { &*self.lock.data.get() }
    }
}

impl<R: RawLock, T: ?Sized> DerefMut for LockGuard<'_, R, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard proves the raw lock is held exclusively.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<R: RawLock, T: ?Sized> Drop for LockGuard<'_, R, T> {
    fn drop(&mut self) {
        // SAFETY: token from acquiring this lock, released exactly once.
        unsafe { self.lock.raw.release(self.token) }
    }
}

impl<R: RawLock, T: ?Sized + fmt::Debug> fmt::Debug for LockGuard<'_, R, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// ---------------------------------------------------------------------------
// BucketLock: the MultiQueue bucket-lock choice
// ---------------------------------------------------------------------------

/// The lock shape [`Locked`](crate::concurrent::Locked) MultiQueue buckets
/// are generic over: a `Mutex<T>`-alike with blocking *and* non-blocking
/// acquisition (the two-choice pop protocol is built on `try_lock`).
///
/// Implemented by `parking_lot::Mutex<T>` (the default bucket lock,
/// unchanged behavior) and by every [`Lock<R, T>`] whose raw lock supports
/// [`RawTryLock`] — i.e. [`McsLock`] and [`TicketLock`], the rows the
/// `lock_ops` criterion group compares.
pub trait BucketLock<T>: Send + Sync {
    /// RAII hold, dereferencing to the bucket contents.
    type Guard<'a>: DerefMut<Target = T>
    where
        Self: 'a,
        T: 'a;

    /// Wraps `value` behind a fresh (unlocked) bucket lock.
    fn new(value: T) -> Self;

    /// Acquires, blocking until held.
    fn lock(&self) -> Self::Guard<'_>;

    /// Attempts to acquire without blocking.
    fn try_lock(&self) -> Option<Self::Guard<'_>>;
}

impl<T: Send> BucketLock<T> for Mutex<T> {
    type Guard<'a>
        = parking_lot::MutexGuard<'a, T>
    where
        T: 'a;

    fn new(value: T) -> Self {
        Mutex::new(value)
    }

    fn lock(&self) -> Self::Guard<'_> {
        Mutex::lock(self)
    }

    fn try_lock(&self) -> Option<Self::Guard<'_>> {
        Mutex::try_lock(self)
    }
}

impl<R: RawTryLock, T: Send> BucketLock<T> for Lock<R, T> {
    type Guard<'a>
        = LockGuard<'a, R, T>
    where
        R: 'a,
        T: 'a;

    fn new(value: T) -> Self {
        Lock::new(value)
    }

    fn lock(&self) -> Self::Guard<'_> {
        Lock::lock(self)
    }

    fn try_lock(&self) -> Option<Self::Guard<'_>> {
        Lock::try_lock(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_sync::atomic::AtomicUsize;
    use std::sync::Mutex as StdMutex;

    /// Exactly-once handoff torture: `threads × iters` increments of an
    /// unsynchronized counter, with an atomic tripwire asserting no two
    /// threads are ever inside the critical section at once.
    fn torture<R: RawLock>(threads: usize, iters: usize) {
        let lock: Lock<R, u64> = Lock::new(0);
        let inside = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..iters {
                        let mut g = lock.lock();
                        assert!(
                            !inside.swap(true, Ordering::SeqCst),
                            "two threads inside the critical section"
                        );
                        *g += 1;
                        inside.store(false, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(lock.into_inner(), (threads * iters) as u64);
    }

    #[test]
    fn mcs_exactly_once_handoff() {
        torture::<McsLock>(4, 5_000);
    }

    #[test]
    fn ticket_exactly_once_handoff() {
        torture::<TicketLock>(4, 5_000);
    }

    /// Mixed blocking/non-blocking torture for the try-capable locks.
    fn try_torture<R: RawTryLock>(threads: usize, iters: usize) {
        let lock: Lock<R, u64> = Lock::new(0);
        let done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (lock, done) = (&lock, &done);
                s.spawn(move || {
                    for i in 0..iters {
                        if (t + i) % 2 == 0 {
                            *lock.lock() += 1;
                            done.fetch_add(1, Ordering::Relaxed);
                        } else if let Some(mut g) = lock.try_lock() {
                            *g += 1;
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(lock.into_inner(), done.load(Ordering::Relaxed) as u64);
    }

    #[test]
    fn mcs_try_lock_torture() {
        try_torture::<McsLock>(4, 5_000);
    }

    #[test]
    fn ticket_try_lock_torture() {
        try_torture::<TicketLock>(4, 5_000);
    }

    fn try_contract<R: RawTryLock>() {
        let lock = R::default();
        let g = lock.lock();
        assert!(lock.try_acquire().is_none(), "try_acquire succeeded under a held lock");
        drop(g);
        let t = lock.try_acquire().expect("try_acquire failed on a free lock");
        // SAFETY: token from the successful try_acquire above.
        unsafe { lock.release(t) };
        // And again through the guard surface.
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn mcs_try_contract() {
        try_contract::<McsLock>();
    }

    #[test]
    fn ticket_try_contract() {
        try_contract::<TicketLock>();
    }

    /// Deterministic FIFO handoff: the main thread holds the lock, releases
    /// gate `i` and *observes thread i enqueue* (via the arrival snapshot)
    /// before gating thread `i + 1`, so the arrival order is exact; strict
    /// FIFO then forces the acquisition order to match.
    fn fifo_handoff<R, F>(lock: &Lock<R, ()>, arrivals: F)
    where
        R: RawLock,
        F: Fn() -> usize + Sync,
    {
        const WAITERS: usize = 4;
        let order = StdMutex::new(Vec::new());
        let gate = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let held = lock.lock();
            for i in 0..WAITERS {
                let order = &order;
                let gate = &gate;
                s.spawn(move || {
                    while gate.load(Ordering::Acquire) <= i {
                        std::thread::yield_now();
                    }
                    let g = lock.lock();
                    order.lock().unwrap().push(i);
                    drop(g);
                });
            }
            for i in 0..WAITERS {
                let before = arrivals();
                gate.store(i + 1, Ordering::Release);
                // Wait until thread i is visibly enqueued behind us.
                while arrivals() == before {
                    std::thread::yield_now();
                }
            }
            drop(held);
        });
        assert_eq!(*order.lock().unwrap(), (0..WAITERS).collect::<Vec<_>>());
    }

    #[test]
    fn ticket_handoff_is_fifo() {
        let lock: Lock<TicketLock, ()> = Lock::new(());
        fifo_handoff(&lock, || lock.raw.issued() as usize);
    }

    #[test]
    fn mcs_handoff_is_fifo() {
        let lock: Lock<McsLock, ()> = Lock::new(());
        fifo_handoff(&lock, || lock.raw.tail_snapshot());
    }

    /// Many simultaneous holds from one thread (the Delaunay cavity
    /// pattern): every per-cell lock gets its own node.
    #[test]
    fn mcs_multi_hold_one_thread() {
        let locks: Vec<McsLock> = (0..64).map(|_| McsLock::new()).collect();
        let guards: Vec<_> = locks.iter().map(|l| l.try_lock().expect("free")).collect();
        for l in &locks {
            assert!(l.try_acquire().is_none());
        }
        drop(guards);
        for l in &locks {
            assert!(l.try_lock().is_some());
        }
    }

    #[test]
    fn guard_released_on_panic() {
        let lock: Lock<McsLock, u32> = Lock::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = lock.lock();
            *g = 7;
            panic!("poison-free by construction");
        }));
        assert!(result.is_err());
        // The guard's Drop ran during unwinding: the lock is free again.
        assert_eq!(*lock.try_lock().expect("released during unwind"), 7);
    }

    #[test]
    fn bucket_lock_surface_is_interchangeable() {
        fn exercise<L: BucketLock<Vec<u32>>>() {
            let l = L::new(vec![1]);
            l.lock().push(2);
            {
                let g = l.lock();
                assert_eq!(*g, vec![1, 2]);
            }
            let g = l.try_lock().expect("free");
            drop(g);
        }
        exercise::<Mutex<Vec<u32>>>();
        exercise::<Lock<McsLock, Vec<u32>>>();
        exercise::<Lock<TicketLock, Vec<u32>>>();
    }
}
