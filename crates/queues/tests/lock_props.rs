//! Property tests for the queue-lock toolkit (`rsched_queues::lock`).
//!
//! Three families, over [`McsLock`]:
//!
//! * **Mutual exclusion** — arbitrary thread × iteration shapes increment a
//!   plain counter under the lock while an atomic tripwire asserts no two
//!   threads are ever inside the critical section at once; the final count
//!   must equal the number of acquisitions exactly.
//! * **FIFO fairness** — waiters gated into the queue one at a time (their
//!   arrival observed through the lock's own diagnostics) must be served in
//!   arrival order, for any waiter count: the defining property of a queue
//!   lock that `parking_lot`'s adaptive mutex does not give.
//! * **Panic safety** — a guard dropped during unwind after an arbitrary
//!   number of writes releases the lock and leaves exactly those writes
//!   visible to the next acquirer.
//!
//! Case counts are small: every case spawns real threads, and the point is
//! shape coverage, not statistical volume.

use proptest::prelude::*;
use rsched_queues::lock::{Lock, McsLock, RawLock};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Counter torture under blocking acquisition: exactly-once accounting plus
/// the two-threads-inside tripwire.
fn torture(threads: usize, iters: usize) {
    let lock = Lock::<McsLock, u64>::new(0);
    let inside = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let (lock, inside) = (&lock, &inside);
            s.spawn(move || {
                for _ in 0..iters {
                    let mut g = lock.lock();
                    assert!(!inside.swap(true, Ordering::AcqRel), "two holders at once");
                    *g += 1;
                    inside.store(false, Ordering::Release);
                }
            });
        }
    });
    assert_eq!(lock.into_inner(), (threads * iters) as u64);
}

/// Counter torture where every third acquisition goes through the try path
/// (spun until it succeeds), so try- and blocking-acquisitions interleave.
fn try_torture(threads: usize, iters: usize) {
    let lock = Lock::<McsLock, u64>::new(0);
    let inside = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (lock, inside) = (&lock, &inside);
            s.spawn(move || {
                for i in 0..iters {
                    let mut g = if (t + i) % 3 == 0 {
                        loop {
                            match lock.try_lock() {
                                Some(g) => break g,
                                None => std::thread::yield_now(),
                            }
                        }
                    } else {
                        lock.lock()
                    };
                    assert!(!inside.swap(true, Ordering::AcqRel), "two holders at once");
                    *g += 1;
                    inside.store(false, Ordering::Release);
                }
            });
        }
    });
    assert_eq!(lock.into_inner(), (threads * iters) as u64);
}

/// FIFO handoff: while the main thread holds the lock, `waiters` threads
/// are released into the queue one at a time — the queue-tail snapshot
/// changes when a waiter has enqueued — and the service order must equal
/// the arrival order.
fn fifo(waiters: usize) {
    let lock = McsLock::new();
    let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        let gate = lock.lock();
        let mut last = lock.tail_snapshot();
        for i in 0..waiters {
            let (lock, order) = (&lock, &order);
            s.spawn(move || {
                let _g = lock.lock();
                order.lock().unwrap().push(i);
            });
            // Admit the next waiter only once this one is visibly queued:
            // nodes are in use while queued, so the snapshot is fresh for
            // every arrival.
            while lock.tail_snapshot() == last {
                std::thread::yield_now();
            }
            last = lock.tail_snapshot();
        }
        drop(gate);
    });
    assert_eq!(*order.lock().unwrap(), (0..waiters).collect::<Vec<_>>(), "handoff is not FIFO");
}

/// Unwinding with a held guard after `prefix` writes: the lock must be
/// reacquirable and hold exactly the prefix.
fn panic_safety(prefix: u64) {
    let lock = Lock::<McsLock, u64>::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut g = lock.lock();
        for _ in 0..prefix {
            *g += 1;
        }
        panic!("poisoned critical section");
    }));
    assert!(result.is_err());
    assert_eq!(*lock.lock(), prefix, "partial writes must survive the unwind");
    drop(lock.lock()); // and the lock keeps cycling
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mutual_exclusion_blocking_path(threads in 2usize..5, iters in 50usize..400) {
        torture(threads, iters);
    }

    #[test]
    fn mutual_exclusion_mixed_try_paths(threads in 2usize..5, iters in 50usize..400) {
        try_torture(threads, iters);
    }

    #[test]
    fn fifo_fairness_any_waiter_count(waiters in 1usize..8) {
        fifo(waiters);
    }

    #[test]
    fn guards_release_on_panic(prefix in 0u64..64) {
        panic_safety(prefix);
    }
}
