//! Model-checked verification of the queue-lock protocols (run with
//! `RUSTFLAGS="--cfg rsched_model" cargo test -p rsched-queues --test model_lock`).
//!
//! Two kinds of evidence:
//!
//! * the real ticket and MCS protocols pass mutual exclusion + ordered
//!   handoff clean over thousands of explored interleavings;
//! * the seeded `mcs-unlock-relaxed` mutation (Release→Relaxed on the MCS
//!   handoff store) is *caught* — as a data race on the protected data,
//!   the precise failure a weaker-than-Release publish causes.
#![cfg(rsched_model)]

use rsched_queues::lock::{McsLock, RawLock, TicketLock};
use rsched_sync::atomic::{AtomicUsize, Ordering};
use rsched_sync::model::{Model, RaceCell, Report, Sim};
use std::sync::Arc;

/// Three threads hammer one lock around a non-atomic cell: the race
/// detector proves mutual exclusion *and* the release→acquire edge, the
/// final count proves no lost update.
fn check_mutual_exclusion<R: RawLock + Default + 'static>(name: &str, max_execs: u64) -> Report {
    let report = Model::new(name).max_executions(max_execs).check(|sim: &mut Sim| {
        let lock = Arc::new(R::default());
        let cell = Arc::new(RaceCell::new(0u64));
        for _ in 0..3 {
            let (lock, cell) = (lock.clone(), cell.clone());
            sim.thread(move || {
                let guard = lock.lock();
                let v = cell.get();
                cell.set(v + 1);
                drop(guard);
            });
        }
        sim.finally(move || {
            assert_eq!(cell.get(), 3, "lost update through the lock");
        });
    });
    report.assert_clean(1000);
    report
}

#[test]
fn ticket_lock_mutual_exclusion() {
    check_mutual_exclusion::<TicketLock>("ticket-mutex", 30_000);
}

#[test]
fn mcs_lock_mutual_exclusion() {
    check_mutual_exclusion::<McsLock>("mcs-mutex", 20_000);
}

/// FIFO handoff: three ticket-lock waiters staged to enqueue in a fixed
/// order (via `issued()`) must be *served* in that order, in every
/// interleaving.
#[test]
fn ticket_lock_fifo_handoff() {
    let report = Model::new("ticket-fifo").max_executions(20_000).check(|sim: &mut Sim| {
        let lock = Arc::new(TicketLock::new());
        let gate = Arc::new(AtomicUsize::new(0));
        let order = Arc::new(AtomicUsize::new(0));
        {
            let (lock, gate, order) = (lock.clone(), gate.clone(), order.clone());
            sim.thread(move || {
                let token = <TicketLock as RawLock>::acquire(&lock);
                gate.store(1, Ordering::Release);
                // Hold until both rivals are queued behind us.
                while lock.issued() < 3 {
                    rsched_sync::spin_wait();
                }
                assert_eq!(order.fetch_add(1, Ordering::Relaxed), 0, "holder served out of order");
                // SAFETY: `token` came from `acquire` on this lock/thread.
                unsafe { lock.release(token) };
            });
        }
        {
            let (lock, gate, order) = (lock.clone(), gate.clone(), order.clone());
            sim.thread(move || {
                while gate.load(Ordering::Acquire) == 0 {
                    rsched_sync::spin_wait();
                }
                let token = <TicketLock as RawLock>::acquire(&lock);
                assert_eq!(order.fetch_add(1, Ordering::Relaxed), 1, "first waiter out of order");
                // SAFETY: as above.
                unsafe { lock.release(token) };
            });
        }
        {
            let (lock, order) = (lock.clone(), order.clone());
            sim.thread(move || {
                // Enqueue strictly after the first waiter took its ticket.
                while lock.issued() < 2 {
                    rsched_sync::spin_wait();
                }
                let token = <TicketLock as RawLock>::acquire(&lock);
                assert_eq!(order.fetch_add(1, Ordering::Relaxed), 2, "second waiter out of order");
                // SAFETY: as above.
                unsafe { lock.release(token) };
            });
        }
    });
    report.assert_clean(2);
}

/// The seeded MCS mutant: downgrading the release-path handoff store to
/// `Relaxed` keeps mutual exclusion (the flag still flips) but severs the
/// happens-before edge into the successor's critical section. The checker
/// must find that as a data race on the protected cell.
#[test]
fn mcs_unlock_relaxed_mutant_found() {
    let report = Model::new("mcs-unlock-relaxed").quiet().mutation("mcs-unlock-relaxed").check(
        |sim: &mut Sim| {
            let lock = Arc::new(McsLock::new());
            let cell = Arc::new(RaceCell::new(0u64));
            for _ in 0..2 {
                let (lock, cell) = (lock.clone(), cell.clone());
                sim.thread(move || {
                    let guard = lock.lock();
                    let v = cell.get();
                    cell.set(v + 1);
                    drop(guard);
                });
            }
        },
    );
    let v = report.expect_violation();
    assert!(v.message.contains("data race"), "expected a data race, got: {}", v.message);
}
