//! Model-checked verification of the MCS queue-lock protocol (run with
//! `RUSTFLAGS="--cfg rsched_model" cargo test -p rsched-queues --test model_lock`).
//!
//! Two kinds of evidence:
//!
//! * the real MCS protocol passes mutual exclusion clean over thousands of
//!   explored interleavings;
//! * the seeded `mcs-unlock-relaxed` mutation (Release→Relaxed on the MCS
//!   handoff store) is *caught* — as a data race on the protected data,
//!   the precise failure a weaker-than-Release publish causes.
#![cfg(rsched_model)]

use rsched_queues::lock::{McsLock, RawLock};
use rsched_sync::model::{Model, RaceCell, Sim};
use std::sync::Arc;

/// Three threads hammer one lock around a non-atomic cell: the race
/// detector proves mutual exclusion *and* the release→acquire edge, the
/// final count proves no lost update.
#[test]
fn mcs_lock_mutual_exclusion() {
    let report = Model::new("mcs-mutex").max_executions(20_000).check(|sim: &mut Sim| {
        let lock = Arc::new(McsLock::new());
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
