//! Model-checked verification of three service protocols (run with
//! `RUSTFLAGS="--cfg rsched_model" cargo test -p rsched-core --test
//! model_service`): the capacity-waiter backpressure handshake, the order
//! in which a worker run books its follow-ups with the ledger and makes
//! them poppable, and the order in which producers seal the ledger.
//!
//! Capacity waiters: a producer that registers its thread and then still
//! observes the stall condition may park, because the worker's drain→check
//! is guaranteed to see the registration (or the producer's re-check to see
//! the drain) — the store-buffering fence pair in `CapacityWaiters`. The
//! seeded `capacity-weaken` mutation removes the fences and drops the
//! `armed` flag to `Relaxed`; the checker must then find the
//! parked-with-no-wakeup interleaving.
//!
//! Ledger: a run accepts the tasks it spawned *before* the `insert_batch`
//! that publishes them. In the other order a second worker can pop and
//! decide a child while its parent's run is still unbooked, and the books
//! balance — `drained()` reads true — with work in hand. The scenario
//! takes the order as a parameter; the swapped order must yield the
//! violation.
//!
//! Seal: a push returns `Ok` with the task still in its producer's run, and
//! the ledger seals only when the last handle drops, after that handle's
//! flush. Sealing it inside `seal_all` instead lets the books balance — on
//! zero — while another producer still holds an `Ok` push; that order is
//! the scenario's second parameter value and must yield the violation.
#![cfg(rsched_model)]

use rsched_core::service::{CapacityWaiters, Ledger};
use rsched_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use rsched_sync::model::{Model, Sim};
use std::sync::Arc;

/// The minimal producer/worker shape over one occupancy word: the producer
/// registers its own thread, and it counts as woken when the worker's
/// `wake_all` unparked a thread (it is the only one ever registered; the
/// unpark itself is invisible to the checker). `occupancy`
/// deliberately uses release/acquire, not `SeqCst`: the model gives
/// `SeqCst` *accesses* global-fence strength, which would let the
/// occupancy handshake smuggle the `armed` store across and mask the
/// mutation — the fences inside `CapacityWaiters` must carry the
/// guarantee on their own, exactly as the protocol comment claims.
fn wakeup_scenario(sim: &mut Sim) {
    let cap = Arc::new(CapacityWaiters::default());
    let occupancy = Arc::new(AtomicUsize::new(1));
    let woken = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicBool::new(false));
    {
        // Producer: register, re-check the stall condition, park if stalled.
        let (cap, occupancy, parked) = (cap.clone(), occupancy.clone(), parked.clone());
        sim.thread(move || {
            cap.register(std::thread::current());
            if occupancy.load(Ordering::Acquire) != 0 {
                parked.store(true, Ordering::Relaxed);
            }
        });
    }
    {
        // Worker: retire the occupancy, then signal capacity.
        let (cap, occupancy, woken) = (cap.clone(), occupancy.clone(), woken.clone());
        sim.thread(move || {
            occupancy.store(0, Ordering::Release);
            if cap.wake_all() > 0 {
                woken.store(true, Ordering::SeqCst);
            }
        });
    }
    sim.finally(move || {
        let lost = parked.load(Ordering::Relaxed) && !woken.load(Ordering::Relaxed);
        assert!(!lost, "lost wakeup: producer parked and the worker never signaled it");
    });
}

#[test]
fn no_lost_wakeup_clean() {
    let report = Model::new("capacity-wakeup").check(wakeup_scenario);
    report.assert_clean(2);
}

#[test]
fn capacity_weaken_mutation_found() {
    let report =
        Model::new("capacity-weaken").quiet().mutation("capacity-weaken").check(wakeup_scenario);
    let v = report.expect_violation();
    assert!(v.message.contains("lost wakeup"), "expected a lost wakeup, got: {}", v.message);
}

/// The two orders a run can book and publish what it spawned in.
#[derive(Clone, Copy)]
enum Flush {
    AcceptThenPublish,
    PublishThenAccept,
}

/// Two workers over one modeled scheduler slot. Worker A holds the root
/// (accepted 1, decided 0); its run spawned one child and decided the
/// root. Worker B pops the child if it is there, decides it, and checks the
/// termination predicate. `slot` is release/acquire — the bucket lock of a
/// real scheduler — so the ledger's own orderings carry the guarantee.
fn spawn_scenario(order: Flush) -> impl Fn(&mut Sim) {
    move |sim| {
        let ledger = Arc::new(Ledger::new());
        ledger.accept(1);
        ledger.seal();
        let slot = Arc::new(AtomicBool::new(false));
        {
            let (ledger, slot) = (ledger.clone(), slot.clone());
            sim.thread(move || {
                let book = || {
                    ledger.accept(1);
                    ledger.decide(1);
                };
                match order {
                    Flush::AcceptThenPublish => {
                        book();
                        slot.store(true, Ordering::Release);
                    }
                    Flush::PublishThenAccept => {
                        slot.store(true, Ordering::Release);
                        book();
                    }
                }
            });
        }
        sim.thread(move || {
            if slot.load(Ordering::Acquire) {
                ledger.decide(1);
            }
            if ledger.drained() {
                // B leaves its loop here. A has finished exactly when both
                // tasks are on the books and the child was published.
                let finished = ledger.accepted() == 2 && slot.load(Ordering::Acquire);
                assert!(finished, "drained with a run in hand: the books balanced on one task");
            }
        });
    }
}

#[test]
fn accept_then_publish_never_drains_early() {
    let report =
        Model::new("ledger-accept-then-publish").check(spawn_scenario(Flush::AcceptThenPublish));
    report.assert_clean(2);
}

#[test]
fn publish_then_accept_violation_found() {
    let report = Model::new("ledger-publish-then-accept")
        .quiet()
        .check(spawn_scenario(Flush::PublishThenAccept));
    let v = report.expect_violation();
    assert!(v.message.contains("drained with a run in hand"), "got: {}", v.message);
}

/// Where the ledger seals.
#[derive(Clone, Copy)]
enum Seal {
    /// When the last producer handle drops, after that handle's flush.
    LastDrop,
    /// Inside `seal_all`, whatever other producers still hold.
    InSealAll,
}

/// Two producer handles and a worker over one modeled scheduler slot.
/// Producer A pushes one task — refused if ingestion is already closed,
/// else `Ok` with the task in A's run — then flushes (accepts, publishes)
/// and drops its handle. Producer B calls `seal_all` (closes ingestion)
/// and drops its handle. The worker decides the task if it is published
/// and reads `drained()`: it must not read true while an `Ok` push is
/// unaccepted. `closed` is `Relaxed`, as in `Producer::push`.
fn seal_scenario(seal: Seal) -> impl Fn(&mut Sim) {
    move |sim| {
        let ledger = Arc::new(Ledger::new());
        let open = Arc::new(AtomicUsize::new(2));
        let closed = Arc::new(AtomicBool::new(false));
        let pushed_ok = Arc::new(AtomicBool::new(false));
        let slot = Arc::new(AtomicBool::new(false));
        let drop_handle = |ledger: &Ledger, open: &AtomicUsize| {
            if open.fetch_sub(1, Ordering::SeqCst) == 1 {
                ledger.seal();
            }
        };
        {
            let (ledger, open, closed, pushed_ok, slot) =
                (ledger.clone(), open.clone(), closed.clone(), pushed_ok.clone(), slot.clone());
            sim.thread(move || {
                if !closed.load(Ordering::Relaxed) {
                    pushed_ok.store(true, Ordering::Relaxed);
                    ledger.accept(1);
                    slot.store(true, Ordering::Release);
                }
                drop_handle(&ledger, &open);
            });
        }
        {
            let (ledger, open) = (ledger.clone(), open.clone());
            sim.thread(move || {
                closed.store(true, Ordering::Relaxed);
                if let Seal::InSealAll = seal {
                    ledger.seal();
                }
                drop_handle(&ledger, &open);
            });
        }
        sim.thread(move || {
            if slot.load(Ordering::Acquire) {
                ledger.decide(1);
            }
            if ledger.drained() {
                let lost = pushed_ok.load(Ordering::Relaxed) && ledger.accepted() == 0;
                assert!(!lost, "drained with an Ok push unaccepted");
            }
        });
    }
}

#[test]
fn seal_on_last_drop_never_drains_early() {
    let report = Model::new("seal-on-last-drop").check(seal_scenario(Seal::LastDrop));
    report.assert_clean(200);
}

#[test]
fn seal_in_seal_all_violation_found() {
    let report = Model::new("seal-in-seal-all").quiet().check(seal_scenario(Seal::InSealAll));
    let v = report.expect_violation();
    assert!(v.message.contains("drained with an Ok push unaccepted"), "got: {}", v.message);
}
