//! Model-checked verification of the epoch pin/advance handshake (run with
//! `RUSTFLAGS="--cfg rsched_model" cargo test -p crossbeam --test model_epoch`).
//!
//! The property: garbage deferred under the epoch scheme is never freed
//! while a pinned reader can still hold a reference to it. The test uses a
//! Drop-probe that raises a flag instead of dereferencing the pointer, so
//! a checker bug surfaces as an assertion, not as real use-after-free in
//! the host process. The seeded `epoch-skip-pin-fence` mutation removes
//! `pin`'s half of the SeqCst fence pair — the advance scan may then act
//! on a stale unpinned word, and the checker must find the resulting
//! reclaim-under-pin.
#![cfg(rsched_model)]

use crossbeam::epoch;
use rsched_sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use rsched_sync::model::{Model, Sim};
use std::sync::Arc;

/// Heap pointee whose destructor raises `freed`.
struct Probe {
    freed: Arc<AtomicBool>,
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.freed.store(true, Ordering::SeqCst);
    }
}

/// Builds the two-thread unlink/read scenario shared by both tests: a
/// writer unlinks the probe, defers freeing it, then flushes hard; a
/// reader pins, snapshots the pointer, and asserts the pointee was not
/// freed while its pin covers the snapshot.
fn pin_scenario(sim: &mut Sim) {
    // Each execution starts from a rewound epoch world (direct mode: this
    // runs on the controller before any model thread exists).
    epoch::model_reset();
    let slot: Arc<AtomicPtr<Probe>> = Arc::new(AtomicPtr::default());
    let freed = Arc::new(AtomicBool::new(false));
    {
        let (slot, freed) = (slot.clone(), freed.clone());
        sim.thread(move || {
            let guard = epoch::pin();
            let snap = slot.load(Ordering::Acquire);
            if !snap.is_null() {
                // We are pinned and hold a live snapshot: the collector
                // must not have reclaimed it (no deref — the flag is the
                // oracle, so a checker bug cannot corrupt the host).
                assert!(
                    !freed.load(Ordering::SeqCst),
                    "reclaimed while pinned: probe freed under a live guard"
                );
            }
            drop(guard);
        });
    }
    {
        let slot = slot.clone();
        sim.thread(move || {
            {
                let guard = epoch::pin();
                let snap = slot.load(Ordering::Acquire);
                slot.store(std::ptr::null_mut(), Ordering::Release);
                // SAFETY: `snap` was just unlinked; threads pinning after
                // this point load null and cannot reach it. It came from
                // `Box::into_raw` below and only this closure frees it.
                unsafe { guard.defer_unchecked(move || drop(Box::from_raw(snap))) };
                drop(guard);
            }
            // Drive the epoch as hard as possible toward reclamation.
            for _ in 0..4 {
                epoch::pin().flush();
            }
        });
    }
    // Publish the probe before the threads run (direct-mode store; any
    // probe a given interleaving does not free is reclaimed by the next
    // execution's `model_reset`).
    slot.store(Box::into_raw(Box::new(Probe { freed })), Ordering::Release);
}

#[test]
fn never_reclaim_while_pinned() {
    let report = Model::new("epoch-pin").max_executions(30_000).check(pin_scenario);
    report.assert_clean(100);
}

#[test]
fn skip_pin_fence_mutation_found() {
    let report = Model::new("epoch-pin-nofence")
        .quiet()
        .mutation("epoch-skip-pin-fence")
        .max_executions(30_000)
        .check(pin_scenario);
    let v = report.expect_violation();
    assert!(
        v.message.contains("reclaimed while pinned"),
        "expected reclaim-under-pin, got: {}",
        v.message
    );
}
