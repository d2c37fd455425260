//! Model-checked verification of the VBR version-recheck protocol (run with
//! `RUSTFLAGS="--cfg rsched_model" cargo test -p rsched-queues --test model_vbr`).
//!
//! Two properties over the raw [`Reclaim`] operations:
//!
//! * **No stale read validates**: a read through a pointer into a retired
//!   lifetime must fail validation — `key`/`load_next` return `None`, never
//!   a value written by a later lifetime of the same slot. The oracle is
//!   the key itself: lifetime 0 carries `(7, 7)`, the recycled lifetime
//!   `(9, 9)`, so a validated read observing anything but `(7, 7)` through
//!   the lifetime-0 pointer is a caught violation.
//! * **No use-after-free-version**: a CAS stamped with a dead lifetime
//!   never lands on a recycled slot, so each lifetime's payload is claimed
//!   at most once (and the claim always sees that lifetime's value).
//!
//! The seeded `vbr-skip-version-recheck` mutation makes `validate` trust
//! every speculative read; the checker must then find an interleaving where
//! the recycled key leaks through the lifetime-0 pointer.
#![cfg(rsched_model)]

use rsched_queues::reclaim::{Reclaim, Vbr};
use rsched_sync::atomic::{AtomicUsize, Ordering};
use rsched_sync::model::{Model, Sim};
use std::sync::Arc;

/// Direct-mode setup shared by both scenarios: a fresh domain whose slot 0
/// is allocated (so arena chunk 0 exists before any model thread runs and
/// `OnceLock::get_or_init` never blocks under the checker) with the
/// lifetime-0 key `(7, 7)` and payload `41`.
fn fresh_node() -> (Arc<<Vbr as Reclaim>::Domain<u32>>, <Vbr as Reclaim>::Ptr<u32>) {
    let dom = Arc::new(Vbr::new_domain::<u32>());
    let node = Vbr::alloc(&dom, &mut (), (7, 7), Some(41u32));
    (dom, node)
}

/// A reader holding a lifetime-0 pointer races a recycler that marks,
/// retires, and reallocates the slot under the key `(9, 9)`. Any read the
/// reader *validates* must still carry the lifetime-0 key.
fn stale_read_scenario(sim: &mut Sim) {
    let (dom, node) = fresh_node();
    {
        let dom = dom.clone();
        sim.thread(move || {
            let guard = Vbr::pin(&dom);
            if let Some(key) = Vbr::key(&dom, node, &guard) {
                assert_eq!(
                    key,
                    (7, 7),
                    "stale read validated: lifetime-0 pointer observed a recycled key"
                );
            }
        });
    }
    {
        let dom = dom.clone();
        sim.thread(move || {
            let guard = Vbr::pin(&dom);
            let next = Vbr::load_next(&dom, node, &guard).expect("sole owner sees live node");
            assert!(
                Vbr::cas_next(&dom, node, next, Vbr::with_tag(next, 1), &guard),
                "unraced mark CAS must win"
            );
            // SAFETY: this thread won the marking CAS above, so it is the
            // unique retirer of this lifetime.
            unsafe { Vbr::retire_chain(&dom, node, node, 1, &guard) };
            // Recycle the slot under a new key; the free list hands the
            // same slot back with a bumped version (unit-tested in
            // `vbr::tests::alloc_retire_realloc_bumps_version`).
            let _ = Vbr::alloc(&dom, &mut (), (9, 9), Some(43u32));
        });
    }
}

/// Two poppers race the marking CAS on one node; the winner retires and
/// recycles the slot. At most one claim may land per lifetime, the claim
/// must see that lifetime's payload, and the loser's stale CAS must never
/// succeed against the recycled lifetime.
fn stale_cas_scenario(sim: &mut Sim) {
    let (dom, node) = fresh_node();
    let guard = Vbr::pin(&dom);
    let next = Vbr::load_next(&dom, node, &guard).expect("live after setup");
    let claims = Arc::new(AtomicUsize::new(0));
    for who in 0..2 {
        let dom = dom.clone();
        let claims = claims.clone();
        sim.thread(move || {
            let guard = Vbr::pin(&dom);
            // Speculative copy first, then the marking CAS: the CAS
            // winning proves no retire preceded the copy.
            // SAFETY: the copy is only assumed initialized if the CAS wins.
            let peeked = unsafe { Vbr::peek_payload(&dom, node, &guard) };
            if Vbr::cas_next(&dom, node, next, Vbr::with_tag(next, 1), &guard) {
                // SAFETY: this thread won the lifetime-0 marking CAS.
                let payload = unsafe { peeked.assume_init() };
                assert_eq!(payload, 41, "claim observed another lifetime's payload");
                assert_eq!(
                    claims.fetch_add(1, Ordering::SeqCst),
                    0,
                    "payload lifetime claimed twice"
                );
                // SAFETY: unique marking-CAS winner retires.
                unsafe { Vbr::retire_chain(&dom, node, node, 1, &guard) };
                if who == 0 {
                    // Recycle the slot so interleavings exist where the
                    // other thread's stale CAS runs against a *live* new
                    // lifetime, not just a retired one.
                    let _ = Vbr::alloc(&dom, &mut (), (9, 9), Some(43u32));
                }
            }
        });
    }
}

#[test]
fn stale_reads_never_validate() {
    let report = Model::new("vbr-stale-read").max_executions(30_000).check(stale_read_scenario);
    report.assert_clean(100);
}

#[test]
fn stale_cas_never_lands_on_recycled_slot() {
    let report = Model::new("vbr-stale-cas").max_executions(30_000).check(stale_cas_scenario);
    report.assert_clean(100);
}

#[test]
fn skip_version_recheck_mutation_found() {
    let report = Model::new("vbr-norecheck")
        .quiet()
        .mutation("vbr-skip-version-recheck")
        .max_executions(30_000)
        .check(stale_read_scenario);
    let v = report.expect_violation();
    assert!(
        v.message.contains("stale read validated"),
        "expected a validated stale read, got: {}",
        v.message
    );
}
