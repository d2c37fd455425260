//! Reclamation-backend bake-off correctness suite for the Harris list: an
//! exactly-once drop-cell stress generic over [`Reclaim`] and run against
//! **both** backends through `HarrisList::insert` with single and run pops,
//! plus a proptest over random mixed op sequences (single inserts, run
//! inserts, run pops) diffed against a `BTreeSet` oracle. A run pop unlinks
//! its chain with one CAS and retires it as one unit (under EBR: one
//! deferred item whose nodes go back to the list's pool), so a chain retired
//! twice, or a node recycled while still claimed, shows up here as a double
//! drop. The same audit through `LockFreeMultiQueue`'s runs, under both
//! backends and at every run length, is `tests/scheduler_conformance.rs`.
//!
//! A per-payload drop cell proves every payload is dropped **exactly
//! once** — a double-free (e.g. a stale VBR read validating) increments a
//! cell twice, a leak (a lost slot) leaves one at zero. CI runs the suite
//! in release mode as well, where the tighter instruction stream makes
//! version-recheck races most likely. Every case runs under a watchdog: a
//! fault that corrupts a list's links can leave an operation spinning on a
//! link that never changes, and the case must fail rather than hang.

use proptest::prelude::*;
use rsched_queues::concurrent::HarrisList;
use rsched_queues::reclaim::{Ebr, Reclaim, Vbr};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 3_000;
const PREFILL: usize = 1_000;

/// Runs `case` on a thread of its own, passes its panic on, and fails if it
/// is still running after a minute (the whole file takes well under a
/// second in debug, so the bound leaves room for AddressSanitizer).
fn within_watchdog(case: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(case)));
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(result) => result.unwrap_or_else(|panic| resume_unwind(panic)),
        Err(_) => panic!("still running after 60 s: a list operation never finished"),
    }
}

/// A payload that records its drop in a caller-owned cell.
struct Probe<'a> {
    cell: &'a AtomicUsize,
}

impl<'a> Probe<'a> {
    fn new(cell: &'a AtomicUsize) -> Self {
        Probe { cell }
    }
}

impl Drop for Probe<'_> {
    fn drop(&mut self) {
        self.cell.fetch_add(1, Ordering::SeqCst);
    }
}

/// Every drop cell reads exactly 1: a double free would double-increment
/// one, a leak (or lost payload) would leave one at zero.
fn assert_dropped_once(cells: &[AtomicUsize]) {
    for (i, cell) in cells.iter().enumerate() {
        assert_eq!(cell.load(Ordering::SeqCst), 1, "payload {i} dropped wrong number of times");
    }
}

/// 8 threads hammer one list with an insert/pop loop — even threads pop one
/// entry at a time, odd ones pop runs of 1–8 — then the survivors are
/// drained; every drop cell must read exactly 1 afterwards.
fn stress_exactly_once<R: Reclaim>() {
    let total = PREFILL + THREADS * OPS_PER_THREAD;
    let cells: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
    let mut prefill: Vec<(u64, u32, Probe<'_>)> =
        (0..PREFILL).map(|i| (i as u64 % 97, i as u32, Probe::new(&cells[i]))).collect();
    prefill.sort_by_key(|&(p, s, _)| (p, s));
    let list: HarrisList<Probe<'_>, R> = HarrisList::from_sorted_in(prefill);
    let popped = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let list = &list;
            let cells = &cells;
            let popped = &popped;
            s.spawn(move || {
                let mut local_pops = 0usize;
                for i in 0..OPS_PER_THREAD {
                    let idx = PREFILL + t * OPS_PER_THREAD + i;
                    // Colliding priorities force CAS contention at the head;
                    // the sequence number keeps keys unique.
                    let priority = (idx as u64) % 97;
                    let seq = idx as u32;
                    list.insert(priority, seq, Probe::new(&cells[idx]));
                    // Pop as often as we insert so the list stays short and
                    // the backend keeps recycling storage under contention.
                    if t % 2 == 0 {
                        local_pops += usize::from(list.pop_min().is_some());
                    } else if i % 4 == 3 {
                        local_pops += list.pop_run_with(1 + (i + t) % 8, drop, &list.guard());
                    }
                    // Periodically force a collection so reclamation runs
                    // *during* the contention (a no-op under VBR, whose
                    // slots recycle immediately).
                    if i % 512 == 511 {
                        list.flush_guard(&list.guard());
                    }
                }
                popped.fetch_add(local_pops, Ordering::SeqCst);
            });
        }
    });

    // Full drain after join: everything not popped concurrently comes out
    // now, exactly once.
    let mut drained = 0usize;
    while let Some((_, probe)) = list.pop_min() {
        drained += 1;
        drop(probe);
    }
    assert!(list.is_empty(), "list must be fully drained");
    assert_eq!(
        popped.load(Ordering::SeqCst) + drained,
        total,
        "every inserted payload popped exactly once"
    );
    drop(list);
    assert_dropped_once(&cells);
}

#[test]
fn ebr_eight_thread_stress_drops_exactly_once() {
    within_watchdog(stress_exactly_once::<Ebr>);
}

#[test]
fn vbr_eight_thread_stress_drops_exactly_once() {
    within_watchdog(stress_exactly_once::<Vbr>);
}

/// Random ops against the oracle. `(0, _, _)` inserts one key, `(1, len, _)`
/// pops a run of `len`, `(2, len, d)` inserts `len` keys in one
/// `insert_run_with`: sorted, then rotated left by `d` — one descent when
/// `0 < d < len`.
fn apply_ops<R: Reclaim>(ops: &[(u8, usize, usize)]) {
    let total: usize = ops.iter().map(|&(kind, len, _)| [1, 0, len][kind as usize]).sum();
    let cells: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
    let list: HarrisList<Probe<'_>, R> = HarrisList::new_in();
    let mut oracle: BTreeSet<(u64, u32)> = BTreeSet::new();
    let mut seq = 0u32;
    for (i, &(kind, len, d)) in ops.iter().enumerate() {
        if kind == 1 {
            let mut got = Vec::new();
            list.pop_run_with(len, |(p, _)| got.push(p), &list.guard());
            let expect: Vec<u64> =
                std::iter::from_fn(|| oracle.pop_first().map(|(p, _)| p)).take(len).collect();
            assert_eq!(got, expect, "single-threaded run pop must be the exact prefix");
            continue;
        }
        let len = if kind == 0 { 1 } else { len };
        let mut run: Vec<(u64, u32)> =
            (0..len).map(|j| ((i as u64 * 7 + j as u64 * 5) % 13, seq + j as u32)).collect();
        seq += len as u32;
        run.sort_unstable();
        run.rotate_left(d % len);
        oracle.extend(run.iter().copied());
        let mut entries = run.iter().map(|&(p, s)| (p, s, Probe::new(&cells[s as usize])));
        if kind == 0 {
            let (p, s, probe) = entries.next().unwrap();
            list.insert(p, s, probe);
        } else {
            list.insert_run_with(entries, &list.guard());
        }
    }
    let left: Vec<u64> = std::iter::from_fn(|| list.pop_min().map(|(p, _)| p)).collect();
    assert_eq!(
        left,
        oracle.into_iter().map(|(p, _)| p).collect::<Vec<_>>(),
        "what is left drains sorted"
    );
    drop(list);
    // Every inserted payload dropped exactly once, popped or drained.
    assert_dropped_once(&cells);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-threaded, the list is an exact priority queue whatever the
    /// backend and however a run is ordered; payload drops match the op
    /// sequence exactly.
    #[test]
    fn random_op_sequences_match_oracle_on_both_backends(
        ops in proptest::collection::vec((0u8..3, 1usize..=8, 0usize..8), 1..200)
    ) {
        within_watchdog(move || {
            apply_ops::<Ebr>(&ops);
            apply_ops::<Vbr>(&ops);
        });
    }
}
