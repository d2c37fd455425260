//! Reclamation-backend bake-off correctness suite: the exactly-once
//! drop-cell stress of `epoch_stress.rs`, generic over [`Reclaim`] and run
//! against **both** backends — once through `HarrisList::insert` with
//! single and run pops, once through the runs of
//! `LockFreeMultiQueue::insert_batch` and `pop_batch` — plus a proptest over
//! random mixed op sequences (single inserts, run inserts, run pops) diffed
//! against a `BTreeSet` oracle. A run pop unlinks its chain with one CAS and
//! retires it as one unit (under EBR: one deferred item whose nodes go back
//! to the list's pool), so a chain retired twice, or a node recycled while
//! still claimed, shows up here as a double drop.
//!
//! A per-payload drop cell proves every payload is dropped **exactly
//! once** — a double-free (e.g. a stale VBR read validating) increments a
//! cell twice, a leak (a lost slot) leaves one at zero. CI runs the VBR
//! stress in release mode as well, where the tighter instruction stream
//! makes version-recheck races most likely.

use proptest::prelude::*;
use rsched_queues::concurrent::{HarrisList, LockFreeMultiQueue};
use rsched_queues::reclaim::{Ebr, Reclaim, Vbr};
use rsched_queues::ConcurrentScheduler;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 3_000;
const PREFILL: usize = 1_000;

/// A payload that records its drop in a caller-owned cell — unless it is a
/// batch template: `insert_batch` clones its entries, and only the clone
/// the queue holds is armed.
struct Probe<'a> {
    cell: &'a AtomicUsize,
    armed: bool,
}

impl<'a> Probe<'a> {
    fn new(cell: &'a AtomicUsize) -> Self {
        Probe { cell, armed: true }
    }
}

impl Clone for Probe<'_> {
    fn clone(&self) -> Self {
        Probe::new(self.cell)
    }
}

impl Drop for Probe<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cell.fetch_add(1, Ordering::SeqCst);
        }
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
    let mut prefill: Vec<(u64, u64, Probe<'_>)> =
        (0..PREFILL).map(|i| (i as u64 % 97, i as u64, Probe::new(&cells[i]))).collect();
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
                    let seq = idx as u64;
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
    stress_exactly_once::<Ebr>();
}

#[test]
fn vbr_eight_thread_stress_drops_exactly_once() {
    stress_exactly_once::<Vbr>();
}

/// The run path under the same audit: 8 threads push ascending runs of
/// 1–64 through `LockFreeMultiQueue::insert_batch` — every search after a
/// run's first resumes from the node the run linked last, the first from
/// the finger the run before left — and pop about half a run after each
/// through `pop_batch`, a run pop per call, racing those pops against the
/// resume nodes and the finger.
fn batch_stress_exactly_once<R: Reclaim>() {
    let total = THREADS * OPS_PER_THREAD;
    let cells: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
    let q = LockFreeMultiQueue::<Probe<'_>, R>::new_in(4);
    let popped = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (q, cells, popped) = (&q, &cells, &popped);
            s.spawn(move || {
                let (mut next, mut out) = (0, Vec::new());
                while next < OPS_PER_THREAD {
                    let len = (1 + (next * 7 + t * 13) % 64).min(OPS_PER_THREAD - next);
                    // Ascending within the run (ties broken by the batch's
                    // ascending seq); every thread's runs cover one range.
                    let run: Vec<(u64, Probe<'_>)> = (next..next + len)
                        .map(|i| {
                            let cell = &cells[t * OPS_PER_THREAD + i];
                            ((i / 2) as u64, Probe { cell, armed: false })
                        })
                        .collect();
                    q.insert_batch(&run);
                    next += len;
                    popped.fetch_add(q.pop_batch(&mut out, len / 2 + 1), Ordering::SeqCst);
                    out.clear();
                }
            });
        }
    });

    let (mut drained, mut out) = (0, Vec::new());
    loop {
        let got = q.pop_batch(&mut out, 64);
        drained += got;
        out.clear();
        if got == 0 && q.is_empty() {
            break;
        }
    }
    assert_eq!(popped.load(Ordering::SeqCst) + drained, total, "every run entry popped once");
    drop(q);
    assert_dropped_once(&cells);
}

#[test]
fn ebr_eight_thread_batch_runs_drop_exactly_once() {
    batch_stress_exactly_once::<Ebr>();
}

#[test]
fn vbr_eight_thread_batch_runs_drop_exactly_once() {
    batch_stress_exactly_once::<Vbr>();
}

/// Multiqueue-level variant: the two-choice pop path (peek + pop under one
/// guard) against both backends, conserving elements under contention.
fn multiqueue_conserves<R: Reclaim>() {
    let n = 4_000u64;
    let q = LockFreeMultiQueue::<u64, R>::prefilled_in(8, (0..n).map(|p| (p, p)));
    let total_popped = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let q = &q;
            let total_popped = &total_popped;
            s.spawn(move || {
                let mut out = Vec::new();
                loop {
                    let got = q.pop_batch(&mut out, 32);
                    if got == 0 && q.is_empty() {
                        break;
                    }
                }
                total_popped.fetch_add(out.len(), Ordering::SeqCst);
            });
        }
    });
    assert_eq!(total_popped.load(Ordering::SeqCst), n as usize);
}

#[test]
fn ebr_multiqueue_batch_drain_conserves() {
    multiqueue_conserves::<Ebr>();
}

#[test]
fn vbr_multiqueue_batch_drain_conserves() {
    multiqueue_conserves::<Vbr>();
}

/// Random ops against the oracle. `(0, _, _)` inserts one key, `(1, len, _)`
/// pops a run of `len`, `(2, len, d)` inserts `len` keys in one
/// `insert_run_with`: sorted, then rotated left by `d` — one descent when
/// `0 < d < len`.
fn apply_ops<R: Reclaim>(ops: &[(u8, usize, usize)]) {
    let total: usize = ops.iter().map(|&(kind, len, _)| [1, 0, len][kind as usize]).sum();
    let cells: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
    let list: HarrisList<Probe<'_>, R> = HarrisList::new_in();
    let mut oracle: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut seq = 0u64;
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
        let mut run: Vec<(u64, u64)> =
            (0..len).map(|j| ((i as u64 * 7 + j as u64 * 5) % 13, seq + j as u64)).collect();
        seq += len as u64;
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
        apply_ops::<Ebr>(&ops);
        apply_ops::<Vbr>(&ops);
    }
}
