//! Micro-benchmarks for the two layer probes whose multi-thread halves the
//! repository benchmark (`benchmark/`) does not carry yet:
//!
//! * `lock_ops` — uncontended and 2/4/8-way handoff latency of the MCS
//!   lock against `std::sync::Mutex`;
//! * `reclaim_bakeoff` — the same lock-free MultiQueue drain under EBR and
//!   VBR at 1/2/4/8 threads.
//!
//! Their single-thread halves are `queues.lock.mcs_uncontended_ns` and
//! `queues.reclaim.pop_ns_{ebr,vbr}` in `benchmark/`; every other number
//! this file used to print is a `benchmark/` metric now.
//!
//! A plain `main` (`harness = false`): every cell is one run of [`OPS`]
//! operations, timed with `std::time::Instant`, 10 samples after 2 untimed
//! warm-ups (1 and 1 under `RSCHED_BENCH_FAST=1`), median reported.

use rsched_bench::{Args, Table};
use rsched_queues::concurrent::LockFreeMultiQueue;
use rsched_queues::lock::{Lock, McsLock};
use rsched_queues::reclaim::{Ebr, Reclaim, Vbr};
use rsched_queues::ConcurrentScheduler;
use std::hint::black_box;
use std::time::Instant;

/// Operations per timed run of a cell: lock rounds, or elements drained.
const OPS: u64 = 10_000;

/// Times `cell` and appends its median to `table`. Two warm-ups, not one:
/// the first itself creates one-time work (allocator arenas, fresh pages,
/// lazy per-thread state) that would otherwise land in the first sample.
fn time_cell(table: &mut Table, name: &str, fast: bool, mut cell: impl FnMut()) {
    let (samples, warmups) = if fast { (1, 1) } else { (10, 2) };
    (0..warmups).for_each(|_| cell());
    let mut ns: Vec<u128> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            cell();
            start.elapsed().as_nanos()
        })
        .collect();
    ns.sort_unstable();
    let median = ns[ns.len() / 2];
    table.row(&[&name, &median, &format!("{:.1}", median as f64 / OPS as f64)]);
}

/// Runs `work` on the calling thread at `threads == 1` (so the
/// single-thread cells time no spawn), otherwise once on each of `threads`
/// scoped threads.
fn on_threads(threads: usize, work: impl Fn() + Sync) {
    if threads == 1 {
        return work();
    }
    std::thread::scope(|s| (0..threads).for_each(|_| drop(s.spawn(&work))));
}

/// At one thread the uncontended latency (where the mutex's fast path is
/// the bar); at 2/4/8 the workers share one lock, `OPS / threads` rounds
/// each — the handoff latency a queue lock exists to improve, every
/// release forwarding the critical section to a spinning waiter.
fn lock_ops(fast: bool) {
    let mut table = Table::new(&["lock_ops", "median_ns", "ns/op"]);
    for threads in [1usize, 2, 4, 8] {
        let rounds = OPS / threads as u64;
        let shape = if threads == 1 { "uncontended" } else { "handoff" };
        time_cell(&mut table, &format!("{shape}_mcs/{threads}"), fast, || {
            let lock = Lock::<McsLock, u64>::new(0);
            on_threads(threads, || (0..rounds).for_each(|_| *lock.lock() += 1));
            black_box(lock.into_inner());
        });
        time_cell(&mut table, &format!("{shape}_std_mutex/{threads}"), fast, || {
            let lock = std::sync::Mutex::new(0u64);
            on_threads(threads, || (0..rounds).for_each(|_| *lock.lock().unwrap() += 1));
            black_box(lock.into_inner().unwrap());
        });
    }
    println!("{table}");
}

/// One bake-off cell: `threads` workers scalar-pop a prefilled
/// `LockFreeMultiQueue<_, R>` to empty. Scalar pops on purpose — each EBR
/// pop pays a pin (store + SeqCst fence) where VBR validates with plain
/// loads, and batching would amortize exactly the cost under test.
fn bakeoff_drain<R: Reclaim>(threads: usize) {
    let q = LockFreeMultiQueue::<u32, R>::prefilled_in(
        4 * threads.max(2),
        (0..OPS).map(|p| (p, p as u32)),
    );
    on_threads(threads, || {
        let mut acc = 0u64;
        while let Some((p, _)) = q.pop() {
            acc = acc.wrapping_add(p);
        }
        black_box(acc);
    });
}

/// EBR's pinned pop vs VBR's validate-only pop on the same drain, at 1
/// thread (pure per-op overhead — the per-pop fence is the whole gap) and
/// 2/4/8 threads (where CAS contention starts to share the bill).
fn reclaim_bakeoff(fast: bool) {
    let mut table = Table::new(&["reclaim_bakeoff", "median_ns", "ns/op"]);
    for threads in [1usize, 2, 4, 8] {
        time_cell(&mut table, &format!("ebr/{threads}"), fast, || bakeoff_drain::<Ebr>(threads));
        time_cell(&mut table, &format!("vbr/{threads}"), fast, || bakeoff_drain::<Vbr>(threads));
    }
    println!("{table}");
}

fn main() {
    // No flags of its own (cargo passes `--bench`): fast mode comes from
    // the environment only.
    let fast = Args::default().quick();
    lock_ops(fast);
    reclaim_bakeoff(fast);
}
