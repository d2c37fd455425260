//! Criterion micro-benchmarks for the two layer probes whose multi-thread
//! halves the repository benchmark (`benchmark/`) does not carry yet:
//!
//! * `lock_ops` — uncontended and 2/4/8-way handoff latency of the MCS and
//!   ticket locks against `std::sync::Mutex`;
//! * `reclaim_bakeoff` — the same lock-free MultiQueue drain under EBR and
//!   VBR at 1/2/4/8 threads.
//!
//! Their single-thread halves are `queues.lock.mcs_uncontended_ns` and
//! `queues.reclaim.pop_ns_{ebr,vbr}` in `benchmark/`; every other number
//! this file used to print is a `benchmark/` metric now.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsched_queues::concurrent::LockFreeMultiQueue;
use rsched_queues::lock::{Lock, McsLock, RawLock, TicketLock};
use rsched_queues::reclaim::{Backend, Ebr, Reclaim, Vbr};
use rsched_queues::ConcurrentScheduler;
use std::hint::black_box;

const N: u64 = 10_000;

fn drain_scalar<S: ConcurrentScheduler<u32>>(q: &S) -> u64 {
    let mut acc = 0u64;
    while let Some((p, _)) = q.pop() {
        acc = acc.wrapping_add(p);
    }
    acc
}

/// Uncontended iterations per lock in `lock_ops` (per measured iteration).
const LOCK_ITERS: u64 = 10_000;

/// `LOCK_ITERS` acquire/increment/release rounds on an uncontended lock.
fn uncontended<R: RawLock>() -> u64 {
    let lock = Lock::<R, u64>::new(0);
    for _ in 0..LOCK_ITERS {
        *lock.lock() += 1;
    }
    lock.into_inner()
}

/// `threads` workers share one lock, `LOCK_ITERS / threads` rounds each:
/// the handoff-latency shape the queue locks exist to improve — every
/// release forwards the critical section to a spinning waiter.
fn handoff<R: RawLock>(threads: usize) -> u64 {
    let lock = Lock::<R, u64>::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let lock = &lock;
            s.spawn(move || {
                for _ in 0..LOCK_ITERS / threads as u64 {
                    *lock.lock() += 1;
                }
            });
        }
    });
    lock.into_inner()
}

fn bench_lock_ops(c: &mut Criterion) {
    // The queue-lock toolkit measurement (DESIGN.md substitution #9):
    // uncontended latency (where parking_lot's adaptive fast path is the
    // bar) and 2/4/8-way handoff latency (where local spinning on a
    // per-waiter flag is supposed to pay for itself against the global
    // cache-line storm of the ticket lock).
    let mut group = c.benchmark_group("lock_ops");
    group.sample_size(10);
    group.bench_function("uncontended/mcs", |b| b.iter(|| black_box(uncontended::<McsLock>())));
    group.bench_function("uncontended/ticket", |b| {
        b.iter(|| black_box(uncontended::<TicketLock>()))
    });
    group.bench_function("uncontended/std_mutex", |b| {
        b.iter(|| {
            let lock = std::sync::Mutex::new(0u64);
            for _ in 0..LOCK_ITERS {
                *lock.lock().unwrap() += 1;
            }
            black_box(lock.into_inner().unwrap())
        })
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("handoff_mcs", threads), &threads, |b, &t| {
            b.iter(|| black_box(handoff::<McsLock>(t)))
        });
        group.bench_with_input(BenchmarkId::new("handoff_ticket", threads), &threads, |b, &t| {
            b.iter(|| black_box(handoff::<TicketLock>(t)))
        });
    }
    group.finish();
}

/// The `--reclaim {ebr,vbr}` CLI filter: restricts the bake-off cells to
/// one backend so a single backend can be re-measured in isolation; both
/// run when the flag is absent.
fn reclaim_filter() -> Option<Backend> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--reclaim")?;
    let v = args.get(i + 1).expect("--reclaim needs a value: ebr | vbr");
    Some(v.parse().unwrap_or_else(|e| panic!("--reclaim: {e}")))
}

/// One bake-off cell: `threads` workers scalar-pop a prefilled
/// `LockFreeMultiQueue<_, R>` to empty. Scalar pops on purpose — each EBR
/// pop pays a pin (store + SeqCst fence) where VBR validates with plain
/// loads, and batching would amortize exactly the cost under test.
fn bakeoff_drain<R: Reclaim>(threads: usize) {
    let q = LockFreeMultiQueue::<u32, R>::prefilled_in(
        4 * threads.max(2),
        (0..N).map(|p| (p, p as u32)),
    );
    if threads == 1 {
        black_box(drain_scalar(&q));
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| black_box(drain_scalar(&q)));
            }
        });
    }
}

fn bench_reclaim_bakeoff(c: &mut Criterion) {
    // The reclamation tentpole measurement: EBR's pinned pop vs VBR's
    // validate-only pop on the same lock-free MultiQueue drain, at 1
    // thread (pure per-op overhead — the per-pop fence is the whole gap)
    // and 2/4/8 threads (where CAS contention starts to share the bill).
    let filter = reclaim_filter();
    let mut group = c.benchmark_group("reclaim_bakeoff");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        if filter.is_none_or(|b| b == Backend::Ebr) {
            group.bench_with_input(BenchmarkId::new("ebr", threads), &threads, |b, &t| {
                b.iter(|| bakeoff_drain::<Ebr>(t))
            });
        }
        if filter.is_none_or(|b| b == Backend::Vbr) {
            group.bench_with_input(BenchmarkId::new("vbr", threads), &threads, |b, &t| {
                b.iter(|| bakeoff_drain::<Vbr>(t))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lock_ops, bench_reclaim_bakeoff);
criterion_main!(benches);
